"""Self-healing pool, end-to-end deadlines, and resumable scans.

The acceptance criteria of the robustness layer:

* a sharded scan under a seeded worker-kill / worker-hang plan
  completes via pool self-healing and is bit-identical — hits, tie
  order, ``corrupted_redone`` — to the fault-free serial scan;
* a deadline-expired scan returns a typed
  :class:`~repro.search.PartialResult` whose merged prefix matches the
  serial scan of exactly that prefix;
* ``resume()`` from a scan journal reproduces the uninterrupted run bit
  for bit.
"""

from __future__ import annotations

import json
import threading
import time
from itertools import islice

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.db import SequenceDatabase
from repro.db.synthetic import SyntheticSwissProt
from repro.exceptions import (
    DeadlineExceeded,
    ParallelError,
    PipelineError,
    ServiceOverloaded,
)
from repro.faults import Deadline, FaultInjector, FaultPlan
from repro.metrics import MetricsRegistry
from repro.scoring import get_matrix
from repro.search import (
    PartialResult,
    ScanJournal,
    ScanState,
    SearchOptions,
    SearchRequest,
    ShardedStreamingSearch,
    StreamingSearch,
)
from repro.service import SearchService
from tests.conftest import hot3000_matrix

QUERY = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


@pytest.fixture(scope="module")
def db() -> SequenceDatabase:
    return SyntheticSwissProt(seed=23).generate(scale=0.0006)


def hit_tuples(result):
    return [(h.score, h.index, h.header, h.length) for h in result.hits]


def record_stream(db, n=None):
    pairs = zip(db.headers, db.sequences)
    return islice(pairs, n) if n is not None else pairs


def stalling_stream(db, stall_after, sleep_seconds):
    """The database stream, wedged mid-way (for deadline expiry)."""
    for i, item in enumerate(zip(db.headers, db.sequences)):
        if i == stall_after:
            time.sleep(sleep_seconds)
        yield item


class HeldCalls:
    """Wraps ``fn`` so that its first ``n`` calls each wait for release.

    ``entered[k]`` is set when call ``k`` arrives; it proceeds once
    ``release[k]`` is set.  Later calls pass straight through.
    """

    def __init__(self, fn, n):
        self.fn = fn
        self.entered = [threading.Event() for _ in range(n)]
        self.release = [threading.Event() for _ in range(n)]
        self._calls = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        with self._lock:
            k, self._calls = self._calls, self._calls + 1
        if k < len(self.entered):
            self.entered[k].set()
            if not self.release[k].wait(timeout=30):
                raise TimeoutError(f"held call {k} was never released")
        return self.fn(*args, **kwargs)


def in_thread(fn):
    """Run ``fn`` on a new thread; the dict receives its result or error."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except Exception as exc:  # checked by the caller
            box["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, box


class CrashedStream(RuntimeError):
    """Simulates the driver process dying mid-scan."""


def crashing_stream(db, crash_after):
    for i, item in enumerate(zip(db.headers, db.sequences)):
        if i == crash_after:
            raise CrashedStream(f"stream died at record {i}")
        yield item


# ---------------------------------------------------------------------------
# chaos: the pool survives worker deaths and hangs, bit-identically
# ---------------------------------------------------------------------------
class TestSelfHealingPool:
    def test_worker_kill_heals_and_stays_bit_identical(self, db):
        # Chunk 2 kills its worker on *every* attempt (explicit poison
        # unit), so the pool must heal repeatedly and finally quarantine
        # the chunk and reclaim it inline.  Corruption redo accounting
        # must still replay the serial scan exactly.
        plan = FaultPlan(
            seed=99, corrupt_rate=0.3, worker_kill_units=(2,)
        )
        opts = SearchOptions(
            chunk_size=16, top_k=8, injector=FaultInjector(plan)
        )
        serial = StreamingSearch(opts).search_database(QUERY, db)
        assert serial.corrupted_redone > 0

        registry = MetricsRegistry()
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, metrics=registry,
        ) as sharded:
            par = sharded.search_database(QUERY, db)

        assert hit_tuples(par) == hit_tuples(serial)
        assert par.sequences_scanned == serial.sequences_scanned
        assert par.cells == serial.cells
        assert par.chunks == serial.chunks
        assert par.corrupted_redone == serial.corrupted_redone
        snap = registry.snapshot()
        assert snap["pool.heal.count"] >= 1
        assert snap["pool.heal.quarantined"] >= 1
        assert snap["pool.heal.resubmitted"] >= 1

    def test_worker_hang_detected_and_healed(self, db):
        # Chunk 1 wedges far past the watchdog; the collect loop must
        # declare the pool hung, heal it, and reclaim the lost chunks
        # (poison_threshold=1 quarantines them immediately — no second
        # hang wave).
        plan = FaultPlan(
            seed=5, worker_hang_units=(1,), worker_hang_seconds=30.0
        )
        opts = SearchOptions(
            chunk_size=16, top_k=6, injector=FaultInjector(plan)
        )
        serial = StreamingSearch(opts).search_database(QUERY, db)

        registry = MetricsRegistry()
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, metrics=registry,
            chunk_timeout=0.75, poison_threshold=1,
        ) as sharded:
            par = sharded.search_database(QUERY, db)

        assert hit_tuples(par) == hit_tuples(serial)
        assert par.corrupted_redone == serial.corrupted_redone
        snap = registry.snapshot()
        assert snap["pool.heal.count"] >= 1
        assert snap["pool.heal.quarantined"] >= 1

    def test_mixed_kill_and_hang_plan(self, db):
        plan = FaultPlan(
            seed=7, corrupt_rate=0.2,
            worker_kill_units=(0,), worker_hang_units=(3,),
            worker_hang_seconds=30.0,
        )
        opts = SearchOptions(
            chunk_size=16, top_k=7, injector=FaultInjector(plan)
        )
        serial = StreamingSearch(opts).search_database(QUERY, db)
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64,
            chunk_timeout=0.75, poison_threshold=2,
        ) as sharded:
            par = sharded.search_database(QUERY, db)
        assert hit_tuples(par) == hit_tuples(serial)
        assert par.corrupted_redone == serial.corrupted_redone

    def test_heal_budget_exhaustion_raises(self, db):
        # With a zero heal budget the first worker death must surface
        # as ParallelError instead of looping forever.
        plan = FaultPlan(seed=1, worker_kill_units=(0,))
        opts = SearchOptions(
            chunk_size=16, top_k=5, injector=FaultInjector(plan)
        )
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, max_heals=0,
        ) as sharded:
            with pytest.raises(ParallelError, match="heal budget"):
                sharded.search_database(QUERY, db)

    def test_worker_exception_carries_pid_and_chunk(self):
        # A non-library exception inside a worker is re-wrapped there
        # with the worker pid and chunk id in the message — __cause__
        # does not survive the result pickle, so the context must.
        from repro.parallel import ProcessPoolBackend
        from repro.parallel.worker import ChunkTask, EngineConfig
        from repro.scoring import GapModel

        with ProcessPoolBackend(None, workers=1) as backend:
            task = ChunkTask(
                chunk_id=5,
                kind="stream",
                query=np.zeros(4, dtype=np.uint8),
                matrix=get_matrix("BLOSUM62"),
                gaps=GapModel(10, 2),
                engine=EngineConfig(lanes=4),
                seqs=("this is not an encoded sequence",),
            )
            with pytest.raises(ParallelError, match=r"chunk 5 .*worker pid"):
                backend.submit_tasks([task])


# ---------------------------------------------------------------------------
# deadlines: typed partial results whose prefix matches serial
# ---------------------------------------------------------------------------
class TestDeadlines:
    def prefix_matches_serial(self, db, partial, opts):
        """The contract: hits == serial scan of the merged prefix."""
        n = partial.sequences_scanned
        if n == 0:
            assert partial.hits == []
            return
        clean = SearchOptions(
            chunk_size=opts.chunk_size, top_k=opts.top_k
        )
        serial = StreamingSearch(clean).search_records(
            QUERY, record_stream(db, n)
        )
        assert hit_tuples(partial) == hit_tuples(serial)

    def test_serial_scan_returns_partial_result(self, db):
        stall = min(150, len(db) // 2)
        opts = SearchOptions(chunk_size=16, top_k=6)
        result = StreamingSearch(opts).search_records(
            QUERY, stalling_stream(db, stall, 1.5),
            total_records=len(db), deadline=Deadline.after(0.5),
        )
        assert isinstance(result, PartialResult)
        assert result.sequences_scanned < len(db)
        assert result.provenance["partial"] is True
        assert result.completion() == pytest.approx(
            result.sequences_scanned / len(db)
        )
        assert "PARTIAL" in result.summary()
        self.prefix_matches_serial(db, result, opts)

    def test_sharded_scan_returns_partial_result(self, db):
        stall = min(150, len(db) // 2)
        opts = SearchOptions(chunk_size=16, top_k=6)
        registry = MetricsRegistry()
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, metrics=registry,
        ) as sharded:
            result = sharded.search_records(
                QUERY, stalling_stream(db, stall, 1.5),
                total_records=len(db), deadline=Deadline.after(0.5),
            )
        assert isinstance(result, PartialResult)
        assert result.sequences_scanned < len(db)
        # Whole shards only: the merged prefix is shard-aligned.
        assert result.sequences_scanned == result.shards_merged * 64 or (
            result.sequences_scanned < 64 * (result.shards_merged + 1)
        )
        self.prefix_matches_serial(db, result, opts)
        assert registry.snapshot()["deadline.partial"] == 1

    def test_pool_collect_raises_deadline_exceeded(self):
        from repro.parallel import ProcessPoolBackend
        from repro.parallel.worker import ChunkTask, EngineConfig
        from repro.scoring import GapModel

        expired = Deadline(expires_at=time.time() - 1.0)
        with ProcessPoolBackend(None, workers=1) as backend:
            task = ChunkTask(
                chunk_id=0,
                kind="stream",
                query=np.zeros(4, dtype=np.uint8),
                matrix=get_matrix("BLOSUM62"),
                gaps=GapModel(10, 2),
                engine=EngineConfig(lanes=4),
                seqs=(np.zeros(8, dtype=np.uint8),),
            )
            with pytest.raises(DeadlineExceeded):
                backend.submit_tasks([task], deadline=expired)

    def test_pipeline_search_respects_deadline(self, db):
        from repro.search import SearchPipeline

        small = db.subset(np.arange(12), name="tiny")
        expired = Deadline(expires_at=time.time() - 1.0)
        pipe = SearchPipeline(SearchOptions(top_k=3))
        with pytest.raises(DeadlineExceeded):
            pipe.search(QUERY, small, deadline=expired)

    def test_generous_deadline_changes_nothing(self, db):
        opts = SearchOptions(chunk_size=16, top_k=6)
        serial = StreamingSearch(opts).search_database(QUERY, db)
        result = StreamingSearch(opts).search_database(
            QUERY, db, deadline=Deadline.after(3600.0)
        )
        assert not isinstance(result, PartialResult)
        assert hit_tuples(result) == hit_tuples(serial)


# ---------------------------------------------------------------------------
# resumable scans: journal -> bit-identical continuation
# ---------------------------------------------------------------------------
class TestResumableScans:
    def test_crash_then_resume_is_bit_identical(self, db, tmp_path):
        journal = tmp_path / "scan.journal"
        plan = FaultPlan(seed=1234, corrupt_rate=0.3)
        opts = SearchOptions(
            chunk_size=16, top_k=7, injector=FaultInjector(plan)
        )
        serial = StreamingSearch(opts).search_database(QUERY, db)
        assert serial.corrupted_redone > 0

        crash_after = min(200, len(db) - 30)
        registry = MetricsRegistry()
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64,
            journal=journal, metrics=registry,
        ) as sharded:
            with pytest.raises(CrashedStream):
                sharded.search_records(
                    QUERY, crashing_stream(db, crash_after),
                    database_name=db.name,
                )
            assert journal.exists()
            resumed = sharded.resume(
                QUERY, record_stream(db),
                database_name=db.name, total_records=len(db),
            )

        assert hit_tuples(resumed) == hit_tuples(serial)
        assert resumed.sequences_scanned == serial.sequences_scanned
        assert resumed.cells == serial.cells
        assert resumed.chunks == serial.chunks
        assert resumed.corrupted_redone == serial.corrupted_redone
        # A completed scan removes its journal.
        assert not journal.exists()
        snap = registry.snapshot()
        assert snap["resume.loaded"] == 1
        assert snap["resume.records_skipped"] > 0

    def test_saturated_count_survives_sharding_and_resume(self, db, tmp_path):
        # HOT3000 lifts the query's self-hit past the int16 clamp, so the
        # numpy kernel redoes sequences at full width.  The journal keeps
        # the count of the merged shards, so the resumed scan reports it
        # for the whole scan.
        opts = SearchOptions(
            matrix=hot3000_matrix(), kernel="numpy", chunk_size=16, top_k=5
        )
        query = PROTEIN.decode(db.sequences[11][:12])
        serial = StreamingSearch(opts).search_database(query, db)
        assert serial.saturated_recomputed > 0
        journal = tmp_path / "saturated.journal"
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, journal=journal,
        ) as sharded:
            whole = sharded.search_database(query, db)
            with pytest.raises(CrashedStream):
                sharded.search_records(
                    query, crashing_stream(db, min(200, len(db) - 30)),
                    database_name=db.name,
                )
            saved = json.loads(journal.read_text())
            assert 0 < saved["saturated_recomputed"] < serial.saturated_recomputed
            resumed = sharded.resume(
                query, record_stream(db), database_name=db.name,
            )
        assert hit_tuples(whole) == hit_tuples(resumed) == hit_tuples(serial)
        assert (
            whole.saturated_recomputed
            == resumed.saturated_recomputed
            == serial.saturated_recomputed
        )

    def test_deadline_partial_then_resume_completes(self, db, tmp_path):
        journal = tmp_path / "deadline.journal"
        opts = SearchOptions(chunk_size=16, top_k=6)
        serial = StreamingSearch(opts).search_database(QUERY, db)

        stall = min(150, len(db) // 2)
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, journal=journal,
        ) as sharded:
            partial = sharded.search_records(
                QUERY, stalling_stream(db, stall, 1.5),
                database_name=db.name, deadline=Deadline.after(0.5),
            )
        assert isinstance(partial, PartialResult)
        assert partial.journal_path == str(journal)

        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, journal=journal,
        ) as fresh:
            resumed = fresh.resume(
                QUERY, record_stream(db), database_name=db.name,
            )
        assert hit_tuples(resumed) == hit_tuples(serial)
        assert resumed.sequences_scanned == serial.sequences_scanned
        assert resumed.corrupted_redone == serial.corrupted_redone

    def test_mismatched_journal_is_ignored(self, db, tmp_path):
        journal = tmp_path / "other.journal"
        opts = SearchOptions(chunk_size=16, top_k=5)
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, journal=journal,
        ) as sharded:
            with pytest.raises(CrashedStream):
                sharded.search_records(
                    QUERY, crashing_stream(db, 200),
                    database_name=db.name,
                )
            assert journal.exists()
            # A different query produces a different fingerprint: the
            # journal must be ignored and the scan start from zero.
            registry = MetricsRegistry()
            sharded.metrics = registry
            other = sharded.resume(
                QUERY + "WWWW", record_stream(db),
                database_name=db.name,
            )
        serial = StreamingSearch(opts).search_database(QUERY + "WWWW", db)
        assert hit_tuples(other) == hit_tuples(serial)
        assert registry.snapshot().get("resume.loaded", 0) == 0

    def test_short_stream_for_journal_rejected(self, db, tmp_path):
        journal = tmp_path / "short.journal"
        opts = SearchOptions(chunk_size=16, top_k=5)
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, journal=journal,
        ) as sharded:
            with pytest.raises(CrashedStream):
                sharded.search_records(
                    QUERY, crashing_stream(db, 200),
                    database_name=db.name,
                )
            with pytest.raises(PipelineError, match="wrong stream"):
                sharded.resume(
                    QUERY, record_stream(db, 10),
                    database_name=db.name,
                )

    def test_wrong_content_stream_rejected_on_resume(self, db, tmp_path):
        # Same record count, same database_name, same parameters — but
        # different content.  The fingerprint cannot see the stream's
        # bytes, so the chained prefix checksum must catch it.
        journal = tmp_path / "content.journal"
        opts = SearchOptions(chunk_size=16, top_k=5)
        crash_after = min(200, len(db) - 30)
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=64, journal=journal,
        ) as sharded:
            with pytest.raises(CrashedStream):
                sharded.search_records(
                    QUERY, crashing_stream(db, crash_after),
                    database_name=db.name,
                )
            assert journal.exists()

            def tampered_stream():
                for i, item in enumerate(zip(db.headers, db.sequences)):
                    if i == 0:
                        yield (item[0] + "-tampered", item[1])
                    else:
                        yield item

            with pytest.raises(PipelineError, match="prefix checksum"):
                sharded.resume(
                    QUERY, tampered_stream(), database_name=db.name,
                )

    def test_resume_requires_journal(self):
        search = ShardedStreamingSearch(SearchOptions(), workers=2)
        with pytest.raises(PipelineError, match="journal"):
            search.resume(QUERY, iter([]))


class TestScanJournal:
    def test_save_load_round_trip(self, tmp_path):
        journal = ScanJournal(tmp_path / "j.json")
        state = ScanState(
            records_done=128, shards_merged=2, scanned=128,
            cells=999, chunks=8, corrupted_redone=3,
            prefix_digest="ab" * 16,
            heap=[[17, -5, {
                "index": 5, "header": "sp|X|Y", "length": 40, "score": 17,
            }]],
        )
        journal.save("fp", state)
        loaded = journal.load("fp")
        assert loaded is not None
        assert loaded.records_done == 128
        assert loaded.corrupted_redone == 3
        assert loaded.prefix_digest == "ab" * 16
        (score, neg_idx, hit), = loaded.heap_entries()
        assert (score, neg_idx) == (17, -5)
        assert hit.index == 5 and hit.score == 17

    def test_journal_without_saturated_count_still_loads(self, tmp_path):
        journal = ScanJournal(tmp_path / "j.json")
        journal.save("fp", ScanState(records_done=64, corrupted_redone=2))
        payload = json.loads(journal.path.read_text())
        del payload["saturated_recomputed"]
        journal.path.write_text(json.dumps(payload))
        loaded = journal.load("fp")
        assert loaded is not None
        assert (loaded.records_done, loaded.saturated_recomputed) == (64, 0)

    def test_wrong_fingerprint_means_absent(self, tmp_path):
        journal = ScanJournal(tmp_path / "j.json")
        journal.save("fp-a", ScanState(records_done=64))
        assert journal.load("fp-b") is None

    def test_corrupt_or_missing_file_means_absent(self, tmp_path):
        journal = ScanJournal(tmp_path / "j.json")
        assert journal.load("fp") is None
        journal.path.write_text("{not json")
        assert journal.load("fp") is None
        journal.path.write_text("[1, 2]")
        assert journal.load("fp") is None

    def test_version_mismatch_means_absent(self, tmp_path):
        import json

        journal = ScanJournal(tmp_path / "j.json")
        journal.save("fp", ScanState(records_done=64))
        payload = json.loads(journal.path.read_text())
        payload["version"] = 999
        journal.path.write_text(json.dumps(payload))
        assert journal.load("fp") is None

    def test_clear_is_idempotent(self, tmp_path):
        journal = ScanJournal(tmp_path / "j.json")
        journal.clear()
        journal.save("fp", ScanState())
        journal.clear()
        journal.clear()
        assert not journal.exists

    def test_fingerprint_keys_every_parameter(self):
        q = np.arange(8, dtype=np.uint8)
        base = dict(
            database_name="db", top_k=5, chunk_size=16,
            max_residues=1000, max_records=None,
        )
        fp = ScanJournal.fingerprint(q, **base)
        assert fp == ScanJournal.fingerprint(q, **base)
        assert fp != ScanJournal.fingerprint(q[:-1], **base)
        for key, other in [
            ("database_name", "db2"), ("top_k", 6),
            ("chunk_size", 32), ("max_residues", 2000),
            ("max_records", 64),
        ]:
            assert fp != ScanJournal.fingerprint(q, **{**base, key: other})

    def test_fingerprint_keys_scoring_config_and_fault_plan(self):
        # Matrix, gap model, alphabet and fault plan all shape scores
        # and redo accounting — each must change the fingerprint.
        from repro.alphabet import DNA, PROTEIN
        from repro.scoring import GapModel, get_matrix

        q = np.arange(8, dtype=np.uint8)
        base = dict(
            database_name="db", top_k=5, chunk_size=16,
            max_residues=1000, max_records=None,
            matrix=get_matrix("BLOSUM62"), gaps=GapModel(10, 2),
            alphabet=PROTEIN, plan=None,
        )
        fp = ScanJournal.fingerprint(q, **base)
        assert fp == ScanJournal.fingerprint(q, **base)
        for key, other in [
            ("matrix", get_matrix("BLOSUM50")),
            ("matrix", None),
            ("gaps", GapModel(11, 1)),
            ("gaps", None),
            ("alphabet", DNA),
            ("alphabet", None),
            ("plan", FaultPlan(seed=3, corrupt_rate=0.5)),
        ]:
            assert fp != ScanJournal.fingerprint(q, **{**base, key: other})
        # Two different plans differ from each other, not just from None.
        a = ScanJournal.fingerprint(
            q, **{**base, "plan": FaultPlan(seed=3, corrupt_rate=0.5)}
        )
        b = ScanJournal.fingerprint(
            q, **{**base, "plan": FaultPlan(seed=4, corrupt_rate=0.5)}
        )
        assert a != b

    def test_chain_record_digest_is_order_and_framing_sensitive(self):
        from repro.search.journal import chain_record_digest

        a = np.array([1, 2, 3], dtype=np.uint8)
        b = np.array([4, 5], dtype=np.uint8)
        d1 = chain_record_digest(chain_record_digest("", "h1", a), "h2", b)
        d2 = chain_record_digest(chain_record_digest("", "h2", b), "h1", a)
        assert d1 != d2  # order matters
        # Moving bytes between header and sequence cannot collide.
        assert chain_record_digest("", "ab", a) != \
            chain_record_digest("", "a", np.insert(a, 0, ord("b")))


# ---------------------------------------------------------------------------
# service: per-request deadlines and admission control
# ---------------------------------------------------------------------------
class TestServiceResilience:
    def test_admission_cap_sheds_whole_batch(self, db):
        small = db.subset(np.arange(10), name="small")
        registry = MetricsRegistry()
        with SearchService(
            SearchOptions(top_k=3), max_queue_depth=1, metrics=registry,
        ) as service:
            reqs = [SearchRequest(query=QUERY, name=f"q{k}") for k in range(3)]
            with pytest.raises(ServiceOverloaded, match="admission cap"):
                service.run(reqs, small)
        assert registry.snapshot()["service.load_shed"] == 1

    def test_admission_cap_admits_at_the_bound(self, db):
        small = db.subset(np.arange(10), name="small")
        with SearchService(
            SearchOptions(top_k=3), max_queue_depth=2,
        ) as service:
            batch = service.run(
                [SearchRequest(query=QUERY, name=f"q{k}") for k in range(2)],
                small,
            )
        assert len(batch) == 2

    def test_invalid_queue_depth_rejected(self):
        with pytest.raises(PipelineError, match="max_queue_depth"):
            SearchService(max_queue_depth=0)

    def test_per_request_deadline_scopes_to_one_request(self, db):
        small = db.subset(np.arange(10), name="small")
        expired = Deadline(expires_at=time.time() - 1.0)
        with SearchService(SearchOptions(top_k=3)) as service:
            with pytest.raises(DeadlineExceeded):
                service.search(
                    SearchRequest(query=QUERY, deadline=expired), small
                )
            # The expired deadline must not leak into later requests.
            outcome = service.search(SearchRequest(query=QUERY), small)
        assert outcome.best_score() >= 0

    def test_free_request_beside_an_expired_one_succeeds(
        self, db, monkeypatch
    ):
        small = db.subset(np.arange(10), name="small")
        expired = Deadline(expires_at=time.time() - 1.0)
        with SearchService(SearchOptions(top_k=3)) as service:
            reference = service.search(SearchRequest(query=QUERY), small)
            engine = service._pipe.engine
            held = HeldCalls(engine._prepare, 1)
            monkeypatch.setattr(engine, "_prepare", held)
            # The expired request waits inside the pipeline, before its
            # first lane group, while a deadline-free one runs through.
            waiting, box = in_thread(lambda: service.search(
                SearchRequest(query=QUERY, deadline=expired), small
            ))
            assert held.entered[0].wait(timeout=30)
            try:
                free = service.search(SearchRequest(query=QUERY), small)
            finally:
                held.release[0].set()
                waiting.join(timeout=30)
            assert not waiting.is_alive()
        np.testing.assert_array_equal(free.scores, reference.scores)
        assert isinstance(box.get("error"), DeadlineExceeded)

    def test_free_request_after_overlapping_deadlines_succeeds(
        self, db, monkeypatch
    ):
        small = db.subset(np.arange(10), name="small")
        expired = Deadline(expires_at=time.time() - 1.0)
        with SearchService(SearchOptions(top_k=3)) as service:
            reference = service.search(SearchRequest(query=QUERY), small)
            engine = service._pipe.engine
            held = HeldCalls(engine._prepare, 2)
            monkeypatch.setattr(engine, "_prepare", held)
            # Two deadline-carrying requests overlap inside the pipeline
            # and finish in arrival order; the first deadline has passed.
            first, first_box = in_thread(lambda: service.search(
                SearchRequest(query=QUERY, deadline=expired), small
            ))
            assert held.entered[0].wait(timeout=30)
            second, second_box = in_thread(lambda: service.search(
                SearchRequest(query=QUERY, deadline=Deadline.after(600.0)),
                small,
            ))
            assert held.entered[1].wait(timeout=30)
            for k, thread in enumerate((first, second)):
                held.release[k].set()
                thread.join(timeout=30)
                assert not thread.is_alive()
            free = service.search(SearchRequest(query=QUERY), small)
        np.testing.assert_array_equal(free.scores, reference.scores)
        assert isinstance(first_box.get("error"), DeadlineExceeded)
        np.testing.assert_array_equal(
            second_box["result"].scores, reference.scores
        )

    def test_deadline_does_not_leak_into_lazy_sharded_driver(self, db):
        # The sharded driver is created lazily on the first sharded
        # request.  When that request carries a deadline, no later
        # deadline-free request through it may see that deadline, or
        # it would hit a stale, eventually-expired deadline and
        # silently truncate.
        with SearchService(
            SearchOptions(top_k=3, chunk_size=16),
            executor="sharded", workers=2, shard_residues=1000,
        ) as service:
            first = service.search(
                SearchRequest(query=QUERY, deadline=Deadline.after(600.0)),
                db,
            )
            assert first.best_score() >= 0
            sharded = service._stream._sharded
            assert sharded is not None, "request did not take the sharded route"
            # A later deadline-free request scans the whole database.
            full = service.search(SearchRequest(query=QUERY), db)
        assert not isinstance(full, PartialResult)
        assert full.sequences_scanned == len(db)


class TestKernelRegression:
    """Fault healing and deadline prefixes are kernel-independent.

    Streaming fault units are *chunk indices*, which do not depend on
    lane packing — so a seeded chaos plan scored by the numpy kernel
    must replay the python-kernel scan rank for rank, including the
    corruption-redo count.  Likewise a deadline-expired numpy scan's
    merged prefix must equal the python-kernel serial scan of exactly
    that prefix.
    """

    def test_seeded_fault_plan_rank_identical_across_kernels(self, db):
        plan = FaultPlan(seed=99, corrupt_rate=0.3, worker_kill_units=(2,))

        def opts(kernel):
            return SearchOptions(
                chunk_size=16, top_k=8, kernel=kernel,
                injector=FaultInjector(FaultPlan(
                    seed=plan.seed, corrupt_rate=plan.corrupt_rate,
                    worker_kill_units=plan.worker_kill_units,
                )),
            )

        ref = StreamingSearch(opts("python")).search_database(QUERY, db)
        assert ref.corrupted_redone > 0  # the plan really fires
        serial = StreamingSearch(opts("numpy")).search_database(QUERY, db)
        assert hit_tuples(serial) == hit_tuples(ref)
        assert serial.cells == ref.cells
        assert serial.corrupted_redone == ref.corrupted_redone
        with ShardedStreamingSearch(
            opts("numpy"), workers=2, shard_records=64,
        ) as sharded:
            par = sharded.search_database(QUERY, db)
        assert hit_tuples(par) == hit_tuples(ref)
        assert par.sequences_scanned == ref.sequences_scanned
        assert par.corrupted_redone == ref.corrupted_redone

    def test_deadline_prefix_matches_python_kernel(self, db):
        stall = min(150, len(db) // 2)
        opts = SearchOptions(chunk_size=16, top_k=6, kernel="numpy")
        partial = StreamingSearch(opts).search_records(
            QUERY, stalling_stream(db, stall, 1.5),
            total_records=len(db), deadline=Deadline.after(0.5),
        )
        assert isinstance(partial, PartialResult)
        n = partial.sequences_scanned
        assert 0 < n < len(db)
        clean = SearchOptions(chunk_size=16, top_k=6, kernel="python")
        serial = StreamingSearch(clean).search_records(
            QUERY, record_stream(db, n)
        )
        assert hit_tuples(partial) == hit_tuples(serial)


class TestPoisonAttribution:
    def test_completion_resets_chunk_failure_counter(self):
        # Losses charged while co-resident with a culprit chunk must
        # not accumulate across heals: once a chunk completes, its
        # failure counter is wiped and it cannot drift into quarantine.
        from repro.parallel import ProcessPoolBackend
        from repro.parallel.worker import ChunkTask, EngineConfig
        from repro.scoring import GapModel, get_matrix

        with ProcessPoolBackend(None, workers=1) as backend:
            backend._chunk_failures[0] = 2  # two prior charged losses
            task = ChunkTask(
                chunk_id=0,
                kind="stream",
                query=np.zeros(4, dtype=np.uint8),
                matrix=get_matrix("BLOSUM62"),
                gaps=GapModel(10, 2),
                engine=EngineConfig(lanes=4),
                seqs=(np.zeros(8, dtype=np.uint8),),
            )
            backend.submit_tasks([task])
            assert 0 not in backend._chunk_failures
            assert backend.quarantined == []

    def test_terminate_pool_degrades_without_process_handles(self):
        # If CPython ever renames ProcessPoolExecutor._processes, the
        # teardown must fall back to a plain non-blocking shutdown and
        # record the degradation instead of silently doing nothing.
        from repro.parallel import ProcessPoolBackend

        calls = {}

        class OpaquePool:
            def shutdown(self, wait=True, cancel_futures=False):
                calls["shutdown"] = (wait, cancel_futures)

        registry = MetricsRegistry()
        with ProcessPoolBackend(None, workers=1, metrics=registry) as backend:
            backend._terminate_pool(OpaquePool())
        assert calls["shutdown"] == (False, True)
        assert registry.snapshot()["pool.terminate.opaque"] == 1
