"""The shared scan core: top-k merger, ranker, option resolution, funnel.

Every search path now runs through the pieces of
:mod:`repro.search.scan`; these tests pin each piece's contract and the
bugs the duplicated copies used to carry:

* :class:`TopK` keeps the k largest ``(score, earlier record)`` entries
  whatever order records are offered in, and round-trips through the
  scan journal;
* :func:`rank_hits` is the stable descending ranking, with an
  eligibility mask for the tiered path;
* :class:`ScanContext` honours every option (``profile`` used to be
  dropped by both streaming drivers) and is the one source of the
  pooled engine's configuration;
* the sharded driver is re-entrant: concurrent searches with different
  ``top_k`` no longer share a bound;
* the tiered funnel runs inside the streaming loop and its root span
  covers the query word-table build;
* lane groups merged into runs sweep the same plans serially, on the
  pool at any chunk size, and under a corrupting fault plan;
* ``saturated_recomputed`` is the number of sequences past the first
  rung's clamp, whatever the lane width, chunking or pool.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.core.profiles import ProfileKind
from repro.db import SequenceDatabase, preprocess_database
from repro.db.synthetic import SyntheticSwissProt
from repro.exceptions import PipelineError
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Tracer, use_tracer
from repro.search import (
    ScanContext,
    ScanState,
    SearchOptions,
    SearchPipeline,
    ShardedStreamingSearch,
    StreamingSearch,
    TopK,
    rank_hits,
)

from tests.conftest import hot3000_matrix

QUERY = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


@pytest.fixture(scope="module")
def db() -> SequenceDatabase:
    return SyntheticSwissProt(seed=23).generate(scale=0.0005)


def hit_tuples(hits):
    return [(h.score, h.index, h.header, h.length) for h in hits]


def offer_all(topk: TopK, scores, order) -> None:
    """Offer records one batch per position of ``order``."""
    for i in order:
        topk.offer(scores[i:i + 1], i, [f"r{i}"], [np.zeros(i % 7 + 1)])


class TestTopK:
    SCORES = np.array([5, 9, 9, 1, 9, 7, 5, 3, 9, 0], dtype=np.int64)

    def expected(self, k):
        order = sorted(range(len(self.SCORES)),
                       key=lambda i: (-self.SCORES[i], i))
        return [(int(self.SCORES[i]), i) for i in order[:k]]

    @pytest.mark.parametrize("k", [0, 1, 3, 4, 10, 50])
    def test_batch_keeps_best_with_earlier_tie_break(self, k):
        topk = TopK(k)
        topk.offer(self.SCORES, 0, [f"r{i}" for i in range(10)],
                   [np.zeros(i + 1) for i in range(10)])
        assert [(h.score, h.index) for h in topk.hits()] == self.expected(k)
        assert [h.length for h in topk.hits()] == [
            i + 1 for _, i in self.expected(k)
        ]

    def test_offer_order_does_not_matter(self):
        ref = TopK(4)
        offer_all(ref, self.SCORES, range(10))
        rng = np.random.default_rng(3)
        for _ in range(5):
            topk = TopK(4)
            offer_all(topk, self.SCORES, rng.permutation(10).tolist())
            assert hit_tuples(topk.hits()) == hit_tuples(ref.hits())

    def test_only_restricts_entry(self):
        topk = TopK(3)
        topk.offer(self.SCORES, 100, [f"r{i}" for i in range(10)],
                   [np.zeros(1)] * 10, only=[0, 3, 5, 7])
        assert [(h.score, h.index) for h in topk.hits()] == [
            (7, 105), (5, 100), (3, 107),
        ]

    def test_journal_round_trip_continues_identically(self):
        whole = TopK(3)
        offer_all(whole, self.SCORES, range(10))
        first = TopK(3)
        offer_all(first, self.SCORES, range(5))
        state = ScanState(heap=ScanState.pack_heap(first.entries))
        resumed = TopK(3, state.heap_entries())
        offer_all(resumed, self.SCORES, range(5, 10))
        assert hit_tuples(resumed.hits()) == hit_tuples(whole.hits())
        assert ScanState.pack_heap(resumed.entries) \
            == ScanState.pack_heap(whole.entries)


class TestRankHits:
    def test_stable_descending(self, db):
        scores = np.array(
            [3, 8, 8, 1] + [0] * (len(db) - 4), dtype=np.int64
        )
        hits = rank_hits(scores, db, 3)
        assert [(h.index, h.score) for h in hits] == [(1, 8), (2, 8), (0, 3)]
        assert hits[0].header == db.headers[1]
        assert hits[0].length == len(db.sequences[1])
        assert rank_hits(scores, db, 0) == []

    def test_eligible_and_align(self, db):
        scores = np.array(
            [3, 8, 8, 1] + [0] * (len(db) - 4), dtype=np.int64
        )
        eligible = np.zeros(len(db), dtype=bool)
        eligible[[0, 2, 3]] = True
        hits = rank_hits(scores, db, 10, eligible=eligible, align=str)
        assert [(h.index, h.alignment) for h in hits] == [
            (2, "2"), (0, "0"), (3, "3"),
        ]

    def test_matches_pipeline_ranking(self, db):
        result = SearchPipeline(SearchOptions(top_k=12)).search(QUERY, db)
        assert hit_tuples(rank_hits(result.scores, db, 12)) \
            == hit_tuples(result.hits)


class TestScanContext:
    def test_profile_reaches_serial_and_pooled_engines(self):
        opts = SearchOptions(profile="query", kernel="numpy", lanes=16)
        assert StreamingSearch(opts).engine.profile is ProfileKind.QUERY
        with ShardedStreamingSearch(opts, workers=2) as sharded:
            cfg = sharded.context.engine_config
        assert (cfg.profile, cfg.kernel, cfg.lanes) == ("query", "numpy", 16)
        assert ScanContext.resolve(opts).make_engine().profile \
            is ProfileKind.QUERY

    def test_query_profile_scan_equals_sequence_profile(self, db):
        runs = {}
        for profile in ("sequence", "query"):
            opts = SearchOptions(profile=profile, top_k=8, chunk_size=32)
            serial = StreamingSearch(opts).search_database(QUERY, db)
            with StreamingSearch(
                opts, workers=2, shard_records=64
            ) as search:
                pooled = search.search_database(QUERY, db)
            assert hit_tuples(pooled.hits) == hit_tuples(serial.hits)
            assert pooled.cells == serial.cells
            runs[profile] = serial
        assert hit_tuples(runs["query"].hits) \
            == hit_tuples(runs["sequence"].hits)
        assert runs["query"].cells == runs["sequence"].cells

    def test_pipeline_pool_uses_context_config(self):
        pipe = SearchPipeline(SearchOptions(kernel="numpy"), block_cols=7)
        cfg = pipe.context.engine_config
        assert (cfg.block_cols, cfg.lanes) == (7, pipe.lanes)
        assert pipe.engine.block_cols == 7


class TestShardedDriver:
    def test_rejects_tiered_mode(self):
        with pytest.raises(PipelineError, match="exhaustive"):
            ShardedStreamingSearch(SearchOptions(mode="fast"), workers=2)

    def test_concurrent_calls_keep_their_own_top_k(self, db):
        # Each stream pauses mid-scan until the other one has started,
        # so both searches are in flight on the shared driver at once.
        opts = SearchOptions(chunk_size=16)
        both_started = threading.Barrier(2, timeout=60)

        def records():
            for k, item in enumerate(zip(db.headers, db.sequences)):
                if k == 40:
                    both_started.wait()
                yield item

        results: dict[int, object] = {}
        errors: list[Exception] = []
        with ShardedStreamingSearch(
            opts, workers=2, shard_records=32
        ) as driver:
            driver.start()

            def run(k):
                try:
                    results[k] = driver.search_records(
                        QUERY, records(), top_k=k
                    )
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=run, args=(k,))
                       for k in (3, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        assert not errors, errors
        for k in (3, 7):
            serial = StreamingSearch(opts).search_database(
                QUERY, db, top_k=k
            )
            assert len(results[k].hits) == k
            assert hit_tuples(results[k].hits) == hit_tuples(serial.hits)


class TestTieredFunnel:
    def test_streamed_funnel_spans_nest_in_chunks(self, db):
        tracer = Tracer()
        with use_tracer(tracer):
            result = StreamingSearch(SearchOptions(
                mode="sensitive", top_k=5, chunk_size=64,
            )).search_database(QUERY, db)
        spans = {s.span_id: s for s in tracer.collector.spans()}
        chunks = [s for s in spans.values() if s.name == "streaming.chunk"]
        assert len(chunks) == result.chunks
        for stage in ("tiered.seed", "tiered.verify", "tiered.rescore"):
            staged = [s for s in spans.values() if s.name == stage]
            assert len(staged) == result.chunks, stage
            assert all(
                spans[s.parent_id].name == "streaming.chunk" for s in staged
            )

    def test_root_span_covers_word_table_build(self, db, monkeypatch):
        import repro.search.tiered as tiered

        build = tiered.build_query_word_table

        def slow_build(*args, **kwargs):
            time.sleep(0.05)
            return build(*args, **kwargs)

        monkeypatch.setattr(tiered, "build_query_word_table", slow_build)
        tracer = Tracer()
        with use_tracer(tracer):
            SearchPipeline(SearchOptions(mode="sensitive")).search(QUERY, db)
        (root,) = [
            s for s in tracer.collector.spans() if s.name == "tiered.search"
        ]
        assert root.wall_seconds >= 0.05


class TestRuns:
    def test_serial_pooled_and_faulted_scans_sweep_the_same_runs(self, db):
        # At 8 lanes the 34 lane groups merge into runs of 25, 8 and 1.
        # A pool task takes whole runs at any chunk size, so a pooled
        # scan sweeps the serial scan's plans, also under a corrupting
        # fault plan (a corruption redo sweeps the group's whole run).
        # Under HOT3000 a 3-residue query scores at most 9000, below
        # the fixed int16 clamp (29767), so nothing is redone whatever
        # the plans.
        opts = SearchOptions(matrix=hot3000_matrix(), kernel="numpy", lanes=8)
        pipe = SearchPipeline(opts)
        runs = pipe.engine.runs(preprocess_database(db, lanes=8).groups)
        assert [len(run) for run in runs] == [25, 8, 1]
        query = PROTEIN.decode(db.sequences[11][:3])
        plan = FaultPlan(seed=5, corrupt_rate=0.3)
        for injector in (None, FaultInjector(plan)):
            serial = SearchPipeline(opts.merged(injector=injector)).search(
                query, db
            )
            assert serial.best_score() == 9000
            assert serial.saturated_recomputed == 0
            if injector is not None:
                assert serial.corrupted_redone > 0
            for chunk in (1, 3, None):
                with SearchPipeline(
                    opts.merged(injector=injector), workers=2,
                    parallel_chunk_size=chunk,
                ) as pooled:
                    par = pooled.search(query, db)
                    tasks = pooled._backend.group_chunks(chunk)
                # One task per run: a run-splitting chunking would give
                # 34 tasks at chunk size 1 and 12 at 3.
                assert [len(task) for task in tasks] == [25, 8, 1]
                assert np.array_equal(par.scores, serial.scores)
                assert par.saturated_recomputed == serial.saturated_recomputed
                assert par.corrupted_redone == serial.corrupted_redone
            clean = pipe.search(query, db)
            assert np.array_equal(serial.scores, clean.scores)
            assert serial.saturated_recomputed == clean.saturated_recomputed


class TestRedoCount:
    """``saturated_recomputed`` counts the sequences past the first clamp.

    Each rung has one fixed clamp, so lane width, chunk size and lane
    neighbours never move the count.
    """

    def test_count_is_the_sequences_past_the_first_clamp(self, db):
        # HOT3000 starts at int16 with clamp 32767 - 3000 = 29767.  The
        # 12-residue query is a piece of record 11, which scores 36000;
        # a record holding ten of its residues in order, gaps allowed,
        # passes the clamp too.  Some records score between 6,143 and
        # 24,575, below the clamp, and the lane width and the chunking
        # change which neighbours share their lanes.
        matrix = hot3000_matrix()
        query = PROTEIN.decode(db.sequences[11][:12])
        clamp = 32767 - 3000
        counts = {}
        for lanes in (8, 128):
            opts = SearchOptions(matrix=matrix, kernel="numpy", lanes=lanes)
            pipe = SearchPipeline(opts)
            result = pipe.search(query, db)
            assert result.saturated_recomputed == pipe.engine.stats.redo_lanes
            between = (result.scores >= 6143) & (result.scores < 24575)
            assert between.sum() > 1
            counts[f"lanes={lanes}"] = result.saturated_recomputed
            expected = int((result.scores >= clamp).sum())
            for chunk in (16, 64, 256):
                streamed = StreamingSearch(
                    opts.merged(chunk_size=chunk)
                ).search_database(query, db)
                counts[f"lanes={lanes} chunk={chunk}"] = (
                    streamed.saturated_recomputed
                )
            with SearchPipeline(opts, workers=2) as pooled:
                counts[f"lanes={lanes} pooled"] = (
                    pooled.search(query, db).saturated_recomputed
                )
        assert expected >= 1
        assert counts == {key: expected for key in counts}
