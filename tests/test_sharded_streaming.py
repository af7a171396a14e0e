"""The sharding layer and the sharded out-of-core parallel scan.

The load-bearing guarantee: a ``workers > 1`` sharded scan is
bit-identical to the serial :class:`StreamingSearch` on the same
stream — same hits, same tie order, same ``corrupted_redone`` under a
seeded fault plan — while only bounded shards are ever resident.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.db import SequenceDatabase, ShardSpec, iter_shards, write_fasta
from repro.db.fasta import FastaRecord
from repro.db.shards import encode_record
from repro.db.synthetic import SyntheticSwissProt
from repro.exceptions import DatabaseError, PipelineError
from repro.faults import FaultInjector, FaultPlan
from repro.metrics import MetricsRegistry
from repro.search import (
    SearchOptions,
    SearchRequest,
    ShardedStreamingSearch,
    StreamingSearch,
)
from repro.service import SearchService

QUERY = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"


@pytest.fixture(scope="module")
def db() -> SequenceDatabase:
    return SyntheticSwissProt(seed=17).generate(scale=0.0008)


def hit_tuples(result):
    return [
        (h.score, h.index, h.header, h.length) for h in result.hits
    ]


class TestShardSpec:
    def test_needs_a_bound(self):
        with pytest.raises(DatabaseError, match="max_residues"):
            ShardSpec()

    @pytest.mark.parametrize(
        "kwargs", [dict(max_residues=0), dict(max_records=-3)]
    )
    def test_rejects_non_positive_bounds(self, kwargs):
        with pytest.raises(DatabaseError, match="positive"):
            ShardSpec(**kwargs)

    def test_overflow_checks_each_bound(self):
        spec = ShardSpec(max_residues=100, max_records=10)
        assert not spec.would_overflow(100, 10)
        assert spec.would_overflow(101, 1)
        assert spec.would_overflow(1, 11)


class TestIterShards:
    def records(self, lengths):
        return [
            FastaRecord(f"r{i}", "A" * n) for i, n in enumerate(lengths)
        ]

    def test_partition_is_complete_and_ordered(self, db):
        shards = list(iter_shards(
            zip(db.headers, db.sequences), ShardSpec(max_residues=9000)
        ))
        assert len(shards) > 1
        assert [s.shard_id for s in shards] == list(range(len(shards)))
        headers = [h for s in shards for h in s.headers]
        assert headers == db.headers
        # base_index is the running record offset.
        base = 0
        for s in shards:
            assert s.base_index == base
            base += s.n_records
        assert sum(s.residues for s in shards) == db.total_residues

    def test_residue_bound_respected(self):
        shards = list(iter_shards(
            self.records([40] * 20), ShardSpec(max_residues=100)
        ))
        assert all(s.residues <= 100 for s in shards)

    def test_record_bound_respected(self):
        shards = list(iter_shards(
            self.records([5] * 23), ShardSpec(max_records=4)
        ))
        assert [s.n_records for s in shards] == [4, 4, 4, 4, 4, 3]

    def test_alignment_multiples(self):
        shards = list(iter_shards(
            self.records([10] * 50), ShardSpec(max_residues=75),
            align_records=4,
        ))
        # Every boundary except the stream end is a multiple of 4.
        for s in shards[:-1]:
            assert s.n_records % 4 == 0
        assert all(s.base_index % 4 == 0 for s in shards)
        assert sum(s.n_records for s in shards) == 50

    def test_oversized_block_becomes_own_shard(self):
        shards = list(iter_shards(
            self.records([500, 5, 5]), ShardSpec(max_residues=50)
        ))
        assert shards[0].n_records == 1
        assert shards[0].residues == 500

    def test_bad_alignment_rejected(self):
        with pytest.raises(DatabaseError, match="align_records"):
            list(iter_shards(
                self.records([5]), ShardSpec(max_records=4),
                align_records=0,
            ))

    def test_encode_record_accepts_mixed_items(self, alphabet):
        h1, c1 = encode_record(FastaRecord("a", "WCHK"), alphabet)
        h2, c2 = encode_record(("b", "WCHK"), alphabet)
        assert h1 == "a" and h2 == "b"
        assert np.array_equal(c1, c2)
        pre = alphabet.encode("WCHK")
        h3, c3 = encode_record(("c", pre), alphabet)
        assert c3 is pre
        with pytest.raises(DatabaseError, match="stream items"):
            encode_record(42, alphabet)


class TestShardedEqualsSerial:
    """The acceptance criterion: bit-identical to the serial scan."""

    @pytest.mark.parametrize("shard_residues", [3000, 9000, 10_000_000])
    def test_identical_hits_and_accounting(self, db, shard_residues):
        opts = SearchOptions(chunk_size=32, top_k=9)
        serial = StreamingSearch(opts).search_database(QUERY, db)
        with ShardedStreamingSearch(
            opts, workers=2, shard_residues=shard_residues
        ) as sharded:
            par = sharded.search_database(QUERY, db)
        assert hit_tuples(par) == hit_tuples(serial)
        assert par.sequences_scanned == serial.sequences_scanned
        assert par.cells == serial.cells
        assert par.chunks == serial.chunks

    def test_identical_under_seeded_faults(self, db):
        # Redo counts must replay bit for bit: fault units are global
        # chunk indices on both paths.
        plan = FaultPlan(seed=1234, corrupt_rate=0.35)
        opts = SearchOptions(
            chunk_size=16, top_k=7, injector=FaultInjector(plan)
        )
        serial = StreamingSearch(opts).search_database(QUERY, db)
        assert serial.corrupted_redone > 0  # the plan actually fired
        with ShardedStreamingSearch(
            opts, workers=2, shard_residues=5000
        ) as sharded:
            par = sharded.search_database(QUERY, db)
        assert hit_tuples(par) == hit_tuples(serial)
        assert par.corrupted_redone == serial.corrupted_redone

    def test_streaming_search_workers_delegates(self, db):
        opts = SearchOptions(chunk_size=32, top_k=5)
        serial = StreamingSearch(opts).search_database(QUERY, db)
        with StreamingSearch(
            opts, workers=2, shard_residues=6000
        ) as search:
            par = search.search_database(QUERY, db)
        assert hit_tuples(par) == hit_tuples(serial)

    def test_fasta_path_identical(self, db, tmp_path):
        path = tmp_path / "shards.fasta"
        from repro.alphabet import PROTEIN

        records = [
            FastaRecord(h, PROTEIN.decode(seq))
            for h, seq in zip(db.headers, db.sequences)
        ]
        write_fasta(records, path)
        opts = SearchOptions(chunk_size=32, top_k=6)
        serial = StreamingSearch(opts).search_fasta(QUERY, path)
        with StreamingSearch(opts, workers=2, shard_residues=6000) as s:
            par = s.search_fasta(QUERY, path)
        assert hit_tuples(par) == hit_tuples(serial)

    def test_driver_heap_stays_bounded(self, tmp_path):
        # A warm sharded scan of a 385k-residue FASTA peaked at 0.523 MB
        # of traced driver heap when first measured; twice that is the
        # ceiling.
        from repro.alphabet import PROTEIN

        big = SyntheticSwissProt(seed=23).generate(scale=0.002)
        path = tmp_path / "big.fasta"
        write_fasta(
            [
                FastaRecord(h, PROTEIN.decode(seq))
                for h, seq in zip(big.headers, big.sequences)
            ],
            path,
        )
        query = QUERY + "MTPSRHADSLVKQ"
        with StreamingSearch(
            SearchOptions(chunk_size=128, top_k=10),
            workers=2, shard_residues=50_000,
        ) as sharded:
            sharded.search_fasta(query, path)  # warm-up: pool start
            tracemalloc.start()
            try:
                result = sharded.search_fasta(query, path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert result.sequences_scanned == len(big)
        assert peak <= 1.05e6, f"driver heap peaked at {peak / 1e6:.3f} MB"

    def test_top_k_zero_scores_only(self, db):
        opts = SearchOptions(chunk_size=32, top_k=0)
        with ShardedStreamingSearch(
            opts, workers=2, shard_residues=6000
        ) as sharded:
            result = sharded.search_database(QUERY, db)
        assert result.hits == []
        assert result.sequences_scanned == len(db)

    def test_empty_stream_rejected(self):
        with ShardedStreamingSearch(
            SearchOptions(), workers=2, shard_records=8
        ) as sharded:
            with pytest.raises(PipelineError, match="empty"):
                sharded.search_records(QUERY, iter([]))

    def test_invalid_workers_rejected(self):
        with pytest.raises(PipelineError, match="positive"):
            ShardedStreamingSearch(SearchOptions(), workers=0)

    def test_shard_metrics_emitted(self, db):
        registry = MetricsRegistry()
        with ShardedStreamingSearch(
            SearchOptions(chunk_size=32, top_k=5),
            workers=2, shard_residues=6000, metrics=registry,
        ) as sharded:
            sharded.search_database(QUERY, db)
        snap = registry.snapshot()
        assert snap["streaming.shard.count"] > 1
        assert snap["streaming.shard.records"] == len(db)
        assert snap["streaming.searches"] == 1

    def test_fallback_to_serial_when_pool_cannot_start(
        self, db, monkeypatch
    ):
        from repro.exceptions import ParallelError
        from repro.search import sharded as sharded_mod

        def boom(self):
            raise ParallelError("no pool for you")

        monkeypatch.setattr(
            sharded_mod.ShardedStreamingSearch, "start", boom
        )
        registry = MetricsRegistry()
        opts = SearchOptions(chunk_size=32, top_k=5)
        serial = StreamingSearch(opts).search_database(QUERY, db)
        search = StreamingSearch(
            opts, workers=2, shard_residues=6000, metrics=registry
        )
        result = search.search_database(QUERY, db)
        assert hit_tuples(result) == hit_tuples(serial)
        assert registry.snapshot()["streaming.fallback"] == 1


class TestServiceShardedExecutor:
    def test_routes_big_databases_through_shards(self, db):
        registry = MetricsRegistry()
        opts = SearchOptions(chunk_size=32, top_k=5)
        with SearchService(
            opts, executor="sharded", workers=2,
            shard_residues=6000, metrics=registry,
        ) as service:
            outcome = service.search(SearchRequest(query=QUERY), db)
        # The streamed result type proves the sharded route ran.
        assert outcome.provenance["kind"] == "streaming"
        serial = StreamingSearch(opts).search_database(QUERY, db)
        assert hit_tuples(outcome) == hit_tuples(serial)
        assert registry.snapshot()["streaming.shard.count"] > 1

    def test_small_databases_take_the_resident_pipeline(self, db):
        small = db.subset(np.arange(10), name="small")
        with SearchService(
            SearchOptions(top_k=5), executor="sharded", workers=2,
            shard_residues=10_000_000,
        ) as service:
            outcome = service.search(SearchRequest(query=QUERY), small)
        assert outcome.provenance["kind"] == "search"

    def test_traceback_requests_take_the_resident_pipeline(self, db):
        with SearchService(
            SearchOptions(chunk_size=32, top_k=3), executor="sharded",
            workers=2, shard_residues=6000,
        ) as service:
            outcome = service.search(
                SearchRequest(query=QUERY, traceback=True), db
            )
        assert outcome.provenance["kind"] == "search"
        assert any(h.alignment is not None for h in outcome.hits)

    def test_invalid_shard_residues_rejected(self):
        with pytest.raises(PipelineError, match="shard_residues"):
            SearchService(executor="sharded", shard_residues=0)
