"""The unified public API: surface snapshot, options, kwargs, protocol."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro import (
    BLOSUM62,
    XEON_E5_2670_DUAL,
    XEON_PHI_57XX,
    DevicePerformanceModel,
    GapModel,
    HybridSearchPipeline,
    SearchOptions,
    SearchOutcome,
    SearchPipeline,
    SearchRequest,
    SequenceDatabase,
    StreamingSearch,
)
from repro.db.fasta import FastaRecord
from repro.exceptions import PipelineError

from tests.conftest import random_protein

# The names `import repro` promises.  Additions are deliberate API
# changes: extend this snapshot in the same commit.
PUBLIC_API = {
    # alphabet
    "PROTEIN", "DNA", "Alphabet", "encode", "decode",
    # engines
    "AlignmentEngine", "AlignmentResult", "BatchResult", "Traceback",
    "ScalarEngine", "ScanEngine", "DiagonalEngine", "StripedEngine",
    "InterTaskEngine", "VectorizedEngine", "BandedEngine",
    "LaneGroup", "build_lane_groups",
    "global_align", "semiglobal_align", "MiniBlast",
    "available_engines", "get_engine", "sw_score", "align_pair",
    "waterman_eggert",
    # scoring
    "SubstitutionMatrix", "GapModel", "paper_gap_model", "get_matrix",
    "BLOSUM45", "BLOSUM50", "BLOSUM62", "BLOSUM80", "BLOSUM90",
    "PAM30", "PAM70", "PAM250",
    # db
    "SequenceDatabase", "SyntheticSwissProt", "PAPER_QUERIES",
    "make_query_set", "read_fasta", "write_fasta",
    "preprocess_database", "split_database",
    "ShardSpec", "iter_shards",
    # devices / model / runtime
    "DeviceSpec", "XEON_E5_2670_DUAL", "XEON_PHI_57XX",
    "ParallelFor", "Schedule",
    "DevicePerformanceModel", "RunConfig", "Workload",
    "HybridExecutor", "PCIE_GEN2_X16",
    # faults / resilience
    "FaultPlan", "FaultInjector", "RetryPolicy", "Timeout", "Deadline",
    "CircuitBreaker", "ResilientHybridExecutor", "ResilientResult",
    # search
    "SearchOptions", "SearchRequest", "SearchOutcome",
    "SearchPipeline", "SearchResult", "gcups",
    "StreamingSearch", "StreamingResult", "ShardedStreamingSearch",
    "TieredSearch", "TieredSearchResult",
    "PartialResult", "ScanJournal", "ScanState",
    "HybridSearchPipeline", "HybridSearchResult",
    # service
    "SearchService", "ServiceBatchResult",
    "WorkQueueScheduler", "QueueSearchOutcome", "PreprocessCache",
    # serving layer
    "SearchServer", "SearchClient", "RemoteSearchResult",
    "WIRE_SCHEMA_VERSION",
    # parallel execution
    "ProcessPoolBackend", "PackedDatabase",
    # observability
    "Tracer", "NullTracer", "Span", "TraceCollector",
    "get_tracer", "set_tracer", "use_tracer",
    "to_chrome_trace", "write_chrome_trace", "to_jsonl", "write_jsonl",
    "TraceContext", "TRACE_HEADER", "current_context", "adopt_spans",
    "MetricsRegistry", "METRICS",
    "to_prometheus", "StatsdEmitter",
    "append_jsonl_snapshot", "read_jsonl_snapshots",
    # errors
    "ReproError",
    "__version__",
}

OPTION_FIELDS = (
    "matrix", "gaps", "lanes", "kernel", "profile", "mode",
    "top_k", "chunk_size", "alphabet", "injector",
)


def tiny_db(rng, n=12) -> SequenceDatabase:
    return SequenceDatabase.from_records(
        [
            FastaRecord(f"sp|A{k:04d}|TEST{k}", random_protein(
                rng, int(rng.integers(30, 120))))
            for k in range(n)
        ],
        name="api-tiny",
    )


# ---------------------------------------------------------------------------
# surface snapshot
# ---------------------------------------------------------------------------
class TestSurface:
    def test_all_matches_snapshot(self):
        assert set(repro.__all__) == PUBLIC_API

    def test_all_has_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_name_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_options_field_names_frozen(self):
        assert SearchOptions.field_names() == OPTION_FIELDS

    def test_entrypoints_take_options_first(self):
        import inspect

        assert (
            list(inspect.signature(SearchPipeline).parameters)[0] == "options"
        )
        assert (
            list(inspect.signature(StreamingSearch).parameters)[0] == "options"
        )
        assert (
            list(inspect.signature(HybridSearchPipeline).parameters)[2]
            == "options"
        )


# ---------------------------------------------------------------------------
# SearchOptions semantics
# ---------------------------------------------------------------------------
class TestSearchOptions:
    def test_defaults_resolve_to_paper_scheme(self):
        opts = SearchOptions()
        assert opts.resolved_matrix().name == "BLOSUM62"
        assert opts.resolved_gaps() == GapModel(10, 2)
        assert opts.resolved_lanes(8) == 8
        assert opts.resolved_lanes(16) == 16

    def test_explicit_lanes_beat_consumer_default(self):
        assert SearchOptions(lanes=4).resolved_lanes(16) == 4

    def test_merged_overrides_without_mutating(self):
        base = SearchOptions(top_k=3)
        derived = base.merged(lanes=16)
        assert derived.lanes == 16 and derived.top_k == 3
        assert base.lanes is None

    @pytest.mark.parametrize(
        "bad",
        [
            dict(lanes=0),
            dict(top_k=-1),
            dict(chunk_size=0),
            dict(profile="diagonal"),
        ],
    )
    def test_invalid_options_rejected(self, bad):
        with pytest.raises(PipelineError):
            SearchOptions(**bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            SearchOptions().top_k = 99

    def test_request_validates_top_k(self):
        with pytest.raises(PipelineError):
            SearchRequest(query="ACDE", top_k=-1)


# ---------------------------------------------------------------------------
# legacy kwargs are gone: one spelling of every option, enforced hard
# ---------------------------------------------------------------------------
class TestLegacyKwargsRemoved:
    def test_pipeline_legacy_kwargs_raise(self):
        with pytest.raises(
            TypeError, match="unexpected keyword argument 'lanes'"
        ):
            SearchPipeline(lanes=4)
        with pytest.raises(
            TypeError, match="unexpected keyword argument 'matrix'"
        ):
            SearchPipeline(matrix=BLOSUM62, gaps=GapModel(10, 2))

    def test_pipeline_legacy_positional_matrix_raises(self):
        with pytest.raises(TypeError, match=r"SearchOptions\(matrix=\.\.\.\)"):
            SearchPipeline(BLOSUM62)

    def test_streaming_legacy_kwargs_raise(self):
        with pytest.raises(
            TypeError, match="unexpected keyword argument 'chunk_size'"
        ):
            StreamingSearch(chunk_size=4, top_k=3)

    def test_hybrid_legacy_kwargs_raise(self):
        host = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)
        with pytest.raises(TypeError, match="HybridSearchPipeline"):
            HybridSearchPipeline(host, phi, matrix=BLOSUM62)

    def test_unknown_kwarg_still_reads_like_python(self):
        with pytest.raises(
            TypeError, match="unexpected keyword argument 'bogus'"
        ):
            SearchPipeline(bogus=1)

    def test_new_style_never_warns(self, rng):
        db = tiny_db(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            SearchPipeline(SearchOptions(lanes=4)).search(
                random_protein(rng, 30), db
            )
            StreamingSearch(SearchOptions(chunk_size=8))

    def test_options_slot_rejects_junk(self):
        with pytest.raises(PipelineError, match="SearchOptions"):
            SearchPipeline({"matrix": "BLOSUM62"})


# ---------------------------------------------------------------------------
# the SearchOutcome protocol
# ---------------------------------------------------------------------------
class TestOutcomeProtocol:
    def test_all_result_types_satisfy_protocol(self, rng):
        db = tiny_db(rng)
        query = random_protein(rng, 40)
        host = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)

        outcomes = [
            SearchPipeline(SearchOptions(top_k=3)).search(query, db),
            StreamingSearch(SearchOptions(chunk_size=4)).search_records(
                query,
                iter([FastaRecord("S0", random_protein(rng, 35))]),
            ),
            HybridSearchPipeline(host, phi).search(query, db, top_k=3),
            repro.WorkQueueScheduler(host, phi, chunks=3).search(query, db),
            repro.SearchService(SearchOptions(top_k=3)).run([query], db),
        ]
        for outcome in outcomes:
            assert isinstance(outcome, SearchOutcome), type(outcome).__name__
            assert outcome.best_score() >= 0
            assert outcome.gcups >= 0.0
            assert "kind" in outcome.provenance
            for hit in outcome.hits:
                assert hit.score >= 0

    def test_provenance_kinds_distinct(self, rng):
        db = tiny_db(rng)
        query = random_protein(rng, 40)
        host = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)
        kinds = {
            SearchPipeline().search(query, db).provenance["kind"],
            HybridSearchPipeline(host, phi)
            .search(query, db).provenance["kind"],
            repro.WorkQueueScheduler(host, phi, chunks=3)
            .search(query, db).provenance["kind"],
        }
        assert len(kinds) == 3


# ---------------------------------------------------------------------------
# scheduler determinism
# ---------------------------------------------------------------------------
class TestSchedulerDeterminism:
    def test_same_config_same_plan_and_scores(self, rng):
        db = tiny_db(rng, n=20)
        query = random_protein(rng, 80)
        host = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)
        sched = repro.WorkQueueScheduler(host, phi, chunks=5)
        first = sched.search(query, db)
        second = sched.search(query, db)
        assert np.array_equal(first.result.scores, second.result.scores)
        assert [
            (a.chunk_id, a.worker, a.indices.tolist())
            for a in first.plan.assignments
        ] == [
            (a.chunk_id, a.worker, a.indices.tolist())
            for a in second.plan.assignments
        ]
        assert first.modeled_makespan == second.modeled_makespan

    def test_hybrid_queue_scheduler_flag(self, rng):
        db = tiny_db(rng, n=16)
        query = random_protein(rng, 60)
        host = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)
        static = HybridSearchPipeline(host, phi).search(query, db, top_k=4)
        queued = HybridSearchPipeline(
            host, phi, scheduler="queue", chunks=4
        ).search(query, db, top_k=4)
        assert queued.scheduler == "queue"
        assert queued.static_modeled_makespan is not None
        assert np.array_equal(queued.result.scores, static.result.scores)
        with pytest.raises(PipelineError):
            HybridSearchPipeline(host, phi, scheduler="lottery")
