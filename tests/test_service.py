"""The service layer: cache, batching, and the work-queue scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    XEON_E5_2670_DUAL,
    XEON_PHI_57XX,
    DevicePerformanceModel,
    HybridSearchPipeline,
    PreprocessCache,
    SearchOptions,
    SearchPipeline,
    SearchRequest,
    SearchService,
    SequenceDatabase,
    WorkQueueScheduler,
)
from repro.db.fasta import FastaRecord
from repro.exceptions import ModelError, PipelineError
from repro.metrics import MetricsRegistry
from repro.perfmodel import build_chunks, compare_scheduling, plan_work_queue

from tests.conftest import random_protein


def make_db(rng, n=24, lo=30, hi=200, name="svc-db") -> SequenceDatabase:
    return SequenceDatabase.from_records(
        [
            FastaRecord(f"sp|S{k:04d}|SVC{k}", random_protein(
                rng, int(rng.integers(lo, hi))))
            for k in range(n)
        ],
        name=name,
    )


@pytest.fixture
def host():
    return DevicePerformanceModel(XEON_E5_2670_DUAL)


@pytest.fixture
def phi():
    return DevicePerformanceModel(XEON_PHI_57XX)


# ---------------------------------------------------------------------------
# database fingerprint
# ---------------------------------------------------------------------------
class TestFingerprint:
    def test_equal_content_equal_fingerprint(self, rng):
        db = make_db(rng, n=6)
        clone = SequenceDatabase(
            name="other-name",
            sequences=[s.copy() for s in db.sequences],
            headers=list(db.headers),
        )
        assert db.fingerprint() == clone.fingerprint()

    def test_different_content_different_fingerprint(self, rng):
        a = make_db(rng, n=6)
        b = a.subset(np.arange(len(a) - 1))
        assert a.fingerprint() != b.fingerprint()

    def test_order_sensitive(self, rng):
        db = make_db(rng, n=6)
        reordered = db.subset(np.arange(len(db))[::-1])
        assert db.fingerprint() != reordered.fingerprint()


# ---------------------------------------------------------------------------
# PreprocessCache
# ---------------------------------------------------------------------------
class TestPreprocessCache:
    def test_hit_on_same_content(self, rng):
        db = make_db(rng)
        cache = PreprocessCache(metrics=MetricsRegistry())
        first = cache.get(db, lanes=8)
        second = cache.get(db, lanes=8)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lane_width_separates_entries(self, rng):
        db = make_db(rng)
        cache = PreprocessCache(metrics=MetricsRegistry())
        assert cache.get(db, lanes=8) is not cache.get(db, lanes=16)
        assert cache.misses == 2

    def test_lru_eviction(self, rng):
        dbs = [make_db(rng, n=4, name=f"db{k}") for k in range(3)]
        cache = PreprocessCache(capacity=2, metrics=MetricsRegistry())
        for db in dbs:
            cache.get(db, lanes=8)
        assert cache.evictions == 1 and len(cache) == 2
        # dbs[0] was evicted: fetching it again misses.
        cache.get(dbs[0], lanes=8)
        assert cache.misses == 4

    def test_lru_refresh_on_hit(self, rng):
        dbs = [make_db(rng, n=4, name=f"db{k}") for k in range(3)]
        cache = PreprocessCache(capacity=2, metrics=MetricsRegistry())
        cache.get(dbs[0], lanes=8)
        cache.get(dbs[1], lanes=8)
        cache.get(dbs[0], lanes=8)  # refresh: dbs[1] is now the LRU
        cache.get(dbs[2], lanes=8)  # evicts dbs[1]
        cache.get(dbs[0], lanes=8)
        assert cache.hits == 2

    def test_metrics_registry_counters(self, rng):
        registry = MetricsRegistry()
        cache = PreprocessCache(metrics=registry)
        db = make_db(rng, n=4)
        cache.get(db, lanes=8)
        cache.get(db, lanes=8)
        snap = registry.snapshot("service.preprocess_cache")
        assert snap["service.preprocess_cache.misses"] == 1
        assert snap["service.preprocess_cache.hits"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(PipelineError):
            PreprocessCache(0)


# ---------------------------------------------------------------------------
# preprocess hoisting in search_many
# ---------------------------------------------------------------------------
class TestPreprocessOnce:
    def test_search_many_preprocesses_exactly_once(self, rng, monkeypatch):
        import repro.search.pipeline as pipeline_mod

        db = make_db(rng)
        queries = {
            f"q{k}": random_protein(rng, 40 + 10 * k) for k in range(4)
        }
        calls = []
        real = pipeline_mod.preprocess_database

        def counting(database, *, lanes):
            calls.append(database.name)
            return real(database, lanes=lanes)

        monkeypatch.setattr(pipeline_mod, "preprocess_database", counting)
        results = SearchPipeline().search_many(queries, db)
        assert len(calls) == 1
        assert set(results) == set(queries)

    def test_search_many_scores_match_individual_searches(self, rng):
        db = make_db(rng)
        queries = {f"q{k}": random_protein(rng, 50) for k in range(3)}
        pipe = SearchPipeline(SearchOptions(top_k=5))
        batched = pipe.search_many(queries, db)
        for name, query in queries.items():
            solo = pipe.search(query, db, query_name=name)
            assert np.array_equal(batched[name].scores, solo.scores)
            assert (
                [h.score for h in batched[name].hits]
                == [h.score for h in solo.hits]
            )

    def test_preprocessed_lane_mismatch_rejected(self, rng):
        from repro.db import preprocess_database

        db = make_db(rng, n=6)
        pre16 = preprocess_database(db, lanes=16)
        with pytest.raises(PipelineError, match="lanes"):
            SearchPipeline(SearchOptions(lanes=8)).search(
                "ACDEFGH", db, preprocessed=pre16
            )


# ---------------------------------------------------------------------------
# work-queue planning (virtual time)
# ---------------------------------------------------------------------------
class TestWorkQueuePlan:
    def test_chunks_cover_everything_once(self, rng):
        lengths = rng.integers(30, 400, 100).astype(np.int64)
        parts = build_chunks(lengths, 12)
        combined = np.sort(np.concatenate(parts))
        assert np.array_equal(combined, np.arange(100))

    def test_chunking_rejects_bad_input(self):
        with pytest.raises(ModelError):
            build_chunks(np.array([10, 20]), 0)
        with pytest.raises(ModelError):
            build_chunks(np.array([], dtype=np.int64), 4)
        with pytest.raises(ModelError):
            build_chunks(np.array([5, 0]), 2)

    def test_both_workers_participate_on_big_workloads(self, host, phi, rng):
        lengths = rng.integers(200, 2000, 400).astype(np.int64)
        plan = plan_work_queue(host, phi, lengths, 500, chunks=24)
        workers = {a.worker for a in plan.assignments}
        assert workers == {"host", "device"}
        assert 0.0 < plan.device_residue_fraction < 1.0

    def test_makespan_is_max_worker_clock(self, host, phi, rng):
        lengths = rng.integers(100, 1000, 200).astype(np.int64)
        plan = plan_work_queue(host, phi, lengths, 300, chunks=10)
        assert plan.makespan == max(plan.host_seconds, plan.device_seconds)
        for worker in ("host", "device"):
            pulls = plan.worker_chunks(worker)
            for a, b in zip(pulls, pulls[1:]):
                assert b.start_seconds == pytest.approx(a.end_seconds)

    def test_dynamic_not_worse_than_static_reference(self, host, phi, rng):
        lengths = rng.integers(150, 1500, 300).astype(np.int64)
        cmp = compare_scheduling(host, phi, lengths, 800,
                                 static_fraction=0.55)
        assert cmp.dynamic_wins
        assert cmp.speedup >= 1.0


# ---------------------------------------------------------------------------
# WorkQueueScheduler (real execution)
# ---------------------------------------------------------------------------
class TestWorkQueueScheduler:
    def test_scores_identical_to_plain_pipeline(self, host, phi, rng):
        db = make_db(rng, n=30)
        query = random_protein(rng, 90)
        plain = SearchPipeline(SearchOptions(top_k=8)).search(query, db)
        queued = WorkQueueScheduler(
            host, phi, SearchOptions(top_k=8), chunks=7
        ).search(query, db)
        assert np.array_equal(queued.result.scores, plain.scores)
        assert (
            [(h.index, h.score) for h in queued.hits]
            == [(h.index, h.score) for h in plain.hits]
        )

    def test_reports_both_makespans(self, host, phi, rng):
        db = make_db(rng, n=20)
        outcome = WorkQueueScheduler(host, phi, chunks=5).search(
            random_protein(rng, 60), db
        )
        assert outcome.modeled_makespan > 0
        assert outcome.static_modeled_makespan > 0
        assert outcome.modeled_gcups > 0
        assert outcome.provenance["scheduler"] == "queue"

    def test_invalid_static_fraction(self, host, phi):
        with pytest.raises(PipelineError):
            WorkQueueScheduler(host, phi, static_fraction=1.5)

    def test_empty_database_rejected(self, host, phi):
        db = SequenceDatabase(name="empty", sequences=[], headers=[])
        with pytest.raises(PipelineError):
            WorkQueueScheduler(host, phi).search("ACDE", db)


# ---------------------------------------------------------------------------
# SearchService
# ---------------------------------------------------------------------------
class TestSearchService:
    def test_local_batch_scores_match_single_query_path(self, rng):
        db = make_db(rng)
        queries = [random_protein(rng, 40 + 20 * k) for k in range(3)]
        service = SearchService(
            SearchOptions(top_k=5), metrics=MetricsRegistry()
        )
        batch = service.run(
            [SearchRequest(query=q, name=f"q{k}")
             for k, q in enumerate(queries)],
            db,
        )
        pipe = SearchPipeline(SearchOptions(top_k=5))
        for outcome, query in zip(batch.outcomes, queries):
            solo = pipe.search(query, db)
            assert np.array_equal(outcome.scores, solo.scores)

    def test_batch_shares_one_preprocess(self, rng):
        db = make_db(rng)
        service = SearchService(metrics=MetricsRegistry())
        batch = service.run(
            [random_protein(rng, 50) for _ in range(5)], db
        )
        assert batch.cache_stats["misses"] == 1
        assert batch.cache_stats["hits"] == 4

    @pytest.mark.parametrize("scheduler", ["static", "queue"])
    def test_heterogeneous_schedulers_score_identically(
        self, rng, host, phi, scheduler
    ):
        # The modelled schedulers live on HybridSearchPipeline, beside
        # the service rather than inside it.
        db = make_db(rng, n=18)
        query = random_protein(rng, 70)
        plain = SearchPipeline(SearchOptions(top_k=4)).search(query, db)
        with HybridSearchPipeline(
            host, phi, SearchOptions(top_k=4), scheduler=scheduler,
            chunks=4, metrics=MetricsRegistry(),
        ) as hybrid:
            outcome = hybrid.search(query, db, query_name="q")
        assert outcome.best_score() == plain.best_score()
        assert (
            [h.score for h in outcome.hits][:4]
            == [h.score for h in plain.hits]
        )

    def test_per_request_top_k_overrides_batch_default(self, rng):
        db = make_db(rng)
        batch = SearchService(
            SearchOptions(top_k=2), metrics=MetricsRegistry()
        ).run(
            [
                SearchRequest(query=random_protein(rng, 40), name="narrow"),
                SearchRequest(
                    query=random_protein(rng, 40), name="wide", top_k=7
                ),
            ],
            db,
        )
        assert len(batch.results["narrow"].hits) == 2
        assert len(batch.results["wide"].hits) == 7

    def test_batch_result_protocol_and_summary(self, rng):
        db = make_db(rng)
        batch = SearchService(metrics=MetricsRegistry()).run(
            [random_protein(rng, 40), random_protein(rng, 60)], db
        )
        assert batch.best_score() == max(
            o.best_score() for o in batch.outcomes
        )
        merged = batch.hits
        assert [h.score for h in merged] == sorted(
            (h.score for h in merged), reverse=True
        )
        assert batch.provenance["kind"] == "service-batch"
        assert len(batch.summary().splitlines()) == 2

    def test_empty_batch_rejected(self, rng):
        db = make_db(rng, n=4)
        with pytest.raises(PipelineError):
            SearchService(metrics=MetricsRegistry()).run([], db)

    def test_unknown_scheduler_rejected(self, host, phi):
        # The service is the local pipeline only; a scheduler is chosen
        # on HybridSearchPipeline, which rejects unknown ones.
        with pytest.raises(TypeError, match="scheduler"):
            SearchService(scheduler="queue")
        with pytest.raises(PipelineError, match="scheduler"):
            HybridSearchPipeline(host, phi, scheduler="greedy")
