"""The process-parallel backend: identity, determinism, resilience.

The backend's whole contract is that real multiprocess execution is an
implementation detail: scores (and fault-injection redo counts) must be
bit-identical to the serial path for any worker count or chunking, and
a pool that cannot start must degrade to in-process execution instead
of failing the search.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel.backend as backend_mod
from repro.alphabet import PROTEIN
from repro.db.database import SequenceDatabase
from repro.db.preprocess import preprocess_database
from repro.exceptions import ParallelError, PipelineError
from repro.faults.injection import FaultInjector, FaultPlan
from repro.metrics import MetricsRegistry
from repro.parallel import ProcessPoolBackend, default_chunk_size
from repro.parallel.worker import EngineConfig
from repro.search import SearchOptions, SearchPipeline
from repro.service import SearchService
from repro.service.scheduler import WorkQueueScheduler
from tests.conftest import random_protein


def make_db(rng, n=29, lo=4, hi=70, name="par-db") -> SequenceDatabase:
    seqs = [random_protein(rng, int(k)) for k in rng.integers(lo, hi, n)]
    return SequenceDatabase(
        name, [PROTEIN.encode(s) for s in seqs],
        [f"s{i}" for i in range(n)],
    )


@pytest.fixture
def db(rng) -> SequenceDatabase:
    return make_db(rng)


@pytest.fixture
def query(rng) -> str:
    return random_protein(rng, 36)


def corrupting_options(**extra) -> SearchOptions:
    # lanes is pinned: fault units are lane-group ids, and the seeded
    # plan must corrupt the same units whichever kernel (and therefore
    # kernel-specific lane default) the run resolves to.
    extra.setdefault("lanes", 8)
    return SearchOptions(
        injector=FaultInjector(FaultPlan(seed=7, corrupt_rate=0.4)), **extra
    )


class TestScoreIdentity:
    def test_matches_serial_across_worker_counts(self, db, query):
        serial = SearchPipeline(SearchOptions()).search(query, db)
        for workers in (1, 2, 4):
            with SearchPipeline(SearchOptions(), workers=workers) as pipe:
                par = pipe.search(query, db)
            np.testing.assert_array_equal(
                par.scores, serial.scores, err_msg=f"workers={workers}"
            )
            assert par.saturated_recomputed == serial.saturated_recomputed

    def test_chunk_size_invariance(self, db, query):
        serial = SearchPipeline(corrupting_options()).search(query, db)
        for chunk_size in (1, 3, None):
            with SearchPipeline(
                corrupting_options(), workers=2,
                parallel_chunk_size=chunk_size,
            ) as pipe:
                par = pipe.search(query, db)
            np.testing.assert_array_equal(par.scores, serial.scores)
            # Fault units are global group ids, so redo counts are
            # chunking-invariant too.
            assert par.corrupted_redone == serial.corrupted_redone

    def test_backend_scatter_matches_pipeline(self, db, query):
        # Drive the backend directly: sorted-order scores scattered
        # through length_order() must equal the pipeline's output.
        pre = preprocess_database(db, lanes=8)
        serial = SearchPipeline(SearchOptions()).search(query, db)
        with ProcessPoolBackend(pre, workers=2) as backend:
            q = PROTEIN.encode(query)
            opts = SearchOptions()
            sorted_scores, sat, redone, results = backend.score_groups(
                q, opts.resolved_matrix(), opts.resolved_gaps(),
                EngineConfig(lanes=8),
            )
        full = np.zeros(len(db), dtype=np.int64)
        full[db.length_order()] = sorted_scores
        np.testing.assert_array_equal(full, serial.scores)
        assert redone == 0
        assert sum(len(r.positions) for r in results) == len(db)

    def test_pool_reuse_and_database_switch(self, rng, db, query):
        other = make_db(rng, n=17, name="other-db")
        with SearchPipeline(SearchOptions(), workers=2) as pipe:
            first = pipe.search(query, db)
            again = pipe.search(query, db)     # same pool, same broadcast
            switched = pipe.search(query, other)  # re-broadcast
        np.testing.assert_array_equal(first.scores, again.scores)
        np.testing.assert_array_equal(
            switched.scores,
            SearchPipeline(SearchOptions()).search(query, other).scores,
        )


class TestFaultDeterminism:
    def test_redo_counts_match_serial(self, db, query):
        serial = SearchPipeline(corrupting_options()).search(query, db)
        with SearchPipeline(corrupting_options(), workers=2) as pipe:
            par = pipe.search(query, db)
        assert serial.corrupted_redone > 0  # the plan really fires
        assert par.corrupted_redone == serial.corrupted_redone
        np.testing.assert_array_equal(par.scores, serial.scores)


class TestKernelParity:
    """The numpy kernel survives every parallel execution mode.

    Worker processes rebuild their engine from the broadcast
    :class:`EngineConfig`; if the kernel (or its kernel-specific lane
    default) failed to ride along, scores would still come back — from
    the wrong engine.  These tests pin process-parallel and serial
    numpy-kernel runs to the python-kernel serial reference.
    """

    def test_numpy_parallel_matches_python_serial(self, db, query):
        ref = SearchPipeline(SearchOptions(kernel="python")).search(
            query, db
        )
        serial = SearchPipeline(SearchOptions(kernel="numpy")).search(
            query, db
        )
        np.testing.assert_array_equal(serial.scores, ref.scores)
        for workers in (2, 4):
            with SearchPipeline(
                SearchOptions(kernel="numpy"), workers=workers
            ) as pipe:
                par = pipe.search(query, db)
            np.testing.assert_array_equal(
                par.scores, ref.scores, err_msg=f"workers={workers}"
            )
            assert [(h.index, h.score) for h in par.hits] \
                == [(h.index, h.score) for h in ref.hits]

    def test_numpy_fault_redo_matches_its_serial(self, db, query):
        # Corruption units are group ids, which depend on lane packing
        # — pinning lanes=8 gives both kernels the identical group
        # structure, so the seeded plan corrupts the same units and the
        # redo counts must agree across kernels, not just within one.
        ref = SearchPipeline(
            corrupting_options(kernel="python", lanes=8)
        ).search(query, db)
        serial = SearchPipeline(
            corrupting_options(kernel="numpy", lanes=8)
        ).search(query, db)
        with SearchPipeline(
            corrupting_options(kernel="numpy", lanes=8), workers=2
        ) as pipe:
            par = pipe.search(query, db)
        assert ref.corrupted_redone > 0  # the plan really fires
        assert serial.corrupted_redone == ref.corrupted_redone
        assert par.corrupted_redone == ref.corrupted_redone
        np.testing.assert_array_equal(serial.scores, ref.scores)
        np.testing.assert_array_equal(par.scores, ref.scores)

    def test_env_var_selects_kernel_in_workers(self, db, query,
                                               monkeypatch):
        # REPRO_KERNEL is resolved once by SearchOptions on the driver;
        # the resolved kernel must then survive the worker broadcast.
        ref = SearchPipeline(SearchOptions(kernel="python")).search(
            query, db
        )
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        with SearchPipeline(SearchOptions(), workers=2) as pipe:
            assert pipe.kernel == "numpy"
            par = pipe.search(query, db)
        np.testing.assert_array_equal(par.scores, ref.scores)


class TestFallback:
    def test_broken_pool_falls_back_to_serial(
        self, db, query, monkeypatch
    ):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes today")

        monkeypatch.setattr(
            backend_mod, "ProcessPoolExecutor", ExplodingPool
        )
        metrics = MetricsRegistry()
        pipe = SearchPipeline(SearchOptions(), metrics=metrics, workers=2)
        result = pipe.search(query, db)
        baseline = SearchPipeline(SearchOptions()).search(query, db)
        np.testing.assert_array_equal(result.scores, baseline.scores)
        assert metrics.snapshot()["parallel.fallback"] >= 1

    def test_backend_startup_failure_is_parallel_error(
        self, db, monkeypatch
    ):
        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes today")

        monkeypatch.setattr(
            backend_mod, "ProcessPoolExecutor", ExplodingPool
        )
        pre = preprocess_database(db, lanes=8)
        with pytest.raises(ParallelError):
            ProcessPoolBackend(pre, workers=2)


class TestServiceAndQueue:
    def test_service_process_executor_matches_inprocess(self, db, query):
        requests = [query, query[::-1]]
        base = SearchService(SearchOptions()).run(requests, db)
        with SearchService(
            SearchOptions(), executor="process", workers=2
        ) as svc:
            batch = svc.run(requests, db)
        for a, b in zip(batch.outcomes, base.outcomes):
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_workers_imply_process_executor(self):
        svc = SearchService(SearchOptions(), workers=2)
        assert svc.executor == "process"
        svc.close()

    def test_static_scheduler_rejects_process_executor(self):
        from repro.devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
        from repro.perfmodel.model import DevicePerformanceModel
        from repro.search import HybridSearchPipeline

        with pytest.raises(PipelineError, match="static"):
            HybridSearchPipeline(
                DevicePerformanceModel(XEON_E5_2670_DUAL),
                DevicePerformanceModel(XEON_PHI_57XX),
                SearchOptions(), scheduler="static", workers=2,
            )

    def test_queue_scheduler_parallel_matches_serial(self, db, query):
        from repro.devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
        from repro.perfmodel.model import DevicePerformanceModel

        hm = DevicePerformanceModel(XEON_E5_2670_DUAL)
        dm = DevicePerformanceModel(XEON_PHI_57XX)
        serial = WorkQueueScheduler(
            hm, dm, corrupting_options()
        ).search(query, db)
        with WorkQueueScheduler(
            hm, dm, corrupting_options(), workers=2
        ) as queue:
            par = queue.search(query, db)
        np.testing.assert_array_equal(
            par.result.scores, serial.result.scores
        )
        assert par.plan.makespan == serial.plan.makespan


class TestLifecycleAndValidation:
    def test_backend_close_is_idempotent(self, db):
        pre = preprocess_database(db, lanes=8)
        backend = ProcessPoolBackend(pre, workers=2)
        backend.close()
        backend.close()
        assert backend.closed
        with pytest.raises(ParallelError):
            backend.submit_tasks([])

    def test_pipeline_survives_close(self, db, query):
        pipe = SearchPipeline(SearchOptions(), workers=2)
        first = pipe.search(query, db)
        pipe.close()
        pipe.close()
        second = pipe.search(query, db)  # starts a fresh pool
        pipe.close()
        np.testing.assert_array_equal(first.scores, second.scores)

    def test_invalid_parameters(self, db):
        pre = preprocess_database(db, lanes=8)
        with pytest.raises(ParallelError):
            ProcessPoolBackend(pre, workers=0)
        with pytest.raises(ParallelError):
            ProcessPoolBackend(pre, workers=2, chunk_size=0)
        with pytest.raises(ParallelError):
            ProcessPoolBackend(pre, workers=2, broadcast="telepathy")
        with pytest.raises(PipelineError):
            SearchPipeline(SearchOptions(), workers=0)
        with pytest.raises(PipelineError):
            SearchService(SearchOptions(), workers=0)

    def test_default_chunk_size_shape(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(16, 2) == 2
        # All groups covered, no empty chunks.
        pre_groups = 13
        size = default_chunk_size(pre_groups, 4)
        chunks = [
            tuple(range(k, min(k + size, pre_groups)))
            for k in range(0, pre_groups, size)
        ]
        assert sum(len(c) for c in chunks) == pre_groups
        assert all(chunks)

    def test_worker_metrics_recorded(self, db, query):
        metrics = MetricsRegistry()
        with SearchPipeline(
            SearchOptions(), metrics=metrics, workers=2
        ) as pipe:
            pipe.search(query, db)
        snap = metrics.snapshot()
        assert snap["parallel.chunks"] >= 1
        assert snap["parallel.workers"] == 2.0
        assert any(k.startswith("parallel.worker.") for k in snap)
