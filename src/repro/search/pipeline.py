"""The search pipeline (paper Algorithm 1, hybrid variant Algorithm 2).

Wires the substrates together: the database is pre-processed into lane
groups (step 2), the group loop runs under a simulated OpenMP schedule
while computing *real* alignments with the inter-task engine (step 3),
and scores are ranked (step 4).  Attaching a device model adds modelled
wall time, so the same pipeline object produces both correctness results
and the paper's GCUPS accounting.
"""

from __future__ import annotations

import numpy as np

from ..core.engine import as_codes
from ..core.traceback import align_pair
from ..db.database import SequenceDatabase
from ..db.preprocess import PreprocessedDatabase, preprocess_database
from ..devices.openmp import ParallelFor, Schedule
from ..exceptions import ParallelError, PipelineError
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer
from ..perfmodel.model import DevicePerformanceModel, RunConfig, Workload
from .api import SearchOptions, unify_options
from .gcups import Stopwatch
from .result import SearchResult
from .scan import ScanContext, guarded_transmit, rank_hits

__all__ = ["SearchPipeline"]


class SearchPipeline:
    """Configurable Smith-Waterman database search.

    Parameters
    ----------
    options:
        A :class:`~repro.search.SearchOptions` carrying the search
        semantics (scoring scheme, lanes, profile, schedule, threads,
        alphabet, fault injector) — the only spelling of search
        semantics.  The removed per-class keywords (``matrix``,
        ``gaps``, ``lanes``, ...) raise a ``TypeError`` naming the
        migration.
    device_model:
        Optional :class:`DevicePerformanceModel`; adds modelled GCUPS.
    block_cols:
        Cache-blocking tile width forwarded to the engine.
    workers:
        Real OS processes scoring lane-group chunks concurrently
        (:class:`repro.parallel.ProcessPoolBackend`).  ``1`` (default)
        keeps the in-process group loop under the simulated OpenMP
        schedule.  The pool persists across searches of the same
        database, the database is broadcast to it once, and merged
        scores are bit-identical to the serial path; if the pool cannot
        start, the pipeline falls back to in-process execution (counted
        in ``parallel.fallback``).
    parallel_chunk_size:
        Lane groups per worker task; ``None`` lets the backend pick.
        Scores are chunking-invariant.
    parallel_broadcast:
        Database sharing strategy: ``"shm"`` (shared-memory views),
        ``"pickle"`` (init-time broadcast) or ``"auto"``.

    With a fault injector set, per-group score payloads are shipped
    through it with a checksum guard: a corrupted group is detected and
    recomputed, so the returned scores always match the fault-free run
    exactly — under either executor, because fault decisions are keyed
    on the global group id, not the worker that runs it.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        device_model: DevicePerformanceModel | None = None,
        block_cols: int | None = None,
        metrics: MetricsRegistry | None = None,
        workers: int | None = None,
        parallel_chunk_size: int | None = None,
        parallel_broadcast: str = "auto",
        **legacy,
    ) -> None:
        opts = unify_options(options, legacy, owner="SearchPipeline")
        self.options = opts
        self.context = ctx = ScanContext.resolve(opts, block_cols=block_cols)
        self.matrix, self.gaps, self.alphabet = (
            ctx.matrix, ctx.gaps, ctx.alphabet
        )
        self.kernel, self.lanes = ctx.kernel, ctx.lanes
        self.schedule = Schedule.parse(opts.schedule)
        self.threads = opts.threads
        self.device_model = device_model
        self.injector = opts.injector
        self.metrics = metrics if metrics is not None else METRICS
        self.engine = ctx.make_engine()
        if workers is not None and int(workers) < 1:
            raise PipelineError(
                f"worker count must be positive, got {workers}"
            )
        self.workers = int(workers) if workers is not None else 1
        self.parallel_chunk_size = parallel_chunk_size
        self.parallel_broadcast = parallel_broadcast
        self._backend = None
        self._backend_key: tuple | None = None
        self._tiered = None

    # ------------------------------------------------------------------
    def _tiered_executor(self):
        """The lazily built tiered executor (``mode != "exact"`` only)."""
        if self._tiered is None:
            from .tiered import TieredSearch

            self._tiered = TieredSearch(self.options, metrics=self.metrics)
        return self._tiered

    # ------------------------------------------------------------------
    def _ensure_backend(self, database: SequenceDatabase, pre):
        """The worker pool bound to ``database``, (re)created on change.

        The pool — and its one-time database broadcast — persists across
        searches; a different database (or lane width) tears it down and
        broadcasts afresh.
        """
        from ..parallel.backend import ProcessPoolBackend

        key = (database.fingerprint(), self.lanes)
        if (
            self._backend is not None
            and not self._backend.closed
            and self._backend_key == key
        ):
            return self._backend
        self.close()
        self._backend = ProcessPoolBackend(
            pre,
            workers=self.workers,
            chunk_size=self.parallel_chunk_size,
            broadcast=self.parallel_broadcast,
            metrics=self.metrics,
        )
        self._backend_key = key
        return self._backend

    def _note_fallback(self, tracer, exc: Exception) -> None:
        self.metrics.increment("parallel.fallback")
        tracer.event(
            "parallel.fallback", reason=f"{type(exc).__name__}: {exc}"
        )

    def _score_parallel(self, q, database, pre, tracer):
        """Score every group on the process pool.

        Returns ``(sorted_scores, saturated, redone, chunk_results)`` or
        ``None`` when the pool cannot run — the caller then falls back
        to the in-process group loop, which computes identical scores.
        """
        try:
            backend = self._ensure_backend(database, pre)
        except ParallelError as exc:
            self._note_fallback(tracer, exc)
            return None
        plan = self.injector.plan if self.injector is not None else None
        try:
            # DeadlineExceeded deliberately propagates: an expired
            # deadline must never trigger the in-process fallback (it
            # would just blow the deadline further).
            scores, saturated, redone, results = backend.score_groups(
                q, self.matrix, self.gaps, self.context.engine_config,
                plan=plan, chunk_size=self.parallel_chunk_size,
                deadline=self.options.deadline,
            )
        except ParallelError as exc:
            self._note_fallback(tracer, exc)
            return None
        for res in results:
            with tracer.span("parallel.chunk") as cp:
                if cp:
                    cp.set_attributes(
                        chunk=res.chunk_id,
                        worker_pid=res.pid,
                        sequences=int(res.positions.shape[0]),
                        cells=res.cells,
                        queue_wait_seconds=round(res.queue_wait_seconds, 6),
                        compute_seconds=round(res.compute_seconds, 6),
                    )
        return scores, saturated, redone, results

    def close(self) -> None:
        """Shut down the parallel worker pool, if one is running.

        Safe to call repeatedly; the pipeline keeps working afterwards
        (a later ``workers > 1`` search simply starts a fresh pool).
        """
        backend, self._backend = self._backend, None
        self._backend_key = None
        if backend is not None:
            backend.close()

    def __enter__(self) -> "SearchPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    def search(
        self,
        query: str | np.ndarray,
        database: SequenceDatabase,
        *,
        query_name: str = "query",
        top_k: int | None = None,
        traceback: bool = False,
        preprocessed: PreprocessedDatabase | None = None,
    ) -> SearchResult:
        """Run Algorithm 1 and return ranked hits.

        With ``traceback=True`` the top ``top_k`` hits get a full
        alignment (paper Section II step 4) — done only for the top
        hits, as real tools do, because traceback needs the O(m*n)
        matrices.  ``top_k=None`` falls back to the pipeline's
        :attr:`SearchOptions.top_k`.

        ``preprocessed`` reuses an existing sort/lane-pack of this exact
        ``database`` at this pipeline's lane width (from
        :meth:`search_many` or :class:`repro.service.PreprocessCache`),
        skipping step 2; scores are identical either way.
        """
        if len(database) == 0:
            raise PipelineError("cannot search an empty database")
        if self.options.mode != "exact":
            # The tiered path neither sorts nor lane-packs the whole
            # database, so a handed-in preprocess is simply unused.
            return self._tiered_executor().search(
                query, database, query_name=query_name, top_k=top_k,
                traceback=traceback,
            )
        if top_k is None:
            top_k = self.options.top_k
        q = as_codes(query, self.alphabet)
        if preprocessed is not None:
            if preprocessed.lanes != self.lanes:
                raise PipelineError(
                    f"preprocessed database was packed at {preprocessed.lanes} "
                    f"lanes but this pipeline runs {self.lanes}"
                )
            if len(preprocessed.database) != len(database):
                raise PipelineError(
                    "preprocessed database does not match the search database "
                    f"({len(preprocessed.database)} vs {len(database)} entries)"
                )
            # Same shape is not same content: a stale preprocess of a
            # different database would silently score the wrong
            # sequences.  The source fingerprint pins the original
            # (pre-sort) database this preprocess came from.
            src_fp = preprocessed.source_fingerprint
            if src_fp is not None and src_fp != database.fingerprint():
                raise PipelineError(
                    "preprocessed database content does not match the "
                    "search database (fingerprint mismatch) — it was "
                    "built from a different database"
                )

        tracer = get_tracer()
        with tracer.span("pipeline.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, query_length=len(q),
                    database=database.name, sequences=len(database),
                    lanes=self.lanes,
                )
            watch = Stopwatch()
            with watch:
                # Step 2: sort + lane packing (skipped when a matching
                # pre-processed database was handed in).
                with tracer.span("pipeline.preprocess") as sp:
                    pre = (
                        preprocessed if preprocessed is not None
                        else preprocess_database(database, lanes=self.lanes)
                    )
                    if sp:
                        sp.set_attributes(
                            groups=len(pre.groups),
                            reused=preprocessed is not None,
                        )
                groups = pre.groups
                # Step 3: the parallel group loop.  ParallelFor simulates
                # the OpenMP schedule (and its makespan) while the work
                # callback computes real scores.
                sorted_scores = np.zeros(len(pre.database), dtype=np.int64)
                sat_counts: dict[int, int] = {}
                corrupted_redone = 0
                prepared = self.engine._prepare(q, self.matrix)

                def compute_group(g: int) -> np.ndarray:
                    # The engine redoes saturated lanes exactly; the
                    # count is assigned, not added, so a corruption
                    # redo of the group does not count them twice.
                    scores, sat = self.engine.score_group(
                        q, groups[g], self.matrix, self.gaps,
                        _prepared=prepared,
                    )
                    sat_counts[g] = len(sat)
                    return scores

                deadline = self.options.deadline

                def work(g: int) -> None:
                    nonlocal corrupted_redone
                    if deadline is not None:
                        deadline.check(f"group {g}")
                    scores, redos = guarded_transmit(
                        self.injector, g, lambda: compute_group(g)
                    )
                    corrupted_redone += redos
                    sorted_scores[groups[g].indices] = scores

                with tracer.span("pipeline.score") as sp:
                    par = (
                        self._score_parallel(q, database, pre, tracer)
                        if self.workers > 1
                        else None
                    )
                    if par is not None:
                        par_scores, sat_total, corrupted_redone, chunks = par
                        sorted_scores[:] = par_scores
                        if sp:
                            sp.set_attributes(
                                groups=len(groups),
                                executor="process",
                                workers=self.workers,
                                chunks=len(chunks),
                                saturated_recomputed=sat_total,
                                corrupted_redone=corrupted_redone,
                            )
                    else:
                        costs = pre.group_cells(len(q)).astype(np.float64)
                        ParallelFor(self.threads, self.schedule).run(
                            costs, work
                        )
                        sat_total = sum(sat_counts.values())
                        if sp:
                            sp.set_attributes(
                                groups=len(groups),
                                executor="inprocess",
                                saturated_recomputed=sat_total,
                                corrupted_redone=corrupted_redone,
                            )

                with tracer.span("pipeline.rank"):
                    # Scatter back to the caller's original database order.
                    order = database.length_order()
                    scores = np.zeros(len(database), dtype=np.int64)
                    scores[order] = sorted_scores
                    # Step 4: rank descending (stable -> ties by database
                    # order); traceback only for the returned hits.
                    hits = rank_hits(
                        scores, database, top_k,
                        align=(lambda i: align_pair(
                            q, database.sequences[i], self.matrix,
                            self.gaps, alphabet=self.alphabet,
                        )) if traceback else None,
                    )

            cells = len(q) * database.total_residues

            modeled = None
            if self.device_model is not None:
                # The model emulates the device's SIMD units: its lane
                # count is capped at the device's native vector width.
                # Software lane widths above that (the numpy kernel
                # defaults to 128 for array efficiency) are a host-side
                # batching choice, not extra modeled hardware.
                wl = Workload.from_lengths(
                    database.lengths,
                    min(self.lanes, self.device_model.spec.lanes32),
                )
                cfg = RunConfig(
                    vectorization="intrinsic",
                    profile=self.engine.profile.value,
                    threads=min(
                        self.threads, self.device_model.spec.max_threads
                    ),
                    schedule=self.schedule,
                    blocking=self.engine.block_cols is not None,
                )
                modeled = self.device_model.run_seconds(wl, len(q), cfg)

            metrics = self.metrics
            metrics.increment("pipeline.searches")
            metrics.observe("pipeline.search.seconds", watch.seconds)
            if watch.seconds > 0:
                metrics.set_gauge(
                    "pipeline.last.gcups", cells / watch.seconds / 1e9
                )
            if sat_total:
                metrics.increment(
                    "pipeline.saturated.recomputed", sat_total
                )
            if corrupted_redone:
                metrics.increment("pipeline.corrupt.redone", corrupted_redone)

            result = SearchResult(
                query_name=query_name,
                query_length=len(q),
                database_name=database.name,
                scores=scores,
                hits=hits,
                cells=cells,
                wall_seconds=watch.seconds,
                modeled_seconds=modeled,
                saturated_recomputed=sat_total,
                corrupted_redone=corrupted_redone,
            )
            if root:
                root.set_attribute("best_score", result.best_score())
                result.trace = {"span_id": root.span_id, "span": root.name}
            return result

    # ------------------------------------------------------------------
    def search_many(
        self,
        queries: dict[str, np.ndarray],
        database: SequenceDatabase,
        *,
        top_k: int | None = None,
    ) -> dict[str, SearchResult]:
        """Run one search per named query (the paper's 20-query sweep).

        The database is sorted and lane-packed **once** and reused for
        every query — preprocessing is query-independent, so N queries
        pay for one :func:`~repro.db.preprocess_database`, not N.
        """
        if not queries:
            return {}
        # The tiered path never consumes a lane-pack; skip the build.
        pre = (
            preprocess_database(database, lanes=self.lanes)
            if self.options.mode == "exact" else None
        )
        return {
            name: self.search(
                q, database, query_name=name, top_k=top_k, preprocessed=pre
            )
            for name, q in queries.items()
        }
