"""The search pipeline (paper Algorithm 1).

Wires the substrates together: the database is pre-processed into lane
groups (step 2), every group is scored with the inter-task engine
(step 3) — in a plain loop, or on a process pool — and scores are
ranked (step 4).  The paper's OpenMP schedule and its modelled device
time live in :mod:`repro.devices` and :mod:`repro.perfmodel`; this
pipeline computes real alignments and wall-clock GCUPS only.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.engine import as_codes
from ..core.traceback import align_pair
from ..db.database import SequenceDatabase
from ..db.preprocess import PreprocessedDatabase, preprocess_database
from ..exceptions import ParallelError, PipelineError
from ..faults.policy import Deadline
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer
from .api import SearchOptions, unify_options
from .gcups import Stopwatch
from .result import SearchResult
from .scan import ScanContext, rank_hits, score_lane_groups

__all__ = ["SearchPipeline"]


class SearchPipeline:
    """Configurable Smith-Waterman database search.

    Parameters
    ----------
    options:
        A :class:`~repro.search.SearchOptions` carrying the search
        semantics (scoring scheme, lanes, kernel, profile, alphabet,
        fault injector) — the only spelling of search semantics.
    block_cols:
        Cache-blocking tile width forwarded to the engine.
    workers:
        Real OS processes scoring lane-group chunks concurrently
        (:class:`repro.parallel.ProcessPoolBackend`).  ``1`` (default)
        keeps the in-process group loop.  The pool persists across
        searches of the same database, the database is broadcast to it
        once, and merged scores are bit-identical to the serial path;
        if the pool cannot start, the pipeline falls back to in-process
        execution (counted in ``parallel.fallback``).
    parallel_chunk_size:
        Lane groups per worker task; ``None`` lets the backend pick.
        Scores are chunking-invariant.
    parallel_broadcast:
        Database sharing strategy: ``"shm"`` (shared-memory views),
        ``"pickle"`` (init-time broadcast) or ``"auto"``.

    With a fault injector set, per-group score payloads are shipped
    through it with a checksum guard: a corrupted group is detected and
    its run recomputed, so the returned scores always match the
    fault-free run exactly — under either executor, because fault
    decisions are keyed on the global group id, not the worker that
    runs it.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        block_cols: int | None = None,
        metrics: MetricsRegistry | None = None,
        workers: int | None = None,
        parallel_chunk_size: int | None = None,
        parallel_broadcast: str = "auto",
    ) -> None:
        opts = unify_options(options, owner="SearchPipeline")
        self.options = opts
        self.context = ctx = ScanContext.resolve(opts, block_cols=block_cols)
        self.matrix, self.gaps, self.alphabet = (
            ctx.matrix, ctx.gaps, ctx.alphabet
        )
        self.kernel, self.lanes = ctx.kernel, ctx.lanes
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
        # Guards every check-then-create of the lazy parts below: two
        # threads sharing a pipeline must not each build (and one leak)
        # a worker pool or a tiered executor.
        self._lazy_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _tiered_executor(self):
        """The lazily built tiered executor (``mode != "exact"`` only)."""
        with self._lazy_lock:
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
        with self._lazy_lock:
            current = self._backend
            if current is not None and not current.closed and self._backend_key == key:
                return current
            self._backend = self._backend_key = None
            if current is not None:
                current.close()
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

    def _score_parallel(self, q, database, pre, tracer, deadline):
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
                deadline=deadline,
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
        with self._lazy_lock:
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
        deadline: Deadline | None = None,
    ) -> SearchResult:
        """Run Algorithm 1 and return ranked hits.

        With ``traceback=True`` the top ``top_k`` hits get a full
        alignment (paper Section II step 4) — done only for the top
        hits, as real tools do, because traceback needs the O(m*n)
        matrices.  ``top_k=None`` falls back to the pipeline's
        :attr:`SearchOptions.top_k`.  An expired ``deadline`` raises
        :class:`~repro.exceptions.DeadlineExceeded` before the next
        run of lane groups is scored.

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
                traceback=traceback, deadline=deadline,
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
                # Step 3: score every lane group (the paper's OpenMP
                # group loop, here the shared guarded loop in group
                # order, run by run).
                sorted_scores = np.zeros(len(pre.database), dtype=np.int64)
                with tracer.span("pipeline.score") as sp:
                    par = (
                        self._score_parallel(
                            q, database, pre, tracer, deadline
                        )
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
                        (positions, group_scores, sat_total,
                         corrupted_redone, _) = score_lane_groups(
                            self.engine, q, groups, self.matrix, self.gaps,
                            injector=self.injector, deadline=deadline,
                        )
                        sorted_scores[positions] = group_scores
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
        deadline: Deadline | None = None,
    ) -> dict[str, SearchResult]:
        """Run one search per named query (the paper's 20-query sweep).

        The database is sorted and lane-packed **once** and reused for
        every query — preprocessing is query-independent, so N queries
        pay for one :func:`~repro.db.preprocess_database`, not N.  One
        ``deadline`` bounds the whole sweep.
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
                q, database, query_name=name, top_k=top_k,
                preprocessed=pre, deadline=deadline,
            )
            for name, q in queries.items()
        }
