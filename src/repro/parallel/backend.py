"""The process-parallel execution backend: a persistent worker pool.

The paper's throughput comes from keeping many real cores fed with
independent database chunks (SWIPE-style inter-task parallelism).  The
simulated :class:`~repro.devices.openmp.ParallelFor` models that
schedule in virtual time on one OS process; this backend runs it for
real: a :class:`concurrent.futures.ProcessPoolExecutor` whose workers
receive the pre-processed database exactly once (init-time broadcast,
or zero-copy :mod:`multiprocessing.shared_memory` views), then drain
chunked group tasks whose arguments are tiny.

Guarantees:

* **Score identity** — workers run the very same kernels as the serial
  pipeline over the very same lane groups; the merge scatters disjoint
  index ranges, so results are bit-identical whatever the worker count,
  chunk size, or completion order.
* **Fault determinism** — fault-injection units are global group ids
  and decisions are pure functions of ``(seed, unit, attempt)``, so a
  plan misbehaves identically under any placement.
* **Graceful degradation** — pool startup is verified with a ping; any
  failure raises :class:`~repro.exceptions.ParallelError`, which the
  pipeline converts into an in-process fallback.
* **Self-healing** — a worker death mid-search (``BrokenProcessPool``,
  or a hang detected by ``chunk_timeout``) rebuilds the pool,
  re-broadcasts the database if the shared segments died with it, and
  re-submits only the in-flight chunks whose results were lost.  The
  heal budget (``max_heals``) bounds how many rebuilds one pool will
  attempt; a chunk that keeps killing workers is quarantined after
  ``poison_threshold`` losses and reclaimed *inline* in the driver
  (where process faults are never applied), so results — including
  corruption-redo accounting — stay bit-identical to serial.
* **Deadlines** — :meth:`collect` bounds every wait by the caller's
  :class:`~repro.faults.Deadline`; on expiry it cancels the outstanding
  futures and raises :class:`~repro.exceptions.DeadlineExceeded` for
  the streaming layer to convert into a partial result.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

import numpy as np

from ..core.vectorized import lane_group_runs
from ..db.preprocess import PreprocessedDatabase
from ..exceptions import DeadlineExceeded, ParallelError
from ..faults.policy import Deadline
from ..metrics.counters import MetricsRegistry
from ..obs.tracer import get_tracer
from .shared import PackedDatabase, SharedDatabaseBroadcast
from .worker import (
    ChunkResult,
    ChunkTask,
    EngineConfig,
    init_worker,
    ping,
    run_chunk,
    score_chunk,
)

__all__ = ["WorkerStats", "ProcessPoolBackend", "default_chunk_size"]

#: Ceiling on how long pool startup verification may take.
_STARTUP_TIMEOUT_SECONDS = 60.0

#: How long :meth:`close` waits for a terminated worker to reap.
_REAP_TIMEOUT_SECONDS = 5.0


def default_chunk_size(n_groups: int, workers: int) -> int:
    """Groups per task when the caller does not pin a chunk size.

    Four chunks per worker balances scheduling slack (stragglers can be
    absorbed) against per-task dispatch overhead — the same trade the
    paper's dynamic OpenMP schedule makes with its chunk parameter.
    """
    return max(1, -(-n_groups // max(1, workers * 4)))


@dataclass
class WorkerStats:
    """Per-worker accounting aggregated from chunk results."""

    pid: int
    tasks: int = 0
    cells: int = 0
    queue_wait_seconds: float = 0.0
    compute_seconds: float = 0.0


class ProcessPoolBackend:
    """Persistent worker pool bound to one broadcast database.

    Parameters
    ----------
    preprocessed:
        The lane-packed database every worker receives once.  Accepts a
        :class:`PreprocessedDatabase`, an already-flattened
        :class:`PackedDatabase`, or ``None`` for a *streaming* pool:
        workers then hold no resident database and only accept
        ``kind="stream"`` tasks that carry their own sequences (the
        sharded out-of-core scan).
    workers:
        Pool size (real OS processes).
    chunk_size:
        Lane groups per task, rounded up to whole runs (see
        :meth:`group_chunks`); ``None`` picks
        :func:`default_chunk_size`.  The merge is chunking-invariant.
    broadcast:
        ``"shm"`` — shared-memory views, zero copies per worker;
        ``"pickle"`` — the flat arrays ride the worker initializer once;
        ``"auto"`` (default) — try shared memory, fall back to pickle.
    start_method:
        ``multiprocessing`` start method; default prefers ``fork``
        where available (cheapest startup) and falls back to the
        platform default otherwise.
    max_heals:
        How many pool rebuilds (worker deaths or hang timeouts) this
        backend will absorb over its lifetime before giving up with
        :class:`~repro.exceptions.ParallelError`.
    poison_threshold:
        After this many lost results *without an intervening
        completion*, a chunk is declared poison: it is quarantined
        (recorded in :attr:`quarantined`) and reclaimed inline in the
        driver instead of being retried forever.  A heal charges every
        in-flight chunk (the pool cannot tell culprit from bystander),
        but a chunk's loss counter resets once it completes.
    chunk_timeout:
        Hang watchdog for :meth:`collect`: if no in-flight chunk
        completes within this many seconds, the pool is declared hung
        and healed.  ``None`` (default) disables hang detection; set it
        comfortably above the worst-case single-chunk compute time.
    metrics:
        Optional registry receiving ``parallel.*`` counters, queue-wait
        observations, per-worker stats, and ``pool.heal.*`` /
        ``deadline.*`` resilience counters.
    """

    def __init__(
        self,
        preprocessed: PreprocessedDatabase | PackedDatabase | None,
        *,
        workers: int,
        chunk_size: int | None = None,
        broadcast: str = "auto",
        start_method: str | None = None,
        max_heals: int = 8,
        poison_threshold: int = 3,
        chunk_timeout: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ParallelError(f"worker count must be positive, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ParallelError(
                f"chunk size must be positive, got {chunk_size}"
            )
        if broadcast not in ("auto", "shm", "pickle"):
            raise ParallelError(
                f"broadcast must be 'auto', 'shm' or 'pickle', got {broadcast!r}"
            )
        if max_heals < 0:
            raise ParallelError(
                f"heal budget must be non-negative, got {max_heals}"
            )
        if poison_threshold < 1:
            raise ParallelError(
                f"poison threshold must be >= 1, got {poison_threshold}"
            )
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ParallelError(
                f"chunk timeout must be positive, got {chunk_timeout}"
            )
        if preprocessed is None:
            packed = None
        elif isinstance(preprocessed, PackedDatabase):
            packed = preprocessed
        else:
            packed = PackedDatabase.from_preprocessed(preprocessed)
        self.packed = packed
        self.workers = workers
        self.chunk_size = chunk_size
        self.max_heals = max_heals
        self.poison_threshold = poison_threshold
        self.chunk_timeout = chunk_timeout
        self.metrics = metrics
        self.worker_stats: dict[int, WorkerStats] = {}
        self.heals = 0
        self.quarantined: list[int] = []
        self._broadcast_pref = broadcast
        self._pool: ProcessPoolExecutor | None = None
        self._broadcast_owner: SharedDatabaseBroadcast | None = None
        self._closed = False
        self._generation = 0
        self._inflight: dict = {}          # future -> (task, generation)
        self._chunk_failures: dict[int, int] = {}  # chunk_id -> lost results
        self._driver_engines: dict = {}    # engine cache for inline reclaim

        self._payload, self.broadcast_mode = self._build_payload(
            packed, broadcast
        )
        try:
            self._ctx = self._context(start_method)
            self._pool = self._spawn_pool()
        except ParallelError:
            self.close()
            raise
        except Exception as exc:
            self.close()
            raise ParallelError(
                f"worker pool failed to start ({type(exc).__name__}: {exc})"
            ) from exc
        if self.metrics is not None:
            self.metrics.set_gauge("parallel.workers", float(workers))
            if packed is not None:
                self.metrics.increment("parallel.broadcasts")
                self.metrics.set_gauge(
                    "parallel.broadcast.bytes", float(packed.nbytes())
                )

    # ------------------------------------------------------------------
    @staticmethod
    def _context(start_method: str | None):
        if start_method is not None:
            return multiprocessing.get_context(start_method)
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )

    def _build_payload(
        self, packed: PackedDatabase | None, broadcast: str
    ) -> tuple[tuple[str, object], str]:
        if packed is None:
            return ("none", None), "none"
        if broadcast in ("auto", "shm"):
            try:
                self._broadcast_owner = SharedDatabaseBroadcast(packed)
                return ("shm", self._broadcast_owner.handle()), "shm"
            except Exception:
                if broadcast == "shm":
                    raise
                self._broadcast_owner = None
        return ("pickle", packed), "pickle"

    def _spawn_pool(self) -> ProcessPoolExecutor:
        """Start a pool on the current payload; ping-verify it."""
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._ctx,
            initializer=init_worker,
            initargs=(self._payload,),
        )
        # Force worker startup now: a broken initializer (or an
        # unpicklable payload) must surface here — where the caller
        # can fall back to in-process execution — not mid-search.
        try:
            pool.submit(ping).result(timeout=_STARTUP_TIMEOUT_SECONDS)
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        return pool

    def _terminate_pool(self, pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on hung or dead workers.

        There is no public API for the executor's worker handles, so
        termination walks the private ``_processes`` map.  If a future
        CPython renames it, fall back to a plain non-blocking shutdown
        and record the degradation (``pool.terminate.opaque`` counter
        and tracer event) — hung workers may then outlive the pool, but
        never silently.
        """
        proc_map = getattr(pool, "_processes", None)
        if proc_map is None:
            if self.metrics is not None:
                self.metrics.increment("pool.terminate.opaque")
            get_tracer().event(
                "pool.terminate.opaque",
                reason="ProcessPoolExecutor._processes is unavailable",
            )
            pool.shutdown(wait=False, cancel_futures=True)
            return
        procs = [p for p in proc_map.values() if p]
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=_REAP_TIMEOUT_SECONDS)

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def _heal(self, reason: str) -> None:
        """Replace the broken pool with a fresh, ping-verified one.

        Only the pool is rebuilt; results already harvested and the
        broadcast stay.  If the fresh pool cannot start — the shared
        segments may have died with the workers — the broadcast is
        rebuilt once and the spawn retried ("re-broadcast if needed").
        Raises :class:`~repro.exceptions.ParallelError` once the heal
        budget is spent.
        """
        self.heals += 1
        if self.metrics is not None:
            self.metrics.increment("pool.heal.count")
        get_tracer().event("pool.heal", reason=reason, heal=self.heals)
        if self.heals > self.max_heals:
            raise ParallelError(
                f"worker pool heal budget exhausted after "
                f"{self.max_heals} heals (last reason: {reason})"
            )
        old, self._pool = self._pool, None
        if old is not None:
            self._terminate_pool(old)
        # Futures of the dead pool can no longer produce results.
        self._generation += 1
        try:
            self._pool = self._spawn_pool()
        except Exception:
            owner, self._broadcast_owner = self._broadcast_owner, None
            if owner is not None:
                try:
                    owner.close()
                except Exception:
                    pass
            self._payload, self.broadcast_mode = self._build_payload(
                self.packed, self._broadcast_pref
            )
            if self.metrics is not None:
                self.metrics.increment("pool.heal.rebroadcasts")
            try:
                self._pool = self._spawn_pool()
            except Exception as exc:
                raise ParallelError(
                    f"worker pool failed to heal after {reason} "
                    f"({type(exc).__name__}: {exc})"
                ) from exc

    def _redo(self, task: ChunkTask):
        """Re-run a chunk whose result was lost with its worker.

        Returns a fresh future — or, once the chunk has crossed
        ``poison_threshold`` losses, a :class:`ChunkResult` computed
        *inline* in the driver: a poison chunk keeps killing whatever
        worker touches it, so the only safe executor is the one process
        whose fault hooks never fire.

        Attribution caveat: a heal loses *every* in-flight chunk, so a
        hang or worker death charges innocent chunks that merely shared
        the pool with the culprit.  The counter is therefore reset the
        moment a chunk completes (see :meth:`collect`) — only a chunk
        that keeps failing without ever completing accumulates toward
        quarantine.
        """
        failures = self._chunk_failures.get(task.chunk_id, 0) + 1
        self._chunk_failures[task.chunk_id] = failures
        if self.metrics is not None:
            self.metrics.increment("pool.heal.resubmitted")
        if failures >= self.poison_threshold:
            self.quarantined.append(task.chunk_id)
            if self.metrics is not None:
                self.metrics.increment("pool.heal.quarantined")
            get_tracer().event(
                "pool.quarantine", chunk=task.chunk_id, failures=failures
            )
            if task.deadline is not None:
                task.deadline.check(f"quarantined chunk {task.chunk_id}")
            return run_chunk(
                replace(task, submitted_at=time.time()),
                db=self.packed,
                engines=self._driver_engines,
                pid=os.getpid(),
            )
        return self._submit_one(replace(task, attempt=task.attempt + 1))

    def _cancel_pending(self, pending) -> None:
        for fut in pending:
            fut.cancel()
            self._inflight.pop(fut, None)

    def cancel(self, futures) -> None:
        """Abandon outstanding futures (deadline expiry, aborted scan)."""
        self._cancel_pending(list(futures))

    # ------------------------------------------------------------------
    def _require_db(self) -> PackedDatabase:
        if self.packed is None:
            raise ParallelError(
                "this pool has no broadcast database (it was started for "
                "streaming tasks only)"
            )
        return self.packed

    @property
    def n_groups(self) -> int:
        """Lane groups available in the broadcast database."""
        return self._require_db().n_groups

    def group_chunks(self, chunk_size: int | None = None) -> list[tuple[int, ...]]:
        """Deterministic chunking of the group ids into tasks.

        A task takes whole runs (:func:`~repro.core.vectorized.lane_group_runs`)
        until it holds at least ``chunk_size`` groups, so no run is ever
        split and a pooled scan sweeps the serial scan's plans.
        """
        packed = self._require_db()
        size = chunk_size or self.chunk_size or default_chunk_size(
            self.n_groups, self.workers
        )
        residues = np.add.reduceat(packed.lengths, packed.lane_offsets[:-1])
        chunks: list[tuple[int, ...]] = []
        chunk: list[int] = []
        for run in lane_group_runs(residues.tolist()):
            chunk.extend(run)
            if len(chunk) >= size:
                chunks.append(tuple(chunk))
                chunk = []
        if chunk:
            chunks.append(tuple(chunk))
        return chunks

    def _submit_one(self, task: ChunkTask):
        """Submit one task, healing the pool if submission finds it dead."""
        task = replace(task, submitted_at=time.time())
        while True:
            if self._pool is None:
                raise ParallelError("worker pool is closed")
            try:
                fut = self._pool.submit(score_chunk, task)
            except BrokenProcessPool:
                self._heal("broken pool on submit")
                continue
            except ParallelError:
                raise
            except Exception as exc:
                raise ParallelError(
                    f"parallel task submission failed "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
            self._inflight[fut] = (task, self._generation)
            return fut

    def submit_tasks_async(self, tasks: list[ChunkTask]):
        """Enqueue chunk tasks; return their futures without waiting.

        The driver of the sharded out-of-core scan uses this to keep
        the workers busy on shard *k* while it reads and encodes shard
        *k + 1* (double buffering); pass the futures to
        :meth:`collect` to harvest results.
        """
        if self._pool is None:
            raise ParallelError("worker pool is closed")
        return [self._submit_one(task) for task in tasks]

    def collect(
        self, futures, *, deadline: Deadline | None = None
    ) -> list[ChunkResult]:
        """Wait for futures from :meth:`submit_tasks_async`, in order.

        This is the resilience core: worker deaths
        (``BrokenProcessPool``) trigger a heal and the re-submission of
        exactly the chunks whose results were lost; a silent pool
        (nothing completes within ``chunk_timeout``) is declared hung
        and healed the same way; a chunk that keeps killing workers is
        quarantined and reclaimed inline.  An expired ``deadline``
        cancels everything still outstanding and raises
        :class:`~repro.exceptions.DeadlineExceeded`.
        """
        order: list[int] = []
        pending = set()
        for fut in futures:
            entry = self._inflight.get(fut)
            if entry is None:
                raise ParallelError(
                    "collect() was passed a future this pool does not own"
                )
            order.append(entry[0].chunk_id)
            pending.add(fut)
        results: dict[int, ChunkResult] = {}

        def absorb(redone) -> None:
            # _redo yields either a replacement future or an inline
            # result for a quarantined chunk.
            if isinstance(redone, ChunkResult):
                results[redone.chunk_id] = redone
            else:
                pending.add(redone)

        try:
            while pending:
                if deadline is not None:
                    deadline.check("parallel chunk collection")
                timeout = self.chunk_timeout
                if deadline is not None:
                    remaining = deadline.remaining()
                    timeout = (
                        remaining if timeout is None
                        else min(timeout, remaining)
                    )
                t0 = time.perf_counter()
                done, _ = futures_wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    waited = time.perf_counter() - t0
                    if (
                        self.chunk_timeout is not None
                        and waited >= self.chunk_timeout - 1e-3
                        and (deadline is None or not deadline.expired)
                    ):
                        # Nothing finished inside the watchdog window:
                        # the pool is hung.  Everything in flight is
                        # lost; heal once and redo the lot.
                        lost = [
                            self._inflight.pop(f)[0]
                            for f in pending if f in self._inflight
                        ]
                        for fut in pending:
                            fut.cancel()
                        pending.clear()
                        self._heal("chunk timeout (hung worker)")
                        for task in lost:
                            absorb(self._redo(task))
                    continue
                for fut in done:
                    pending.discard(fut)
                    task, generation = self._inflight.pop(
                        fut, (None, None)
                    )
                    try:
                        res = fut.result()
                    except BrokenProcessPool:
                        if generation == self._generation:
                            self._heal("worker death")
                        if task is not None:
                            absorb(self._redo(task))
                    else:
                        results[res.chunk_id] = res
                        # A completed chunk is proven innocent: losses
                        # it was charged while co-resident with a hung
                        # or crashing chunk no longer count toward
                        # quarantine.
                        self._chunk_failures.pop(res.chunk_id, None)
        except DeadlineExceeded:
            self._cancel_pending(pending)
            if self.metrics is not None:
                self.metrics.increment("deadline.pool.expired")
            get_tracer().event(
                "deadline.expired", where="pool.collect",
                outstanding=len(pending),
            )
            raise
        except ParallelError:
            self._cancel_pending(pending)
            raise
        except Exception as exc:
            self._cancel_pending(pending)
            raise ParallelError(
                f"parallel chunk execution failed "
                f"({type(exc).__name__}: {exc})"
            ) from exc

        ordered = [results[chunk_id] for chunk_id in order]
        self._observe(ordered)
        return ordered

    def submit_tasks(
        self, tasks: list[ChunkTask], *, deadline: Deadline | None = None
    ) -> list[ChunkResult]:
        """Run chunk tasks on the pool; results in task order.

        The merge downstream scatters disjoint positions, so result
        order does not affect scores — task order is kept purely so the
        accounting (metrics, traces) is reproducible.
        """
        return self.collect(self.submit_tasks_async(tasks), deadline=deadline)

    def score_groups(
        self,
        query: np.ndarray,
        matrix,
        gaps,
        engine: EngineConfig,
        *,
        plan=None,
        chunk_size: int | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[np.ndarray, int, int, list[ChunkResult]]:
        """Score every broadcast lane group; merge deterministically.

        Returns ``(sorted_scores, saturated, redone, chunk_results)``
        where ``sorted_scores`` follows the sorted-database order (the
        same array the serial group loop fills in).
        """
        packed = self._require_db()
        tasks = [
            ChunkTask(
                chunk_id=k,
                kind="groups",
                query=query,
                matrix=matrix,
                gaps=gaps,
                engine=engine,
                group_ids=chunk,
                plan=plan,
                deadline=deadline,
            )
            for k, chunk in enumerate(self.group_chunks(chunk_size))
        ]
        results = self.submit_tasks(tasks, deadline=deadline)
        scores = np.zeros(packed.n_sequences, dtype=np.int64)
        saturated = redone = 0
        for res in results:
            scores[res.positions] = res.scores
            saturated += res.saturated
            redone += res.redone
        return scores, saturated, redone, results

    def score_subset(
        self,
        query: np.ndarray,
        positions: np.ndarray,
        matrix,
        gaps,
        engine: EngineConfig,
        *,
        chunk_id: int = 0,
        plan=None,
        fault_unit_base: int = 0,
    ) -> ChunkResult:
        """Score an arbitrary subset of sequences as one pool task.

        ``positions`` are sorted-database positions; the worker re-packs
        the subset into lane groups at ``engine.lanes`` exactly like a
        standalone pipeline over that sub-database would.
        """
        task = ChunkTask(
            chunk_id=chunk_id,
            kind="subset",
            query=query,
            matrix=matrix,
            gaps=gaps,
            engine=engine,
            positions=tuple(int(p) for p in positions),
            plan=plan,
            fault_unit_base=fault_unit_base,
        )
        return self.submit_tasks([task])[0]

    def submit_subsets(self, tasks: list[ChunkTask]) -> list[ChunkResult]:
        """Run many prepared subset tasks concurrently (queue draining)."""
        return self.submit_tasks(tasks)

    # ------------------------------------------------------------------
    def _observe(self, results: list[ChunkResult]) -> None:
        for res in results:
            stats = self.worker_stats.get(res.pid)
            if stats is None:
                stats = self.worker_stats[res.pid] = WorkerStats(res.pid)
            stats.tasks += 1
            stats.cells += res.cells
            stats.queue_wait_seconds += res.queue_wait_seconds
            stats.compute_seconds += res.compute_seconds
        if self.metrics is None:
            return
        self.metrics.increment("parallel.chunks", len(results))
        self.metrics.increment(
            "parallel.cells", sum(r.cells for r in results)
        )
        for res in results:
            self.metrics.observe(
                "parallel.chunk.queue_wait.seconds", res.queue_wait_seconds
            )
            self.metrics.observe(
                "parallel.chunk.compute.seconds", res.compute_seconds
            )
        # Per-worker rollups under stable slot names (sorted by pid so
        # repeated renders are comparable across runs).
        for slot, pid in enumerate(sorted(self.worker_stats)):
            stats = self.worker_stats[pid]
            self.metrics.set_gauge(f"parallel.worker.{slot}.tasks", stats.tasks)
            self.metrics.set_gauge(f"parallel.worker.{slot}.cells", stats.cells)
            self.metrics.set_gauge(
                f"parallel.worker.{slot}.queue_wait.seconds",
                stats.queue_wait_seconds,
            )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and release the broadcast (idempotent).

        Teardown terminates rather than joins the workers: results are
        always harvested before close, and a pool being closed because
        a worker hung must not block on that worker forever.
        """
        self._closed = True
        self._inflight.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            self._terminate_pool(pool)
        owner, self._broadcast_owner = self._broadcast_owner, None
        if owner is not None:
            owner.close()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran."""
        return self._closed

    def __enter__(self) -> "ProcessPoolBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        groups = self.packed.n_groups if self.packed is not None else "none"
        return (
            f"<ProcessPoolBackend workers={self.workers} "
            f"groups={groups} broadcast={self.broadcast_mode!r} "
            f"{state}>"
        )
