"""Worker-process side of the process-parallel backend.

Everything in this module runs inside pool workers.  The database is
broadcast exactly once per worker through :func:`init_worker` (either a
pickled :class:`~repro.parallel.shared.PackedDatabase` or a
shared-memory descriptor that is attached without copying); tasks then
carry only the per-search state — query codes, scoring scheme, engine
configuration, the chunk's group ids — which is tiny next to the
database payload.

The scoring code path is deliberately the same one the serial pipeline
runs: the engine's ``score_group`` per lane group (which redoes any
saturated lanes exactly), and the checksum guard
(:func:`repro.search.scan.guarded_transmit`) when a fault plan is
active.  Fault decisions are a pure function of
``(plan.seed, unit, attempt)`` with ``unit`` being the *global* group
index, so a fault fires (or not) identically whichever worker — or the
serial pipeline itself — executes the group.

Process-level faults (``worker-kill`` / ``worker-hang``) are applied in
:func:`score_chunk` — the pool entry point — *before* any scoring, and
never inside :func:`run_chunk`, the pure scoring body.  The driver runs
:func:`run_chunk` inline to reclaim quarantined poison chunks, so the
inline path replays corruption redo accounting exactly while being
structurally incapable of killing the driver process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

from ..core.intertask import InterTaskEngine, LaneGroup, build_lane_groups
from ..core.vectorized import make_intertask_engine
from ..exceptions import ParallelError, ReproError
from ..faults.injection import FaultInjector, FaultKind, FaultPlan
from ..faults.policy import Deadline
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from .shared import PackedDatabase, attach_shared_database

__all__ = [
    "EngineConfig",
    "ChunkTask",
    "ChunkResult",
    "init_worker",
    "run_chunk",
    "score_chunk",
    "ping",
]


@dataclass(frozen=True)
class EngineConfig:
    """Inter-task engine construction parameters, picklable.

    ``kernel`` selects the scoring implementation ("python" for the
    SIMD-emulating :class:`InterTaskEngine`, "numpy" for the
    array-vectorised :class:`~repro.core.vectorized.VectorizedEngine`);
    scores are bit-identical either way.
    """

    lanes: int
    profile: str = "sequence"
    block_cols: int | None = None
    kernel: str = "python"

    def build(self, alphabet) -> InterTaskEngine:
        """The engine this configuration describes."""
        return make_intertask_engine(
            self.kernel,
            alphabet=alphabet,
            lanes=self.lanes,
            profile=self.profile,
            block_cols=self.block_cols,
        )


@dataclass(frozen=True)
class ChunkTask:
    """One unit of pool work: a slice of the database to score.

    ``kind="groups"`` scores broadcast lane groups ``group_ids`` as-is
    (the plain pipeline's chunking).  ``kind="subset"`` extracts the
    sequences at ``positions`` (sorted-database order) and packs them
    into fresh lane groups at ``engine.lanes`` — the work-queue
    scheduler's arbitrarily-shaped chunks.  ``kind="stream"`` carries
    its own encoded sequences ``seqs`` (one streaming chunk of an
    out-of-core scan — no broadcast database needed) starting at global
    record index ``base_index``; the worker scores it exactly like the
    serial :class:`~repro.search.StreamingSearch` chunk loop does.
    ``fault_unit_base`` offsets the fault-injection unit ids so a chunk
    replays the exact per-unit decisions of its serial counterpart.

    ``attempt`` counts pool *re-submissions* after a lost result (worker
    death, hang heal) — it keys the process-fault draw only, never the
    corruption stream, so redo accounting is identical however many
    times a chunk had to be resent.  ``deadline`` (when set) is checked
    by the worker before scoring starts.
    """

    chunk_id: int
    kind: str
    query: np.ndarray
    matrix: SubstitutionMatrix
    gaps: GapModel
    engine: EngineConfig
    group_ids: tuple[int, ...] = ()
    positions: tuple[int, ...] = ()
    seqs: tuple[np.ndarray, ...] = ()
    base_index: int = 0
    plan: FaultPlan | None = None
    fault_unit_base: int = 0
    submitted_at: float = 0.0
    attempt: int = 0
    deadline: Deadline | None = None


@dataclass(frozen=True)
class ChunkResult:
    """What one chunk sends back: scores plus worker accounting."""

    chunk_id: int
    positions: np.ndarray   # sorted-database positions, parallel to scores
    scores: np.ndarray
    saturated: int
    redone: int
    cells: int
    pid: int
    queue_wait_seconds: float
    compute_seconds: float


#: Per-worker state installed by :func:`init_worker`.
_STATE: dict = {}


def init_worker(payload: tuple[str, object]) -> None:
    """Pool initializer: receive the database broadcast, once.

    ``payload`` is ``("pickle", PackedDatabase)`` — the flat arrays
    arrive pickled with the initializer — or ``("shm", handle)`` — the
    worker maps the owner's shared-memory segments with zero copy — or
    ``("none", None)`` for a streaming pool whose tasks carry their own
    sequences (``kind="stream"``).
    """
    mode, data = payload
    if mode == "shm":
        db = attach_shared_database(data)  # type: ignore[arg-type]
    elif mode == "pickle":
        db = data
        if not isinstance(db, PackedDatabase):
            raise ParallelError(
                f"broadcast payload is {type(data).__name__}, "
                "expected PackedDatabase"
            )
    elif mode == "none":
        db = None
    else:
        raise ParallelError(f"unknown broadcast mode {mode!r}")
    _STATE.clear()
    _STATE["db"] = db
    _STATE["engines"] = {}
    _STATE["pid"] = os.getpid()


def ping() -> int:
    """Liveness probe: confirms the worker initialised, returns its pid."""
    if "db" not in _STATE:
        raise ParallelError("worker has no database broadcast")
    return _STATE["pid"]


def _score_groups(task: ChunkTask, groups, units, engine):
    """Score lane groups exactly like the serial pipeline's group loop.

    ``groups`` is a list of :class:`LaneGroup`; ``units`` the matching
    fault-injection unit ids.  Returns ``(positions, scores, saturated,
    redone, cells)`` with ``positions`` being each lane's
    ``group.indices`` entry (caller-defined coordinate space).
    """
    from ..search.scan import guarded_transmit

    q = task.query
    prepared = engine._prepare(q, task.matrix)
    injector = FaultInjector(task.plan) if task.plan is not None else None
    positions: list[np.ndarray] = []
    scores: list[np.ndarray] = []
    saturated = redone = cells = 0

    for group, unit in zip(groups, units):
        # Saturation count is per *group*, not per compute call: a
        # corruption redo recomputes the same lanes, matching the serial
        # pipeline's assignment (not accumulation) semantics.
        sat_holder = [0]

        def compute(group=group, sat_holder=sat_holder) -> np.ndarray:
            g_scores, sat = engine.score_group(
                q, group, task.matrix, task.gaps, _prepared=prepared
            )
            sat_holder[0] = len(sat)
            return g_scores

        g_scores, redos = guarded_transmit(injector, unit, compute)
        redone += redos
        saturated += sat_holder[0]
        positions.append(np.asarray(group.indices, dtype=np.int64))
        scores.append(np.asarray(g_scores, dtype=np.int64))
        cells += len(q) * int(group.lengths.sum())

    if positions:
        return (
            np.concatenate(positions), np.concatenate(scores),
            saturated, redone, cells,
        )
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty.copy(), saturated, redone, cells


def _score_stream(task: ChunkTask, engine: InterTaskEngine):
    """Score one streaming chunk exactly like the serial streamed scan.

    Both run :func:`repro.search.scan.score_stream_chunk`, with the
    chunk's *global* chunk index (``fault_unit_base``) as the fault
    unit, so corruption decisions and redo counts replay the serial
    scan bit for bit.
    """
    from ..search.scan import score_stream_chunk

    seqs = [np.asarray(s, dtype=np.uint8) for s in task.seqs]
    injector = FaultInjector(task.plan) if task.plan is not None else None
    scores, batch, redone = score_stream_chunk(
        engine, task.query, seqs, task.matrix, task.gaps,
        injector, task.fault_unit_base,
    )
    positions = task.base_index + np.arange(len(seqs), dtype=np.int64)
    return (
        positions,
        np.asarray(scores, dtype=np.int64),
        len(batch.saturated),
        redone,
        batch.cells,
    )


def run_chunk(
    task: ChunkTask,
    *,
    db: PackedDatabase | None,
    engines: dict,
    pid: int,
) -> ChunkResult:
    """Score one :class:`ChunkTask` — the pure body, no process faults.

    This is the code path shared by pool workers (via
    :func:`score_chunk`) and the driver's inline reclaim of quarantined
    poison chunks.  Corruption-guard redo accounting (``task.plan``)
    runs identically on both; ``worker-kill`` / ``worker-hang`` faults
    are deliberately *not* applied here.
    """
    started = time.time()
    t0 = time.perf_counter()
    if db is None and task.kind != "stream":
        raise ParallelError(
            f"worker has no database broadcast (required by "
            f"kind={task.kind!r} tasks)"
        )
    alphabet = task.matrix.alphabet
    key = (task.engine, alphabet.letters)  # engines cached per config
    if key not in engines:
        engines[key] = task.engine.build(alphabet)
    engine = engines[key]

    if task.kind == "stream":
        positions, scores, saturated, redone, cells = _score_stream(
            task, engine
        )
    elif task.kind == "groups":
        groups = [db.group(g) for g in task.group_ids]
        units = list(task.group_ids)
        positions, scores, saturated, redone, cells = _score_groups(
            task, groups, units, engine
        )
    elif task.kind == "subset":
        seqs = [db.sequence(p) for p in task.positions]
        packed = build_lane_groups(seqs, task.engine.lanes)
        groups = []
        # Rebase each group's indices from chunk-local to sorted-database
        # positions so the merge is coordinate-free for the caller.
        pos = np.asarray(task.positions, dtype=np.int64)
        for grp in packed:
            groups.append(LaneGroup(
                codes=grp.codes,
                lengths=grp.lengths,
                indices=pos[grp.indices],
            ))
        units = [task.fault_unit_base + g for g in range(len(groups))]
        positions, scores, saturated, redone, cells = _score_groups(
            task, groups, units, engine
        )
    else:
        raise ParallelError(f"unknown chunk kind {task.kind!r}")

    wait = max(0.0, started - task.submitted_at) if task.submitted_at else 0.0
    return ChunkResult(
        chunk_id=task.chunk_id,
        positions=positions,
        scores=scores,
        saturated=saturated,
        redone=redone,
        cells=cells,
        pid=pid,
        queue_wait_seconds=wait,
        compute_seconds=time.perf_counter() - t0,
    )


def _apply_process_faults(task: ChunkTask) -> None:
    """Fire the chunk's process-level fault, if its plan says so.

    ``worker-kill`` exits the process without cleanup (``os._exit``) —
    exactly what a segfaulting or OOM-killed worker looks like to the
    pool.  ``worker-hang`` sleeps through ``plan.worker_hang_seconds``;
    a driver with a shorter ``chunk_timeout`` declares the worker dead
    and heals, one without simply sees a straggler.
    """
    plan = task.plan
    if plan is None or not plan.has_process_faults:
        return
    decision = FaultInjector(plan).process_decision(
        task.chunk_id, task.attempt
    )
    if decision.kind is FaultKind.WORKER_KILL:
        os._exit(17)
    if decision.kind is FaultKind.WORKER_HANG:
        time.sleep(plan.worker_hang_seconds)


def score_chunk(task: ChunkTask) -> ChunkResult:
    """Pool entry point: deadline check, process faults, then score.

    Non-library exceptions are wrapped into
    :class:`~repro.exceptions.ParallelError` *in the worker*, with the
    worker pid and chunk id in the message — ``__cause__`` chains do not
    survive the result pickle, so the context must ride the message
    itself.
    """
    if "db" not in _STATE:
        raise ParallelError("worker was not initialised")
    if task.deadline is not None:
        task.deadline.check(f"chunk {task.chunk_id}")
    _apply_process_faults(task)
    try:
        return run_chunk(
            task,
            db=_STATE.get("db"),
            engines=_STATE["engines"],
            pid=_STATE["pid"],
        )
    except ReproError:
        raise
    except Exception as exc:
        raise ParallelError(
            f"chunk {task.chunk_id} failed in worker pid {os.getpid()} "
            f"({type(exc).__name__}: {exc})"
        ) from exc
