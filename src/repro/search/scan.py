"""The scan core every search path shares (paper Algorithm 1, steps 3-4).

The resident pipeline, the serial and sharded streaming drivers, the
tiered path and the heterogeneous merges all run the same loop: resolve
the options once, score records with the inter-task engine, keep or
rank the best.  This module is the single implementation of each piece:

* :class:`ScanContext` — :class:`~repro.search.SearchOptions` resolved
  once into matrix, gaps, alphabet, kernel, lanes and the picklable
  :class:`~repro.parallel.worker.EngineConfig` the engine (serial or
  pooled) is built from, so the two can never drift apart;
* :func:`guarded_transmit` and :func:`score_stream_chunk` — one lane
  group or one streamed chunk shipped through the fault-injection
  checksum guard identically in the serial loops and in pool workers;
* :class:`TopK` — the bounded top-k merger of the streaming drivers;
* :func:`merge_by_header` and :func:`rank_hits` — per-part scores
  scattered back to database order, and the stable descending ranking
  of a full score array (ties toward the earlier record).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..alphabet import Alphabet
from ..core.types import BatchResult
from ..core.vectorized import DEFAULT_LANES
from ..exceptions import FaultInjected, PipelineError
from ..faults.injection import FaultInjector, payload_checksum
from ..obs.tracer import get_tracer
from ..parallel.worker import EngineConfig
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from .api import SearchOptions
from .result import Hit

__all__ = [
    "MAX_CORRUPTION_REDOS",
    "ScanContext",
    "TopK",
    "guarded_transmit",
    "merge_by_header",
    "rank_hits",
    "score_stream_chunk",
]

#: Recomputations allowed per work unit before a persistent corruption
#: is treated as unrecoverable.
MAX_CORRUPTION_REDOS = 8


@dataclass(frozen=True)
class ScanContext:
    """:class:`SearchOptions` resolved once into what a scan runs with.

    ``engine_config`` is the one description of the inter-task engine:
    :meth:`make_engine` builds the in-process engine from it and pool
    workers rebuild theirs from the same (picklable) value.
    """

    matrix: SubstitutionMatrix
    gaps: GapModel
    alphabet: Alphabet
    kernel: str
    lanes: int
    engine_config: EngineConfig

    @classmethod
    def resolve(
        cls, options: SearchOptions, *, block_cols: int | None = None,
    ) -> "ScanContext":
        """Resolve ``options``; ``block_cols`` only shapes the engine."""
        kernel = options.resolved_kernel()
        lanes = options.resolved_lanes(DEFAULT_LANES[kernel])
        engine_config = EngineConfig(
            lanes=lanes, profile=options.profile, block_cols=block_cols,
            kernel=kernel,
        )
        return cls(
            options.resolved_matrix(), options.resolved_gaps(),
            options.alphabet, kernel, lanes, engine_config,
        )

    def make_engine(self):
        """A fresh engine built from :attr:`engine_config`."""
        return self.engine_config.build(self.alphabet)


def guarded_transmit(
    injector: FaultInjector | None,
    unit: int,
    compute: Callable[[], np.ndarray],
) -> tuple[np.ndarray, int]:
    """Score a unit, ship it through the injector, verify the checksum.

    Each payload carries the checksum computed at its source; a mismatch
    on receipt means the transmission was corrupted, and the unit is
    *recomputed* (never patched from the tainted copy) and re-shipped.
    Returns ``(verified_scores, redo_count)``; raises
    :class:`~repro.exceptions.FaultInjected` if corruption persists past
    ``MAX_CORRUPTION_REDOS`` recomputations.  Without an injector the
    unit is simply computed: ``(compute(), 0)``.
    """
    if injector is None:
        return compute(), 0
    attempt = 0
    received, declared = injector.transmit(unit, attempt, compute())
    while payload_checksum(received) != declared:
        attempt += 1
        if attempt > MAX_CORRUPTION_REDOS:
            raise FaultInjected(
                f"unit {unit} still corrupted after "
                f"{MAX_CORRUPTION_REDOS} recomputations",
                kind="corrupt",
            )
        get_tracer().event(
            "fault.corrupt.redo", kind="corrupt", unit=unit, attempt=attempt
        )
        received, declared = injector.transmit(unit, attempt, compute())
    return received, attempt


def score_stream_chunk(
    engine, query: np.ndarray, seqs: list, matrix: SubstitutionMatrix,
    gaps: GapModel, injector: FaultInjector | None = None, unit: int = 0,
) -> tuple[np.ndarray, BatchResult, int]:
    """Score one streamed chunk: ``(scores, last batch, redo count)``.

    The whole chunk goes through ``engine.score_batch`` (saturated lanes
    redone exactly inside the engine) and, with an injector, through one
    checksum-guarded transmit keyed on ``unit`` — the chunk's global
    index — so the serial loop and a pool worker replay the same
    corruption decisions and redo counts.
    """
    batch: BatchResult | None = None

    def compute() -> np.ndarray:
        nonlocal batch
        batch = engine.score_batch(query, seqs, matrix, gaps)
        return batch.scores

    scores, redone = guarded_transmit(injector, unit, compute)
    return scores, batch, redone


class TopK:
    """Bounded top-k merger with earlier-record tie-break.

    A min-heap of ``(score, -index, Hit)``: the weakest retained hit is
    on top and, on equal scores, the later record is the weaker.  The
    entries are totally ordered (record indices are unique), so the
    retained set does not depend on the order records are offered in —
    a sharded merge keeps exactly what the serial scan keeps.  A
    :class:`Hit` is built only for a record that enters the heap.

    ``entries`` is the heap list itself, in heap order; it round-trips
    through :meth:`ScanState.pack_heap` / :meth:`ScanState.heap_entries`
    for resumable scans.
    """

    def __init__(self, k: int, entries: list | None = None) -> None:
        self.k = k
        self.entries: list = entries if entries is not None else []

    def offer(
        self, scores: np.ndarray, base: int, headers, seqs, *, only=None
    ) -> None:
        """Offer records ``base + j`` with ``scores[j]``, in order of ``j``.

        ``headers[j]`` and ``seqs[j]`` describe record ``base + j``;
        ``only`` (positions ``j``) restricts which records may enter.
        """
        heap = self.entries
        scores = np.asarray(scores)
        cand = (
            np.arange(len(scores)) if only is None
            else np.asarray(only, dtype=np.int64)
        )

        def entry(j: int, score: int) -> tuple:
            hit = Hit(index=base + j, header=headers[j],
                      length=len(seqs[j]), score=score)
            return (score, -(base + j), hit)

        fill = max(0, min(self.k - len(heap), len(cand)))
        for j in cand[:fill].tolist():
            heapq.heappush(heap, entry(j, int(scores[j])))
        if len(heap) < self.k or not heap:
            return
        # The heap floor only rises, so a record below it now can never
        # enter later in this batch.
        rest = cand[fill:]
        for j in rest[scores[rest] >= heap[0][0]].tolist():
            score, top = int(scores[j]), heap[0]
            if score > top[0] or (score == top[0] and -(base + j) > top[1]):
                heapq.heapreplace(heap, entry(j, score))

    def hits(self) -> list[Hit]:
        """Retained hits, best first (ties toward the earlier record)."""
        ranked = sorted(self.entries, key=lambda e: (-e[0], -e[1]))
        return [hit for _, _, hit in ranked]


def rank_hits(
    scores: np.ndarray, database, top_k: int, *,
    eligible: np.ndarray | None = None,
    align: Callable[[int], object] | None = None,
) -> list[Hit]:
    """The best ``top_k`` hits of a full score array (paper step 4).

    A stable descending argsort, so score ties break toward the earlier
    database record.  ``eligible`` (a boolean mask) restricts which
    records may rank — the tiered path reports only rescored survivors;
    ``align(index)`` attaches a traceback to each returned hit.
    """
    ranked = np.argsort(-scores, kind="stable")
    if eligible is not None:
        ranked = ranked[eligible[ranked]]
    return [
        Hit(
            index=i,
            header=database.headers[i],
            length=len(database.sequences[i]),
            score=int(scores[i]),
            alignment=align(i) if align is not None else None,
        )
        for i in ranked[: max(top_k, 0)].tolist()
    ]


def merge_by_header(database, parts, *, owner: str) -> np.ndarray:
    """Scatter ``(part_db, part_scores)`` back to ``database`` order.

    Parts come back in their own order; records map through their
    headers, which must be unique per entry.
    """
    index_of = {h: i for i, h in enumerate(database.headers)}
    if len(index_of) != len(database):
        raise PipelineError(f"{owner} merge requires unique database headers")
    scores = np.zeros(len(database), dtype=np.int64)
    for part_db, part_scores in parts:
        for h, score in zip(part_db.headers, part_scores):
            scores[index_of[h]] = score
    return scores
