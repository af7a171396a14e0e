"""Tiered heuristic search: seed -> banded verify -> exact SW rescore.

The exhaustive scan pays ``O(m * n)`` for every database sequence; at
"millions of users" scale that asymptotic is the bottleneck, not the
constant.  This module composes the existing building blocks into the
index-then-verify architecture of the INRIA fine-grained similarity
search report (PAPERS.md): a k-mer/neighbourhood seed stage
(:mod:`repro.heuristic.kmer`) prunes the candidate set, the banded
engine (:mod:`repro.core.banded`, via
:func:`repro.heuristic.extend.gapped_extend`) verifies survivors, and
only the final candidates are rescored with the exact kernel-selected
Smith-Waterman engines.

The contract: every *reported* score is an exact SW score — stage 3
rescoring is per-sequence independent, so a returned hit's score is
bit-identical to what the exhaustive scan reports for that sequence —
but low-similarity sequences can be pruned before rescoring and miss
the ranking.  The sensitivity/speed trade is selected with
``SearchOptions.mode``:

========== ===================================================
mode       semantics
========== ===================================================
exact      exhaustive scan (the default; no tiering at all)
sensitive  classic BLASTP-flavoured seeding, wide verify band
fast       two-hit seeding, stricter thresholds, narrow band
========== ===================================================

Recall of each mode versus exhaustive search is a *measured* quantity:
``benchmarks/bench_tiered_recall.py`` sweeps mutated-homolog databases
(:mod:`repro.db.mutate`) across divergence levels and records recall@k
with GCUPS-equivalent throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.engine import as_codes
from ..core.traceback import align_pair
from ..db.database import SequenceDatabase
from ..exceptions import PipelineError
from ..heuristic.extend import Seed, gapped_extend, ungapped_extend
from ..heuristic.kmer import KmerWordCoder, build_query_word_table
from ..metrics.counters import METRICS, MetricsRegistry
from ..obs.tracer import get_tracer
from .api import SearchOptions, unify_options
from .gcups import Stopwatch
from .result import SearchResult
from .scan import ScanContext, rank_hits

__all__ = [
    "TIER_PRESETS",
    "TierPreset",
    "TierStats",
    "TieredFilter",
    "TieredSearch",
    "TieredSearchResult",
]


@dataclass(frozen=True)
class TierPreset:
    """Stage thresholds realising one ``SearchOptions.mode``.

    Stage 1 (seed): neighbourhood word hits (word size ``k``, score
    threshold ``threshold``) are extended ungapped with X-drop
    ``x_drop``; a sequence survives when its best ungapped HSP reaches
    ``seed_min_score``.  ``two_hit`` gates extension on a second
    non-overlapping same-diagonal hit within ``two_hit_window``.

    Stage 2 (verify): the best HSP is refined with a banded gapped
    extension (half-width ``band``, window ``window``); survivors need
    ``verify_min_score``.

    Stage 3 (rescore) has no knobs: survivors get full exact SW.
    """

    k: int = 3
    threshold: int = 11
    x_drop: int = 16
    two_hit: bool = False
    two_hit_window: int = 40
    seed_min_score: int = 20
    band: int = 12
    window: int = 64
    verify_min_score: int = 42


#: The measured sensitivity/speed points behind ``SearchOptions.mode``.
#: "sensitive" keeps the classic BLASTP seeding surface (k=3, T=11) and
#: a wide verify band; "fast" demands two-hit diagonals and prunes much
#: harder before paying for verification.
TIER_PRESETS: dict[str, TierPreset] = {
    "sensitive": TierPreset(
        k=3, threshold=11, x_drop=16, two_hit=False,
        seed_min_score=20, band=12, window=64, verify_min_score=42,
    ),
    "fast": TierPreset(
        k=3, threshold=12, x_drop=16, two_hit=True, two_hit_window=40,
        seed_min_score=24, band=6, window=48, verify_min_score=45,
    ),
}


@dataclass
class TierStats:
    """Per-stage funnel and cell accounting of one tiered search."""

    mode: str
    candidates: int = 0         # sequences entering stage 1
    seed_survivors: int = 0     # sequences passing the seed stage
    verify_survivors: int = 0   # sequences rescored with exact SW
    seed_cells: int = 0         # ungapped-extension DP cells
    verify_cells: int = 0       # banded-verification DP cells
    rescore_cells: int = 0      # exact SW cells actually computed
    exhaustive_cells: int = 0   # what a full exact scan would compute

    @property
    def total_cells(self) -> int:
        """All DP cells the tiered search computed, every stage."""
        return self.seed_cells + self.verify_cells + self.rescore_cells

    @property
    def exact_cell_reduction(self) -> float:
        """Exhaustive exact-SW cells per exact-SW cell actually paid."""
        if self.rescore_cells == 0:
            return float("inf") if self.exhaustive_cells else 1.0
        return self.exhaustive_cells / self.rescore_cells

    @property
    def cells_saved(self) -> float:
        """Fraction of the exhaustive scan's work skipped (all stages)."""
        if self.exhaustive_cells == 0:
            return 0.0
        return 1.0 - self.total_cells / self.exhaustive_cells

    def record(self, metrics: MetricsRegistry, seconds: float) -> None:
        """Add this search's funnel to the ``tiered.*`` metrics."""
        metrics.increment("tiered.searches")
        metrics.increment("tiered.candidates", self.candidates)
        metrics.increment("tiered.seed.survivors", self.seed_survivors)
        metrics.increment("tiered.verify.survivors", self.verify_survivors)
        metrics.increment("tiered.seed.cells", self.seed_cells)
        metrics.increment("tiered.verify.cells", self.verify_cells)
        metrics.increment("tiered.rescore.cells", self.rescore_cells)
        metrics.observe("tiered.search.seconds", seconds)
        metrics.set_gauge("tiered.last.cells_saved", self.cells_saved)

    def span_attributes(self) -> dict:
        """The funnel summary a search's root span carries."""
        return {
            "seed_survivors": self.seed_survivors,
            "verify_survivors": self.verify_survivors,
            "cells_saved": round(self.cells_saved, 4),
        }

    def to_dict(self) -> dict:
        """Plain-JSON form (rides in result provenance and the wire)."""
        return {
            "mode": self.mode,
            "candidates": self.candidates,
            "seed_survivors": self.seed_survivors,
            "verify_survivors": self.verify_survivors,
            "seed_cells": self.seed_cells,
            "verify_cells": self.verify_cells,
            "rescore_cells": self.rescore_cells,
            "exhaustive_cells": self.exhaustive_cells,
            "exact_cell_reduction": (
                None if self.rescore_cells == 0
                else round(self.exact_cell_reduction, 3)
            ),
            "cells_saved": round(self.cells_saved, 6),
        }


@dataclass
class TieredSearchResult(SearchResult):
    """A :class:`SearchResult` whose ranking came from the tiered path.

    ``scores`` holds the exact SW score for every rescored survivor and
    0 for pruned sequences; ``hits`` contains only rescored sequences,
    so every reported score is exact.  ``cells`` counts the cells
    actually computed across all three stages (honest GCUPS);
    :attr:`tier` breaks the funnel down per stage.
    """

    mode: str = "sensitive"
    tier: TierStats | None = None

    @property
    def provenance(self) -> dict:
        prov = SearchResult.provenance.fget(self)  # type: ignore[attr-defined]
        prov["mode"] = self.mode
        if self.tier is not None:
            prov["tiered"] = self.tier.to_dict()
        return prov


class TieredFilter:
    """The seed -> verify -> rescore funnel for one query.

    The query word table (with neighbourhoods) is built once; each
    database sequence is then classified independently — the filter
    decision for a sequence never depends on its neighbours, so any
    chunking or sharding of the stream leaves the survivor set (and
    therefore the final ranking) unchanged.  :meth:`funnel` runs all
    three stages over one batch: the whole resident database, or one
    chunk of a streamed scan.
    """

    def __init__(
        self,
        query: np.ndarray,
        matrix,
        gaps,
        preset: TierPreset,
        *,
        alphabet,
    ) -> None:
        if len(query) < preset.k:
            raise PipelineError(
                f"query shorter than the tiered word size "
                f"({len(query)} < {preset.k}) — use mode='exact'"
            )
        self.query = query
        self.matrix = matrix
        self.gaps = gaps
        self.preset = preset
        self.alphabet = alphabet
        self.table = build_query_word_table(
            query, matrix, k=preset.k, threshold=preset.threshold
        )
        self.coder = KmerWordCoder(preset.k, alphabet)

    # ------------------------------------------------------------------
    def seed(self, seq: np.ndarray) -> tuple[object | None, Seed | None, int]:
        """Stage 1: best ungapped HSP of ``seq`` (or ``None``), plus cells.

        Mirrors :class:`~repro.heuristic.MiniBlast` seeding: per-diagonal
        de-duplication, optional two-hit gating, X-drop extension of
        every qualifying seed.
        """
        p = self.preset
        q = self.query
        words = self.coder.words_of(seq)
        best = None
        best_seed = None
        cells = 0
        covered: dict[int, int] = {}
        last_hit: dict[int, int] = {}
        for j in range(len(words)):
            qpos_list = self.table.get(int(words[j]))
            if not qpos_list:
                continue
            for i in qpos_list:
                diag = j - i
                if covered.get(diag, -1) >= j:
                    continue
                if p.two_hit:
                    prev = last_hit.get(diag)
                    last_hit[diag] = j
                    if prev is None or not (
                        p.k <= j - prev <= p.two_hit_window
                    ):
                        continue
                seed = Seed(qpos=i, dpos=j, length=p.k)
                ext = ungapped_extend(q, seq, seed, self.matrix,
                                      x_drop=p.x_drop)
                cells += ext.cells
                covered[diag] = ext.dend
                if best is None or ext.score > best.score:
                    best = ext
                    best_seed = seed
        if best is not None and best.score < p.seed_min_score:
            best = best_seed = None
        return best, best_seed, cells

    def verify(self, seq: np.ndarray, seed: Seed, ungapped) -> tuple[int, int]:
        """Stage 2: banded gapped score around the best HSP, plus cells."""
        p = self.preset
        window = max(p.window, ungapped.length + 2 * p.band)
        ext = gapped_extend(
            self.query, seq, seed, self.matrix, self.gaps,
            window=window, band=p.band,
        )
        return ext.score, ext.cells

    def funnel(
        self, seqs, engine, stats: TierStats, *, deadline=None
    ) -> tuple[np.ndarray, list[int]]:
        """All three stages over ``seqs``: ``(scores, finalists)``.

        ``finalists`` are the positions in ``seqs`` that survived to
        exact rescoring with ``engine``; ``scores`` holds their exact SW
        scores and 0 for every pruned sequence.  Stage counts and cells
        accumulate into ``stats``.  ``deadline`` (when given) is checked
        between stages and every 256 sequences while seeding.
        """
        tracer = get_tracer()
        # Stage 1: seed every sequence.
        survivors: list[tuple[int, Seed, object]] = []
        cells = 0
        with tracer.span("tiered.seed") as sp:
            for idx, seq in enumerate(seqs):
                if deadline is not None and idx % 256 == 0:
                    deadline.check("tiered seed stage")
                best, best_seed, seed_cells = self.seed(seq)
                cells += seed_cells
                if best is not None:
                    survivors.append((idx, best_seed, best))
            stats.seed_cells += cells
            stats.seed_survivors += len(survivors)
            if sp:
                sp.set_attributes(
                    candidates=len(seqs), survivors=len(survivors),
                    cells=cells,
                )
        # Stage 2: banded verification of seed survivors.
        finalists: list[int] = []
        cells = 0
        with tracer.span("tiered.verify") as sp:
            for idx, seed, best in survivors:
                if deadline is not None:
                    deadline.check("tiered verify stage")
                score, verify_cells = self.verify(seqs[idx], seed, best)
                cells += verify_cells
                if score >= self.preset.verify_min_score:
                    finalists.append(idx)
            stats.verify_cells += cells
            stats.verify_survivors += len(finalists)
            if sp:
                sp.set_attributes(
                    candidates=len(survivors), survivors=len(finalists),
                    cells=cells,
                )
        # Stage 3: exact SW rescoring of the final candidates.
        scores = np.zeros(len(seqs), dtype=np.int64)
        cells = 0
        with tracer.span("tiered.rescore") as sp:
            if finalists:
                if deadline is not None:
                    deadline.check("tiered rescore stage")
                batch = engine.score_batch(
                    self.query, [seqs[i] for i in finalists],
                    self.matrix, self.gaps,
                )
                scores[finalists] = batch.scores
                cells = batch.cells
            stats.rescore_cells += cells
            if sp:
                sp.set_attributes(candidates=len(finalists), cells=cells)
        return scores, finalists


class TieredSearch:
    """The resident tiered executor behind ``SearchOptions.mode != "exact"``.

    Accepts the same :class:`~repro.search.SearchOptions` vocabulary as
    every other entrypoint; ``mode`` selects the preset.  (Fault
    injection is an exhaustive-path feature — faults are keyed on lane
    groups the tiered path never forms — so ``SearchOptions`` rejects
    it together with a tiered mode.)  Streamed tiered scans run the same
    :meth:`TieredFilter.funnel` per chunk inside
    :class:`~repro.search.StreamingSearch`.
    """

    def __init__(
        self,
        options: SearchOptions | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        **legacy,
    ) -> None:
        opts = unify_options(options, legacy, owner="TieredSearch")
        if opts.mode == "exact":
            raise PipelineError(
                "TieredSearch requires mode='sensitive' or 'fast'; "
                "mode='exact' is the exhaustive SearchPipeline"
            )
        self.options = opts
        self.mode = opts.mode
        self.preset = TIER_PRESETS[opts.mode]
        self.context = ScanContext.resolve(opts)
        self.metrics = metrics if metrics is not None else METRICS
        self.engine = self.context.make_engine()

    def search(
        self,
        query,
        database: SequenceDatabase,
        *,
        query_name: str = "query",
        top_k: int | None = None,
        traceback: bool = False,
    ) -> TieredSearchResult:
        """Tiered scan of a resident database.

        Ranking uses the same stable descending argsort as the
        exhaustive pipeline, so two sequences that both survive to
        rescoring order exactly as they would in the exhaustive
        ranking (score ties break toward the earlier database record).
        ``hits`` contains only rescored survivors — never a fabricated
        score for a pruned sequence.
        """
        if len(database) == 0:
            raise PipelineError("cannot search an empty database")
        if top_k is None:
            top_k = self.options.top_k
        ctx = self.context
        q = as_codes(query, ctx.alphabet)
        tracer = get_tracer()
        watch = Stopwatch()

        with tracer.span("tiered.search") as root:
            if root:
                root.set_attributes(
                    query_name=query_name, query_length=len(q),
                    database=database.name, sequences=len(database),
                    mode=self.mode,
                )
            with watch:
                # Building the query word table is part of the search.
                filt = TieredFilter(
                    q, ctx.matrix, ctx.gaps, self.preset,
                    alphabet=ctx.alphabet,
                )
                stats = TierStats(
                    mode=self.mode, candidates=len(database),
                    exhaustive_cells=len(q) * database.total_residues,
                )
                scores, finalists = filt.funnel(
                    database.sequences, self.engine, stats,
                    deadline=self.options.deadline,
                )
                eligible = np.zeros(len(database), dtype=bool)
                eligible[finalists] = True
                hits = rank_hits(
                    scores, database, top_k, eligible=eligible,
                    align=(lambda i: align_pair(
                        q, database.sequences[i], ctx.matrix, ctx.gaps,
                        alphabet=ctx.alphabet,
                    )) if traceback else None,
                )

            stats.record(self.metrics, watch.seconds)
            result = TieredSearchResult(
                query_name=query_name,
                query_length=len(q),
                database_name=database.name,
                scores=scores,
                hits=hits,
                cells=stats.total_cells,
                wall_seconds=watch.seconds,
                mode=self.mode,
                tier=stats,
            )
            if root:
                root.set_attributes(
                    **stats.span_attributes(), best_score=result.best_score()
                )
                result.trace = {"span_id": root.span_id, "span": root.name}
            return result
