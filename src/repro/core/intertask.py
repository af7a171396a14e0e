"""Inter-task (SWIPE-style) Smith-Waterman engine — the paper's scheme.

One vector register's worth of lanes processes ``L`` *different* database
sequences against the same query simultaneously (paper Section IV, after
Rognes [4]).  Because the lanes are independent alignments there are no
intra-alignment data dependences to break, which is why the paper's
inter-task code outperforms intra-task vectorisation on short sequences.

Three of the paper's optimisations are implemented faithfully:

* **Length-sorted lane packing** (:func:`build_lane_groups`) — grouping
  consecutive sequences of the pre-sorted database into lanes keeps lane
  lengths similar, minimising padding waste exactly like the paper's
  pre-processing step (2).
* **QP vs SP addressing** (``profile=``) — query-profile mode gathers
  each DP row's scores through the database residues (the non-contiguous
  access that hurts on gather-less AVX); sequence-profile mode
  pre-expands per-group contiguous score planes (paper Section IV).
* **Cache blocking** (``block_cols=``) — the DP is tiled over database
  columns with carried boundary state (H column, prefix-scan carry) so
  the working set per pass fits a target cache; results are bit-identical
  to the unblocked computation, which the test suite verifies.

Like the paper's port, every cell is computed in one wide integer width,
so no lane ever saturates.  Narrow elements with a full-width redo of
saturated lanes (the SWIPE/SSW strategy) live in the array-parallel
sibling, :class:`~repro.core.vectorized.VectorizedEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet import PROTEIN, Alphabet
from ..exceptions import EngineError
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from .engine import AlignmentEngine, as_codes, register_engine
from .profiles import ProfileKind
from .types import AlignmentResult, BatchResult

__all__ = ["LaneGroup", "build_lane_groups", "InterTaskEngine"]

_NEG = np.int64(-(1 << 40))
_PAD_SCORE = np.int64(-(1 << 30))


@dataclass(frozen=True)
class LaneGroup:
    """``L`` database sequences packed into the lanes of one vector task.

    Attributes
    ----------
    codes:
        ``(n_max, L)`` residue-code array; column ``l`` holds sequence
        ``l`` padded at the tail with the out-of-alphabet pad code
        (``alphabet.size``).
    lengths:
        True (unpadded) length of each lane.
    indices:
        Position of each lane's sequence in the caller's original batch,
        so scores can be scattered back after sorted packing.
    """

    codes: np.ndarray
    lengths: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise EngineError(f"lane group codes must be 2-D, got {self.codes.shape}")
        if not (len(self.lengths) == len(self.indices) == self.codes.shape[1]):
            raise EngineError("lane group metadata does not match lane count")

    @property
    def lanes(self) -> int:
        """Number of lanes (including empty padding lanes, if any)."""
        return int(self.codes.shape[1])

    @property
    def n_max(self) -> int:
        """Padded common length of the group."""
        return int(self.codes.shape[0])

    @property
    def mask(self) -> np.ndarray:
        """``(n_max, L)`` bool array marking real (non-pad) positions."""
        return np.arange(self.n_max)[:, None] < self.lengths[None, :]

    @property
    def cells_per_query_row(self) -> int:
        """Real DP cells per query row (sum of lane lengths)."""
        return int(self.lengths.sum())

    @property
    def padding_fraction(self) -> float:
        """Fraction of the padded rectangle that is wasted padding."""
        total = self.n_max * self.lanes
        return 1.0 - self.cells_per_query_row / total if total else 0.0


def build_lane_groups(
    db_seqs: list[np.ndarray],
    lanes: int,
    *,
    sort_by_length: bool = True,
) -> list[LaneGroup]:
    """Pack database sequences into :class:`LaneGroup` batches.

    With ``sort_by_length`` (the paper's pre-processing optimisation)
    sequences are packed in ascending length order so each group's lanes
    have near-equal lengths; scores are later scattered back through
    ``indices`` so callers always see original order.
    """
    if lanes < 1:
        raise EngineError(f"lane count must be positive, got {lanes}")
    if not db_seqs:
        return []
    order = (
        sorted(range(len(db_seqs)), key=lambda k: len(db_seqs[k]))
        if sort_by_length
        else list(range(len(db_seqs)))
    )
    pad_code = None  # resolved per group from dtype below
    groups: list[LaneGroup] = []
    for start in range(0, len(order), lanes):
        chunk = order[start : start + lanes]
        seqs = [np.asarray(db_seqs[k]) for k in chunk]
        n_max = max(len(s) for s in seqs)
        # Pad code is one past the alphabet: engines extend their score
        # tables with a poison column at this index.
        pad_code = 255
        codes = np.full((n_max, len(chunk)), pad_code, dtype=np.uint8)
        lengths = np.zeros(len(chunk), dtype=np.int64)
        for l, s in enumerate(seqs):
            codes[: len(s), l] = s
            lengths[l] = len(s)
        groups.append(
            LaneGroup(
                codes=codes,
                lengths=lengths,
                indices=np.asarray(chunk, dtype=np.int64),
            )
        )
    return groups


class _LaneGroupEngine(AlignmentEngine):
    """Batch and single-pair plumbing shared by the lane-group engines.

    Subclasses set ``lanes`` and implement ``_prepare`` (the query- and
    matrix-dependent tables every group reuses) and ``score_group``,
    which returns a group's exact per-lane scores together with the
    lanes it had to redo at full width.
    """

    lanes: int

    def score_batch(
        self,
        query,
        db_seqs,
        matrix: SubstitutionMatrix,
        gaps: GapModel,
    ) -> BatchResult:
        """Score a whole database batch through lane groups.

        ``BatchResult.saturated`` lists the sequences whose lanes were
        redone at full width; their scores are exact like all others.
        """
        q = as_codes(query, self.alphabet)
        self._check_matrix(matrix)
        encoded = [as_codes(s, self.alphabet) for s in db_seqs]
        groups = build_lane_groups(encoded, self.lanes)
        scores = np.zeros(len(encoded), dtype=np.int64)
        cells = 0
        saturated: list[int] = []
        # The prepared tables depend only on the query and matrix —
        # build them once for the whole batch, not once per lane group.
        prepared = self._prepare(q, matrix) if groups else None
        for group in groups:
            g_scores, g_sat = self.score_group(
                q, group, matrix, gaps, _prepared=prepared
            )
            scores[group.indices] = g_scores
            cells += len(q) * group.cells_per_query_row
            saturated.extend(int(group.indices[l]) for l in g_sat)
        return BatchResult(scores=scores, cells=cells, saturated=sorted(saturated))

    def _score_pair_codes(
        self, query: np.ndarray, db: np.ndarray, matrix, gaps
    ) -> AlignmentResult:
        group = build_lane_groups([db], lanes=1)[0]
        scores, _ = self.score_group(query, group, matrix, gaps)
        return AlignmentResult(score=int(scores[0]), cells=len(query) * len(db))


@register_engine
class InterTaskEngine(_LaneGroupEngine):
    """Lane-parallel multi-sequence engine (paper Section IV).

    Parameters
    ----------
    lanes:
        Vector width in elements, e.g. 8 for AVX/int32 or 16 for
        MIC-512/int32 (the paper's two targets).
    profile:
        ``"query"`` (QP) or ``"sequence"`` (SP) score addressing.
    block_cols:
        Database-column tile width for cache blocking; ``None`` disables
        blocking.  Results are identical either way.
    """

    name = "intertask"
    #: Kernel family for ``SearchOptions.kernel`` selection: this is the
    #: instruction-faithful Python-loop kernel ("python"); the
    #: array-parallel sibling in ``repro.core.vectorized`` is "numpy".
    kernel = "python"

    def __init__(
        self,
        alphabet: Alphabet | None = None,
        lanes: int = 8,
        profile: ProfileKind | str = ProfileKind.SEQUENCE,
        block_cols: int | None = None,
    ) -> None:
        super().__init__(alphabet or PROTEIN)
        if lanes < 1:
            raise EngineError(f"lane count must be positive, got {lanes}")
        if block_cols is not None and block_cols < 1:
            raise EngineError(f"block_cols must be positive, got {block_cols}")
        self.lanes = lanes
        self.profile = ProfileKind.parse(profile)
        self.block_cols = block_cols

    def _prepare(
        self, query: np.ndarray, matrix: SubstitutionMatrix
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Batch-invariant tables: (extended matrix, QP rows or None)."""
        ext = self._extended_table(matrix)
        qp = (
            ext[query.astype(np.intp)]
            if self.profile is ProfileKind.QUERY
            else None
        )
        return ext, qp

    def score_group(
        self,
        query: np.ndarray,
        group: LaneGroup,
        matrix: SubstitutionMatrix,
        gaps: GapModel,
        *,
        _prepared: tuple[np.ndarray, np.ndarray | None] | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Score one lane group; returns exact per-lane scores and no redo.

        This is the paper's Algorithm 1 inner loop: for each query residue
        (outer loop, line 26) every lane's database row is advanced with
        vector operations (the ``omp simd`` loop, line 28), here realised
        as numpy operations over the ``(n_max, L)`` lane plane with the
        horizontal-gap recurrence resolved by a prefix scan.  Every cell
        is computed in wide integers, so the redone-lane list is empty.
        """
        m = len(query)
        L = group.lanes
        n_max = group.n_max

        # Extended score table: a poison row/column at index
        # ``alphabet.size..255`` is represented by clamping pad codes to a
        # single extra column filled with a large negative score.
        ext, qp = _prepared if _prepared is not None else self._prepare(
            query, matrix
        )
        codes = np.minimum(group.codes, self.alphabet.size).astype(np.intp)

        if self.profile is ProfileKind.SEQUENCE:
            # SP: contiguous (n_max, L) plane per query letter, built once
            # per group (cannot be pre-processed, as the paper notes).
            sp = ext[:, codes]  # (A+1, n_max, L)
            get_row = lambda qc: sp[qc]  # noqa: E731 - tight closure
        else:
            # QP: per-row gather through database residues.
            get_row = None  # handled inline with codes gather

        go = np.int64(gaps.first_gap_cost)
        qo = np.int64(gaps.open)
        ge = np.int64(gaps.extend)
        mask = group.mask

        if self.block_cols is None or self.block_cols >= n_max:
            best = self._sweep(
                query, codes, mask, get_row,
                qp if self.profile is ProfileKind.QUERY else None,
                m, n_max, L, qo, go, ge,
            )
        else:
            best = self._sweep_blocked(
                query, codes, mask, get_row,
                qp if self.profile is ProfileKind.QUERY else None,
                m, n_max, L, qo, go, ge, self.block_cols,
            )
        return best, []

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def _sweep(
        self, query, codes, mask, get_row, qp,
        m, n_max, L, qo, go, ge,
    ) -> np.ndarray:
        """Unblocked lane sweep over all query rows."""
        h_prev = np.zeros((n_max + 1, L), dtype=np.int64)
        f_prev = np.full((n_max, L), _NEG, dtype=np.int64)
        t = np.empty((n_max, L), dtype=np.int64)
        src_w = (np.arange(n_max, dtype=np.int64) * ge)[:, None]
        col_w = (np.arange(1, n_max + 1, dtype=np.int64) * ge)[:, None]
        best = np.zeros(L, dtype=np.int64)

        for i in range(m):
            v = get_row(int(query[i])) if get_row else qp[i][codes]
            f = np.maximum(h_prev[1:] - go, f_prev - ge)
            h_tilde = np.maximum(h_prev[:-1] + v, f)
            np.maximum(h_tilde, 0, out=h_tilde)
            t[0] = 0
            np.add(h_tilde[:-1], src_w[1:], out=t[1:])
            np.maximum.accumulate(t, axis=0, out=t)
            h = np.maximum(h_tilde, t - qo - col_w)
            np.maximum(best, (h * mask).max(axis=0), out=best)
            h_prev[1:] = h
            f_prev = f
        return best

    def _sweep_blocked(
        self, query, codes, mask, get_row, qp,
        m, n_max, L, qo, go, ge, width,
    ) -> np.ndarray:
        """Column-tiled sweep with carried boundary state.

        Per tile we carry: ``col_h`` — the H values of the column just
        left of the tile for every query row; ``carry`` — the prefix-scan
        running maximum over all sources left of the tile.  Both make the
        tiled computation bit-identical to :meth:`_sweep`.
        """
        best = np.zeros(L, dtype=np.int64)
        # Boundary H column: col_in[i] = H[i, u0] from the previous tile;
        # col_out collects H[i, u1] for the next tile.  Separate arrays —
        # writing in place would clobber values still to be read.
        col_in = np.zeros((m + 1, L), dtype=np.int64)
        col_out = np.zeros((m + 1, L), dtype=np.int64)
        carry = np.zeros((m, L), dtype=np.int64)  # k=0 source: H[i,0]=0

        for u0 in range(0, n_max, width):
            u1 = min(u0 + width, n_max)
            w = u1 - u0
            codes_t = codes[u0:u1]
            mask_t = mask[u0:u1]
            src_w = (np.arange(u0 + 1, u1, dtype=np.int64) * ge)[:, None]
            col_w = (np.arange(u0 + 1, u1 + 1, dtype=np.int64) * ge)[:, None]
            h_prev = np.zeros((w, L), dtype=np.int64)  # H[i-1, u0+1..u1]
            f_prev = np.full((w, L), _NEG, dtype=np.int64)
            tt = np.empty((w, L), dtype=np.int64)

            for i in range(m):
                if get_row:
                    v = get_row(int(query[i]))[u0:u1]
                else:
                    v = qp[i][codes_t]
                f = np.maximum(h_prev - go, f_prev - ge)
                diag = np.concatenate((col_in[i : i + 1], h_prev[:-1]), axis=0)
                h_tilde = np.maximum(diag + v, f)
                np.maximum(h_tilde, 0, out=h_tilde)
                # Prefix scan seeded with the carried left-of-tile maximum.
                tt[0] = carry[i]
                if w > 1:
                    np.add(h_tilde[:-1], src_w, out=tt[1:])
                np.maximum.accumulate(tt, axis=0, out=tt)
                h = np.maximum(h_tilde, tt - qo - col_w)
                np.maximum(best, (h * mask_t).max(axis=0), out=best)
                # Carry out: fold in the tile's last source column u1.
                carry[i] = np.maximum(tt[-1], h_tilde[-1] + np.int64(u1) * ge)
                col_out[i + 1] = h[-1]
                h_prev = h
                f_prev = f
            col_in, col_out = col_out, col_in
        return best

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _extended_table(self, matrix: SubstitutionMatrix) -> np.ndarray:
        """Score table with one poison column appended for the pad code."""
        a = matrix.data.astype(np.int64)
        pad = np.full((a.shape[0], 1), _PAD_SCORE, dtype=np.int64)
        return np.ascontiguousarray(np.concatenate((a, pad), axis=1))
