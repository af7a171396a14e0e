"""Array-vectorised inter-task Smith-Waterman kernel (the ``numpy`` kernel).

:class:`InterTaskEngine` realises the paper's inter-task scheme but still
walks the DP in Python loops — the SIMD layer only *counts* what a vector
unit would do.  This module is the genuinely array-parallel version:
database sequences are packed into ``(n_max, L)`` lane matrices (reusing
:func:`~repro.core.intertask.build_lane_groups` length-sorted packing) and
every DP anti-step is one numpy operation across the lanes —
``np.maximum`` / ``np.add`` over all of them at once, with the
horizontal-gap recurrence resolved by a log-step prefix scan per query
row.  No Python loop over database position remains.

The kernel only does real work:

* Each lane group is swept in *length spans* (:func:`_length_spans`),
  each trimmed to its longest lane, so a group's long tail does not pad
  its short lanes.  The group stays the unit outside the kernel.
* Each query row reads one contiguous sequence-profile plane per span.
* The prefix scan stops at the row's *gap reach*: past it, a horizontal
  gap cannot lift ``H`` over its zero floor.

Two-tier width strategy (the SWIPE / SSW recompute path):

* Scores are computed in a narrow element type (int16 by default,
  optionally int8) with values *clamped* at a saturation limit, exactly
  like saturating SIMD arithmetic.
* A lane whose running maximum reaches the limit is flagged, and only the
  flagged lanes are redone at full int64 width, inside
  :meth:`VectorizedEngine.score_group` — the one narrow-then-redo ladder
  every search path runs.  Unflagged lanes are provably exact (clamping
  can only lower values, and the first clamped real cell pins that
  lane's maximum at the limit).

To keep int16/int8 intermediates in range the column prefix scan is tiled
and *rebased*: each tile uses local gap-length weights ``1..w`` and carries
a running maximum rebased to the tile boundary, floored at zero.  The
floor is score-safe because a floored carry can only produce a gap score
``-open - len*extend < 0``, which never beats the zero floor of ``H``.
Likewise ``F`` is kept zero-floored (``max(F, 0)``), which is exact
because ``H >= 0`` makes ``max(d+v, F, 0) == max(d+v, max(F, 0), 0)``.

Scores are bit-identical to :class:`~repro.core.scalar.ScalarEngine`; the
conformance and fuzz suites assert this across matrices, gap models and
forced-saturation inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..alphabet import PROTEIN, Alphabet
from ..exceptions import EngineError
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from .engine import AlignmentEngine, register_engine
from .intertask import InterTaskEngine, LaneGroup, _LaneGroupEngine
from .profiles import ProfileKind

__all__ = [
    "VectorizedEngine",
    "KernelStats",
    "make_intertask_engine",
    "KERNEL_NAMES",
    "DEFAULT_LANES",
]

#: Valid values of ``SearchOptions.kernel``.
KERNEL_NAMES = ("python", "numpy")

#: Default lane width per kernel.  The numpy kernel amortises dispatch
#: over many more lanes than the 8-lane AVX emulation.
DEFAULT_LANES = {"python": 8, "numpy": 128}

_WIDTH_DTYPES = {8: np.int8, 16: np.int16}

# Wide-path pad poison (same role as InterTaskEngine's): pads are tail
# padding so they can never feed a real cell, the poison just keeps their
# scores from mattering numerically.
_PAD_SCORE_WIDE = np.int64(-(1 << 30))

# Length spans (:func:`_length_spans`): a span of a lane group closes
# once it holds ``_SPAN_CELLS`` padded database cells and the next lane
# would drop its fill below ``_SPAN_FILL``.  Below that size numpy's
# per-call dispatch costs more than the padding a split would save.
_SPAN_CELLS = 32768
_SPAN_FILL = 0.85


def _length_spans(lengths: np.ndarray) -> list[np.ndarray]:
    """Split a lane group's lanes into spans of similar length.

    Lanes are taken shortest first; each span is swept trimmed to its
    longest lane, so a group's long tail does not pad its short lanes.
    """
    order = np.argsort(lengths, kind="stable")
    sizes = lengths[order].tolist()
    spans = []
    start = real = 0
    for k, n in enumerate(sizes):
        held = k - start
        if (
            held
            and sizes[k - 1] * held >= _SPAN_CELLS
            and real + n < _SPAN_FILL * n * (held + 1)
        ):
            spans.append(order[start:k])
            start, real = k, 0
        real += n
    if sizes:
        spans.append(order[start:])
    return spans


@dataclass
class KernelStats:
    """Counters for the two-tier width strategy (engine-local).

    ``narrow_sweeps`` and ``wide_sweeps`` count kernel sweeps: one per
    length span of a lane group at that width, plus one wide sweep per
    redo.  ``redo_lanes`` is the counter the overflow tests assert on:
    it only moves when a saturated lane was actually redone at full
    width.
    """

    narrow_sweeps: int = 0
    wide_sweeps: int = 0
    redo_groups: int = 0
    redo_lanes: int = 0

    def reset(self) -> None:
        self.narrow_sweeps = self.wide_sweeps = 0
        self.redo_groups = self.redo_lanes = 0


@dataclass(frozen=True)
class _Prepared:
    """Query/matrix-dependent tables shared across lane groups."""

    ext_wide: np.ndarray
    qp_wide: np.ndarray | None
    ext_narrow: np.ndarray | None
    qp_narrow: np.ndarray | None
    vmax: int


@register_engine
class VectorizedEngine(_LaneGroupEngine):
    """Lane-parallel engine with array-vectorised DP steps.

    Parameters
    ----------
    lanes:
        Database sequences processed per lane group.  Unlike the SIMD
        emulation this is not a hardware width — wider is generally
        faster until padding waste dominates.
    profile:
        ``"query"`` (QP) or ``"sequence"`` (SP) score addressing, as in
        :class:`InterTaskEngine`.
    block_cols:
        Optional cap on the database-column tile width.  Results are
        identical for any value.
    saturate_bits:
        Narrow compute width: 16 (default, also chosen for ``None``),
        8, or 64 to disable the narrow tier and compute everything at
        full width.
    """

    name = "vectorized"
    kernel = "numpy"

    def __init__(
        self,
        alphabet: Alphabet | None = None,
        lanes: int | None = None,
        profile: ProfileKind | str = ProfileKind.SEQUENCE,
        block_cols: int | None = None,
        saturate_bits: int | None = None,
    ) -> None:
        super().__init__(alphabet or PROTEIN)
        if lanes is None:
            lanes = DEFAULT_LANES["numpy"]
        if lanes < 1:
            raise EngineError(f"lane count must be positive, got {lanes}")
        if block_cols is not None and block_cols < 1:
            raise EngineError(f"block_cols must be positive, got {block_cols}")
        if saturate_bits not in (None, 8, 16, 64):
            raise EngineError(
                f"saturate_bits must be None, 8, 16 or 64, got {saturate_bits}"
            )
        self.lanes = lanes
        self.profile = ProfileKind.parse(profile)
        self.block_cols = block_cols
        self.saturate_bits = 16 if saturate_bits is None else saturate_bits
        self.stats = KernelStats()

    def score_group(
        self,
        query: np.ndarray,
        group: LaneGroup,
        matrix: SubstitutionMatrix,
        gaps: GapModel,
        *,
        _prepared: _Prepared | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Score one lane group; returns exact per-lane scores and redone lanes.

        The group is swept span by span (:func:`_length_spans`) at the
        narrow width; lanes whose best reached the saturation clamp are
        redone at full width (:meth:`_redo_wide`) and returned as the
        second element, so callers can account for them
        (``saturated_recomputed``).  When the narrow tier cannot
        represent the matrix or gap model the spans are swept at full
        width and nothing is redone.
        """
        prep = _prepared if _prepared is not None else self._prepare(query, matrix)
        tier = self._narrow_tier(prep, int(gaps.open), int(gaps.extend))
        if tier is None:
            table, qp, dtype, clamp, cap = (
                prep.ext_wide, prep.qp_wide, np.int64, None, self.block_cols
            )
        else:
            table, qp = prep.ext_narrow, prep.qp_narrow
            dtype, clamp, cap = tier
        best = np.zeros(group.lanes, dtype=np.int64)
        spans = _length_spans(group.lengths)
        for lanes in spans:
            best[lanes] = self._sweep_lanes(
                query, group, lanes, gaps, table, qp, dtype, clamp, cap
            )
        if clamp is None:
            self.stats.wide_sweeps += len(spans)
            return best, []
        self.stats.narrow_sweeps += len(spans)
        sat = [int(lane) for lane in np.flatnonzero(best >= clamp)]
        if sat:
            self._redo_wide(query, group, gaps, prep, sat, best)
        return best, sat

    def _prepare(self, query: np.ndarray, matrix: SubstitutionMatrix) -> _Prepared:
        """Batch-invariant tables: wide + (if representable) narrow."""
        a = matrix.data.astype(np.int64)
        qidx = query.astype(np.intp)
        pad_w = np.full((a.shape[0], 1), _PAD_SCORE_WIDE, dtype=np.int64)
        ext_w = np.ascontiguousarray(np.concatenate((a, pad_w), axis=1))
        qp_w = ext_w[qidx] if self.profile is ProfileKind.QUERY else None
        ext_n = qp_n = None
        if self.saturate_bits != 64:
            dtype = _WIDTH_DTYPES[self.saturate_bits]
            info = np.iinfo(dtype)
            clamp = (int(info.max) * 3) // 4
            vmax = int(a.max())
            vmin = int(a.min())
            # The matrix itself must be representable next to clamped H
            # values; otherwise fall back to the wide tier silently.
            if vmax <= int(info.max) - clamp and vmin >= -clamp:
                pad_n = np.full((a.shape[0], 1), -clamp, dtype=np.int64)
                ext_n = np.ascontiguousarray(
                    np.concatenate((a, pad_n), axis=1).astype(dtype)
                )
                qp_n = ext_n[qidx] if self.profile is ProfileKind.QUERY else None
        return _Prepared(
            ext_wide=ext_w,
            qp_wide=qp_w,
            ext_narrow=ext_n,
            qp_narrow=qp_n,
            vmax=int(a.max()),
        )

    # ------------------------------------------------------------------
    # two-tier helpers
    # ------------------------------------------------------------------
    def _narrow_tier(
        self, prep: _Prepared, qo: int, ge: int
    ) -> tuple[type, int, int | None] | None:
        """``(dtype, clamp, tile cap)`` of the narrow tier, or ``None``.

        The tile cap is the largest column-tile width keeping narrow
        intermediates in range: ``h~ + w*ge <= info_max`` for the rebased
        scan carry (``h~ <= clamp + vmax``) and ``qo + w*ge <= info_max``
        for the gap-cost subtraction (``None``: untiled).  ``None`` means
        the matrix or gap model cannot be computed narrowly at all.
        """
        if prep.ext_narrow is None:
            return None
        dtype = _WIDTH_DTYPES[self.saturate_bits]
        info_max = int(np.iinfo(dtype).max)
        clamp = (info_max * 3) // 4
        if qo + ge > info_max:
            return None
        cap = self.block_cols
        if ge:
            width = min(
                (info_max - clamp - prep.vmax) // ge, (info_max - qo) // ge
            )
            if width < 1:
                return None
            cap = min(width, cap or width)
        return dtype, clamp, cap

    def _sweep_lanes(
        self, query, group, lanes, gaps, table, qp, dtype, clamp, cap
    ) -> np.ndarray:
        """Sweep ``lanes`` of ``group``, trimmed to the longest of them."""
        lengths = group.lengths[lanes]
        n_sub = int(lengths.max())
        codes = np.minimum(group.codes[:n_sub, lanes], self.alphabet.size)
        mask = np.arange(n_sub)[:, None] < lengths[None, :]
        return self._lane_sweep(
            query, codes, mask, table, qp,
            int(gaps.open), int(gaps.first_gap_cost), int(gaps.extend),
            dtype, clamp, max(1, min(cap or n_sub, n_sub)),
        )

    def _redo_wide(
        self,
        query: np.ndarray,
        group: LaneGroup,
        gaps: GapModel,
        prep: _Prepared,
        sat: list[int],
        scores: np.ndarray,
    ) -> None:
        """Recompute saturated lanes at full int64 width, in place."""
        lanes = np.asarray(sat, dtype=np.intp)
        scores[lanes] = self._sweep_lanes(
            query, group, lanes, gaps, prep.ext_wide, prep.qp_wide,
            np.int64, None, self.block_cols,
        )
        self.stats.wide_sweeps += 1
        self.stats.redo_groups += 1
        self.stats.redo_lanes += len(sat)

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def _lane_sweep(
        self, query, codes, mask, table, qp, qo, go, ge, dtype, clamp, width
    ) -> np.ndarray:
        """Tiled lane sweep; one numpy op chain per query row per tile.

        ``table`` is the extended (pad-column) score table in ``dtype``;
        ``qp`` its query-profile gather for QP mode.  ``clamp`` enables
        saturating semantics (narrow tier); ``None`` computes exactly.
        Boundary state carried between tiles: the H column left of the
        tile (``col_in``/``col_out``) and the rebased prefix-scan carry,
        making tiling bit-identical to a single full-width pass.
        """
        m = len(query)
        n_max, L = codes.shape
        # ``np.take`` lays each residue's SP plane out contiguously;
        # ``table[:, codes]`` would stride every plane by the table rows.
        sp = (
            np.take(table, codes, axis=1)
            if self.profile is ProfileKind.SEQUENCE else None
        )
        qidx = query.astype(np.intp)
        best = np.zeros(L, dtype=dtype)
        multi = width < n_max
        if multi:
            col_in = np.zeros((m + 1, L), dtype=dtype)
            col_out = np.zeros((m + 1, L), dtype=dtype)
            carry = np.zeros((m, L), dtype=dtype)
            crow = np.empty(L, dtype=dtype)

        for u0 in range(0, n_max, width):
            u1 = min(u0 + width, n_max)
            w = u1 - u0
            mask_t = mask[u0:u1]
            full = bool(mask_t.all())
            codes_t = codes[u0:u1].astype(np.intp) if sp is None else None
            # Broadcast constants pre-tiled to (w, L): full-array ufunc
            # calls vectorise better than column-vector broadcasts.
            src_w = np.broadcast_to(
                (np.arange(1, w, dtype=np.int64) * ge).astype(dtype)[:, None],
                (max(w - 1, 0), L),
            ).copy()
            ecost = np.broadcast_to(
                (qo + np.arange(1, w + 1, dtype=np.int64) * ge)
                .astype(dtype)[:, None],
                (w, L),
            ).copy()
            wexit = dtype(w * ge)
            shifts = []
            s = 1
            while s < w:
                shifts.append(s)
                s <<= 1
            # ha/hb hold [H[i-1, u0-1], H[i-1, u0..u1-1]] so both the
            # diagonal (hp[:-1]) and the up-neighbour (hp[1:]) are views.
            ha = np.zeros((w + 1, L), dtype=dtype)
            hb = np.zeros((w + 1, L), dtype=dtype)
            fp = np.zeros((w, L), dtype=dtype)
            s1 = np.empty((w, L), dtype=dtype)
            t = np.empty((w, L), dtype=dtype)
            t2 = np.empty((w, L), dtype=dtype)
            colmax = np.zeros((w, L), dtype=dtype)
            # Array operands for the floor and the clamp: numpy runs the
            # narrow maximum/minimum against a scalar in a scalar loop.
            zero = np.zeros((w, L), dtype=dtype)
            if clamp is not None:
                ceiling = np.full((w, L), clamp, dtype=dtype)
            reach = w  # ge == 0 bounds nothing: full scan

            for i in range(m):
                v = sp[qidx[i], u0:u1] if sp is not None else qp[i][codes_t]
                hp, hn = ha, hb
                # f = max(H_up - go, f_prev - ge, 0)  — zero-floored F
                np.subtract(fp, ge, out=fp)
                np.subtract(hp[1:], go, out=s1)
                np.maximum(fp, s1, out=fp)
                np.maximum(fp, zero, out=fp)
                # h~ = max(diag + v, f); f >= 0 supplies the zero floor
                np.add(hp[:-1], v, out=s1)
                np.maximum(s1, fp, out=s1)
                # E via rebased prefix scan: t[j] covers sources < u0+j.
                # The scan is a double-buffered log-shift (Hillis-Steele):
                # ``np.maximum.accumulate`` falls back to a scalar inner
                # loop, and in-place shifted maxima trigger numpy's
                # overlap buffering — two ping-pong buffers keep every
                # step a full-speed non-overlapping ufunc call.
                t[0] = carry[i] if multi else 0
                if w > 1:
                    np.add(s1[:-1], src_w, out=t[1:])
                # Gap reach: a source d columns back adds at most
                # top - qo - d*ge, where top bounds every scanned source
                # (this row's h~ and the carried column).  Shifts below
                # ``reach`` cover every d <= reach; farther sources add
                # at most 0, so they cannot lift H over its zero floor.
                if ge:
                    top = int(s1.max())
                    if multi:
                        top = max(top, int(carry[i].max()))
                    reach = (top - qo - 1) // ge
                for s in shifts:
                    if s >= reach:
                        break
                    np.maximum(t[s:], t[:-s], out=t2[s:])
                    t2[:s] = t[:s]
                    t, t2 = t2, t
                if multi:
                    # carry out of the tile, rebased to u1, zero-floored
                    np.add(s1[-1], wexit, out=crow)
                    np.maximum(crow, t[-1], out=crow)
                    np.subtract(crow, wexit, out=crow)
                    np.maximum(crow, zero[0], out=crow)
                    carry[i] = crow
                # H = max(h~, t - (qo + len*ge)), saturating if narrow
                h = hn[1:]
                np.subtract(t, ecost, out=h)
                np.maximum(h, s1, out=h)
                if clamp is not None:
                    np.minimum(h, ceiling, out=h)
                np.maximum(colmax, h, out=colmax)
                if multi:
                    hn[0] = col_in[i + 1]
                    col_out[i + 1] = h[-1]
                ha, hb = hb, ha
            if not full:
                colmax = np.where(mask_t, colmax, 0)
            np.maximum(best, colmax.max(axis=0), out=best)
            if multi:
                col_in, col_out = col_out, col_in
        return best


def make_intertask_engine(
    kernel: str,
    *,
    alphabet: Alphabet | None = None,
    lanes: int | None = None,
    profile: ProfileKind | str = ProfileKind.SEQUENCE,
    block_cols: int | None = None,
) -> AlignmentEngine:
    """Construct the lane-parallel engine backing a kernel name.

    ``"python"`` is the instruction-faithful SIMD emulation
    (:class:`InterTaskEngine`); ``"numpy"`` the array-vectorised kernel
    (:class:`VectorizedEngine`).  ``lanes=None`` picks the kernel's
    default width from :data:`DEFAULT_LANES`.
    """
    if kernel not in KERNEL_NAMES:
        raise EngineError(
            f"unknown kernel {kernel!r}; available: {sorted(KERNEL_NAMES)}"
        )
    if lanes is None:
        lanes = DEFAULT_LANES[kernel]
    cls = InterTaskEngine if kernel == "python" else VectorizedEngine
    return cls(
        alphabet=alphabet,
        lanes=lanes,
        profile=profile,
        block_cols=block_cols,
    )
