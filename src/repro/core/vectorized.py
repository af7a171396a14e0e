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

* Lane groups are swept as *packed lanes* (:func:`_pack_lanes`,
  SWIPE's lane refill): their sequences are laid end to end, one pad
  column apart, in as few physical lanes as the narrow dtype's offset
  budget allows, and no sweep holds more than ``_SWEEP_CELLS`` padded
  cells.  A pad column scores like a pad, and per-segment offsets in the
  horizontal-gap scan keep a gap from crossing it, so every sequence
  scores as if it had a lane of its own (:meth:`VectorizedEngine._sweep`).
  Full-width sweeps give each sequence a lane of its own: their scores
  have no bound to size the offsets by.
* Consecutive lane groups whose real residues together fit one sweep
  form a *run* (:func:`lane_group_runs`) and share one packed plan
  (:meth:`VectorizedEngine.score_run`), so a database of small groups
  pays for one sweep per query row, not one per group.  The lane group
  stays the unit outside the kernel: scores, redone lanes and fault
  units are still reported per group.
* Each query row reads one contiguous sequence-profile plane per sweep.
* The prefix scan stops at the row's *gap reach*: past it, a horizontal
  gap cannot lift ``H`` over its zero floor.

Two-tier width strategy (the SWIPE / SSW recompute path):

* Scores are computed in a narrow element type (int16 by default,
  optionally int8) with values *clamped* at a saturation limit, exactly
  like saturating SIMD arithmetic.  A packed sweep lowers its limit to
  make room for its segment offsets.
* A sequence whose best reaches its sweep's limit is flagged, and only
  the flagged sequences are redone at full int64 width, each in a lane
  of its own, inside :meth:`VectorizedEngine.score_group` — the one
  narrow-then-redo ladder every search path runs.  Unflagged sequences
  are provably exact (clamping can only lower values, the first clamped
  real cell pins that sequence's maximum at the limit, and a pad column
  hands its neighbour a plain zero boundary either way).

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

import heapq
from dataclasses import dataclass
from typing import Sequence

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
    "lane_group_runs",
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

# Packed lanes (:func:`_pack_lanes`): no sweep holds more than
# ``_SWEEP_CELLS`` padded database cells, which bounds the sweep's
# temporaries (the SP planes alone take 25 x 2 bytes per cell at int16).
_SWEEP_CELLS = 45056
# A packed narrow sweep lowers its clamp to fit the segment offsets in
# the dtype; lanes hold at most as many sequences as keep that clamp at
# or above ``clamp // _CLAMP_FLOOR_DIV`` (6,143 at int16).  Scores above
# a sweep's clamp are redone at full width like any saturated lane.
_CLAMP_FLOOR_DIV = 4


def lane_group_runs(residues: Sequence[int]) -> list[range]:
    """Split consecutive lane groups into runs that share one packed plan.

    ``residues`` holds each group's real residues.  A run takes
    consecutive groups while their residues together fit one sweep
    (``_SWEEP_CELLS``); a group that fills a sweep by itself is a run
    of one.  Runs depend on nothing else, so every scan that forms
    them over the same groups sweeps the same plans.
    """
    runs: list[range] = []
    start = total = 0
    for g, n in enumerate(residues):
        if g > start and total + n > _SWEEP_CELLS:
            runs.append(range(start, g))
            start, total = g, 0
        total += int(n)
    if len(residues):
        runs.append(range(start, len(residues)))
    return runs


def _pack_lanes(
    lengths: Sequence[int] | np.ndarray, tile: int | None, segments: int
) -> list[list[list[int]]]:
    """Lay a run's sequences end to end in packed lanes.

    Returns the run's sweeps; a sweep is a list of packed lanes, and a
    packed lane the sequences (indices into ``lengths``) laid in it,
    one pad column apart.  Sequences are taken longest first (SWIPE's
    lane refill, planned up front): the first ``ceil(n / segments)``
    open a lane each, and every later one joins the shortest lane that
    still has room for it within one column tile and the
    ``_SWEEP_CELLS`` cap and holds fewer than ``segments`` sequences,
    or else opens a lane.  A sequence longer
    than the tile keeps a lane to itself (the tiled path).  Lanes are
    then swept longest first, each sweep trimmed to its first lane and
    holding at most ``_SWEEP_CELLS`` padded cells; a multi-tile lane
    never shares a sweep with a packed one.
    """
    sizes = np.asarray(lengths).tolist()
    # Longest first; an empty lane scores 0 without a sweep.
    order = sorted(
        (g for g in range(len(sizes)) if sizes[g]), key=lambda g: -sizes[g]
    )
    limit = min(tile or _SWEEP_CELLS, _SWEEP_CELLS)
    alone = sum(sizes[g] > limit for g in order)
    short = len(order) - alone
    first = alone - (-short // segments)
    lanes: list[list[int]] = []
    span: list[int] = []
    room: list[tuple[int, int]] = []  # (span, lane) of lanes with room
    for g in order:
        n = sizes[g]
        if len(lanes) < first or not room or room[0][0] + 1 + n > limit:
            lanes.append([g])
            span.append(n)
            p = len(lanes) - 1
        else:
            _, p = heapq.heappop(room)
            lanes[p].append(g)
            span[p] += 1 + n
        if n <= limit and len(lanes[p]) < segments:
            heapq.heappush(room, (span[p], p))

    def tiled(width: int) -> bool:
        return tile is not None and width > tile

    sweeps: list[list[list[int]]] = []
    for p in sorted(range(len(lanes)), key=lambda p: -span[p]):
        if (
            sweeps
            and (len(sweeps[-1]) + 1) * width <= _SWEEP_CELLS
            and tiled(span[p]) == tiled(width)
        ):
            sweeps[-1].append(lanes[p])
        else:
            sweeps.append([lanes[p]])
            width = span[p]
    return sweeps


@dataclass
class KernelStats:
    """Counters for the two-tier width strategy (engine-local).

    ``narrow_sweeps`` and ``wide_sweeps`` count kernel sweeps: one per
    packed sweep of a run at that width (:func:`_pack_lanes`), plus one
    wide sweep per redo.  ``redo_groups`` counts runs with a redo.
    ``redo_lanes`` is the counter the overflow tests assert on: it only
    moves when a saturated sequence was actually redone at full width.
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


@dataclass(frozen=True)
class _Tier:
    """The sweep parameters of one arithmetic width."""

    table: np.ndarray
    qp: np.ndarray | None
    dtype: type
    clamp: int | None  # None: exact int64 arithmetic
    tile: int | None  # column-tile width (None: untiled)
    segments: int  # most sequences per packed lane


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

    def runs(self, groups: Sequence[LaneGroup]) -> list[range]:
        """Consecutive groups sharing one packed plan (:func:`lane_group_runs`)."""
        return lane_group_runs([g.cells_per_query_row for g in groups])

    def score_run(
        self,
        query: np.ndarray,
        groups: Sequence[LaneGroup],
        matrix: SubstitutionMatrix,
        gaps: GapModel,
        *,
        _prepared: _Prepared | None = None,
    ) -> list[tuple[np.ndarray, list[int]]]:
        """Score a run of lane groups with one packed plan.

        Returns, per group, its exact per-lane scores and its redone
        lanes.  The run's sequences are swept as packed lanes
        (:func:`_pack_lanes`) at the narrow width; sequences whose best
        reached their sweep's clamp are redone at full width
        (:meth:`_redo_wide`) and reported under their group, so callers
        can account for them (``saturated_recomputed``).  When the
        narrow tier cannot represent the matrix or gap model the run is
        swept at full width, one sequence per lane, and nothing is
        redone.
        """
        prep = _prepared if _prepared is not None else self._prepare(query, matrix)
        tier = self._narrow_tier(prep, int(gaps.open), int(gaps.extend))
        narrow = tier is not None
        if not narrow:
            tier = self._wide_tier(prep)
        columns = [grp.codes[:, k] for grp in groups for k in range(grp.lanes)]
        sizes = np.concatenate([grp.lengths for grp in groups]).tolist()
        best = np.zeros(len(sizes), dtype=np.int64)
        sat: list[int] = []
        sweeps = _pack_lanes(sizes, tier.tile, tier.segments)
        for lanes in sweeps:
            seqs, got, clamp = self._sweep(
                query, columns, sizes, lanes, gaps, prep, tier
            )
            best[seqs] = got
            if narrow:
                sat.extend(seqs[got >= clamp].tolist())
        if narrow:
            self.stats.narrow_sweeps += len(sweeps)
        else:
            self.stats.wide_sweeps += len(sweeps)
        sat.sort()
        if sat:
            self._redo_wide(query, columns, sizes, gaps, prep, sat, best)
        out = []
        start = 0
        for grp in groups:
            stop = start + grp.lanes
            out.append(
                (best[start:stop], [s - start for s in sat if start <= s < stop])
            )
            start = stop
        return out

    def score_group(
        self,
        query: np.ndarray,
        group: LaneGroup,
        matrix: SubstitutionMatrix,
        gaps: GapModel,
        *,
        _prepared: _Prepared | None = None,
    ) -> tuple[np.ndarray, list[int]]:
        """Score one lane group as a run of its own (:meth:`score_run`)."""
        return self.score_run(query, [group], matrix, gaps, _prepared=_prepared)[0]

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
    def _narrow_tier(self, prep: _Prepared, qo: int, ge: int) -> _Tier | None:
        """The narrow tier's sweep parameters, or ``None``.

        The tile is the largest column-tile width keeping narrow
        intermediates in range: ``h~ + w*ge <= info_max`` for the rebased
        scan carry (``h~ <= clamp + vmax``) and ``qo + w*ge <= info_max``
        for the gap-cost subtraction (``None``: untiled).  ``segments``
        is the most sequences a packed lane may hold: the most that keep
        a full tile's packed clamp (:meth:`_sweep`) at or above
        ``clamp // _CLAMP_FLOOR_DIV``.  ``None`` means the matrix or gap
        model cannot be computed narrowly at all.
        """
        if prep.ext_narrow is None:
            return None
        dtype = _WIDTH_DTYPES[self.saturate_bits]
        info_max = int(np.iinfo(dtype).max)
        clamp = (info_max * 3) // 4
        if qo + ge > info_max:
            return None
        tile = self.block_cols
        if ge:
            width = min(
                (info_max - clamp - prep.vmax) // ge, (info_max - qo) // ge
            )
            if width < 1:
                return None
            tile = min(width, tile or width)
        room = info_max - qo - (tile or 0) * ge
        floor = clamp // _CLAMP_FLOOR_DIV + max(prep.vmax, 0) + 1
        return _Tier(
            prep.ext_narrow, prep.qp_narrow, dtype, clamp, tile,
            max(1, room // floor),
        )

    def _wide_tier(self, prep: _Prepared) -> _Tier:
        """Exact int64 sweeps, one sequence per lane.

        Wide scores have no bound, so no segment offset is sized to keep
        a horizontal gap from crossing a pad column.
        """
        return _Tier(
            prep.ext_wide, prep.qp_wide, np.int64, None, self.block_cols, 1
        )

    def _sweep(
        self,
        query: np.ndarray,
        columns: list[np.ndarray],
        sizes: list[int],
        lanes: list[list[int]],
        gaps: GapModel,
        prep: _Prepared,
        tier: _Tier,
    ) -> tuple[np.ndarray, np.ndarray, int | None]:
        """Sweep the packed ``lanes`` of a run in one pass.

        ``columns[k]`` holds sequence ``k``'s codes and ``sizes[k]`` its
        length.  Returns the sequences swept (lane by lane, in lane
        order), their best scores and the sweep's clamp.  A packed lane
        holds its sequences one pad column apart.  The pad column scores
        like a pad, so its H stays 0 and the next sequence starts as on
        a fresh zero boundary.  Segment ``k`` of a lane (its pad column
        included) adds ``k*B`` to both sides of the horizontal-gap scan,
        so a gap from an earlier segment scores below zero and never
        crosses a pad column.  ``B = clamp' + vmax + 1`` exceeds every
        ``h~``; ``s`` segments in a lane of ``w`` columns need
        ``s*B + w*ge + qo <= info_max`` and so set the sweep's clamp
        ``clamp'``.  Only narrow sweeps pack (:meth:`_wide_tier`).
        """
        seqs = np.array([g for lane in lanes for g in lane], dtype=np.intp)
        qo, ge = int(gaps.open), int(gaps.extend)
        pad = self.alphabet.size
        depth = max(len(lane) for lane in lanes)
        width = max(
            sum(sizes[g] for g in lane) + len(lane) - 1 for lane in lanes
        )
        clamp, offset, starts = tier.clamp, None, None
        codes = np.full((width, len(lanes)), pad, dtype=np.uint8)
        if depth == 1:
            for p, (g,) in enumerate(lanes):
                codes[:sizes[g], p] = columns[g][:sizes[g]]
        else:
            vmax = max(prep.vmax, 0)
            room = int(np.iinfo(tier.dtype).max) - qo - width * ge
            clamp = min(clamp, room // depth - vmax - 1)
            stride = clamp + vmax + 1
            offset = np.zeros((width, len(lanes)), dtype=tier.dtype)
            starts = []
            for p, lane in enumerate(lanes):
                pos = 0
                for k, g in enumerate(lane):
                    n = sizes[g]
                    codes[pos:pos + n, p] = columns[g][:n]
                    if k:
                        offset[pos - 1:, p] += stride
                    starts.append(p * width + pos)
                    pos += n + 1
        got = self._lane_sweep(
            query, codes, codes < pad, tier.table, tier.qp,
            qo, int(gaps.first_gap_cost), ge, tier.dtype, clamp,
            max(1, min(tier.tile or width, width)), offset, starts,
        )
        return seqs, got, clamp

    def _redo_wide(
        self,
        query: np.ndarray,
        columns: list[np.ndarray],
        sizes: list[int],
        gaps: GapModel,
        prep: _Prepared,
        sat: list[int],
        scores: np.ndarray,
    ) -> None:
        """Recompute saturated sequences at full int64 width, in place.

        Each saturated sequence gets a lane of its own; its packed
        neighbours keep their exact narrow scores.
        """
        seqs, got, _ = self._sweep(
            query, columns, sizes, [[g] for g in sat], gaps, prep,
            self._wide_tier(prep),
        )
        scores[seqs] = got
        self.stats.wide_sweeps += 1
        self.stats.redo_groups += 1
        self.stats.redo_lanes += len(sat)

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def _lane_sweep(
        self, query, codes, mask, table, qp, qo, go, ge, dtype, clamp, width,
        offset=None, starts=None,
    ) -> np.ndarray:
        """Tiled lane sweep; one numpy op chain per query row per tile.

        ``table`` is the extended (pad-column) score table in ``dtype``;
        ``qp`` its query-profile gather for QP mode.  ``clamp`` enables
        saturating semantics (narrow tier); ``None`` computes exactly.
        Boundary state carried between tiles: the H column left of the
        tile (``col_in``/``col_out``) and the rebased prefix-scan carry,
        making tiling bit-identical to a single full-width pass.
        Packed lanes (:meth:`_sweep`) fit one tile and pass their segment
        ``offset`` and flat lane-major segment ``starts``; the sweep then
        returns each segment's best instead of each lane's.
        """
        m = len(query)
        n_max, L = codes.shape
        # ``np.take`` lays each residue's SP plane out contiguously;
        # ``table[:, codes]`` would stride every plane by the table rows.
        # Only the query's own residues get a plane: the planes are the
        # sweep's largest temporary, and a short query uses few letters.
        sp = None
        if self.profile is ProfileKind.SEQUENCE:
            letters, rows = np.unique(query, return_inverse=True)
            sp = np.take(table[letters], codes, axis=1)
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
            if offset is not None:
                src_w += offset[u0:u1 - 1]
                ecost += offset[u0:u1]
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
                v = sp[rows[i], u0:u1] if sp is not None else qp[i][codes_t]
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
        if starts is not None:
            return np.maximum.reduceat(colmax.T.ravel(), starts)
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
