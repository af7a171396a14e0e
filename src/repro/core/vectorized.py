"""Array-vectorised inter-task Smith-Waterman kernel (the ``numpy`` kernel).

:class:`InterTaskEngine` realises the paper's inter-task scheme but still
walks the DP in Python loops — the SIMD layer only *counts* what a vector
unit would do.  This module is the genuinely array-parallel version:
database sequences are packed into ``(n_max, L)`` lane matrices (reusing
:func:`~repro.core.intertask.build_lane_groups` length-sorted packing) and
every DP anti-step is one numpy operation across the lanes —
``np.maximum`` / ``np.add`` over all of them at once, with the
horizontal-gap recurrence resolved by a log-step scan per query row.  No
Python loop over database position remains.

Byte first, then wider (the SWIPE / SSW recompute path):

* Each width is a *rung* with one fixed saturation clamp: int8 first,
  then int16, then exact int64 (:meth:`VectorizedEngine._rungs`).
  Scores are computed with values clamped at the rung's limit, exactly
  like saturating SIMD arithmetic.  A sequence whose best reaches the
  limit is redone at the next rung, in a lane of its own; every other
  sequence is provably exact (clamping can only lower values, and the
  first clamped real cell pins its sequence's maximum at the limit).
  A sequence is therefore redone iff its exact score reaches the first
  rung's clamp, whoever its lane neighbours are.
* The first rung sweeps *packed lanes* (:func:`_pack_lanes`, SWIPE's
  lane refill): a run's sequences are laid end to end, one pad column
  apart, and no sweep holds more than ``_SWEEP_CELLS`` padded cells
  (twice that at int8: the same bytes per array).  A pad column's H is
  held at 0 and a barrier in the gap scan keeps a horizontal gap from
  crossing it, so every sequence scores as if it had a lane of its own
  (:meth:`VectorizedEngine._lane_sweep`).
* Consecutive lane groups whose real residues together fit one sweep
  form a *run* (:func:`lane_group_runs`) and share one packed plan
  (:meth:`VectorizedEngine.score_run`), so a database of small groups
  pays for one sweep per query row, not one per group.  The lane group
  stays the unit outside the kernel: scores, redone lanes and fault
  units are still reported per group.
* Each query row reads one contiguous sequence-profile plane per sweep.

The horizontal gap is a *decay-doubling* scan (Snytsar's log-step scan):
``T1[j] = h~[j-1] - go``, then ``T2s[j] = max(Ts[j], Ts[j-s] - Ds[j])``
for ``s = 1, 2, 4, ...`` and ``E = T``.  ``Ds`` is ``s*ge``, or a
barrier where a pad column lies in ``[j-s, j]``.  Every ``T`` stays at
or above ``-go`` and never grows with the column index, so int8 needs
no headroom beyond the clamp.  The scan stops at the row's *gap reach*:
past it, a horizontal gap cannot lift ``H`` over its zero floor.
``F`` is kept zero-floored (``max(F, 0)``), which is exact because
``H >= 0`` makes ``max(d+v, F, 0) == max(d+v, max(F, 0), 0)``.

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

#: The rungs, narrowest first; ``saturate_bits`` picks the first.
_WIDTH_DTYPES = {8: np.int8, 16: np.int16, 64: np.int64}

# Wide-path pad poison (same role as InterTaskEngine's): wide sweeps
# give each sequence a lane, so pads are tail padding that never feeds
# a real cell; the poison just keeps their scores from mattering.
_PAD_SCORE_WIDE = np.int64(-(1 << 30))

# No sweep holds more than ``_SWEEP_CELLS`` padded database cells (twice
# that at int8), which bounds the sweep's temporaries: the SP planes
# alone take 25 x 2 bytes per cell at int16.
_SWEEP_CELLS = 45056


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
    lengths: Sequence[int] | np.ndarray,
    tile: int | None,
    cells: int,
    packed: bool = True,
) -> list[list[list[int]]]:
    """Lay a run's sequences end to end in packed lanes.

    Returns the run's sweeps; a sweep is a list of packed lanes, and a
    packed lane the sequences (indices into ``lengths``) laid in it,
    one pad column apart.  Sequences are taken longest first (SWIPE's
    lane refill, planned up front): the longest opens a lane, and every
    later one joins the shortest lane that still has room for it within
    one column tile and ``cells``, or else opens a lane.  A sequence
    longer than that keeps a lane to itself (the tiled path), and with
    ``packed=False`` every sequence does.  Lanes are then swept longest
    first, each sweep trimmed to its first lane and holding at most
    ``cells`` padded cells; a multi-tile lane never shares a sweep with
    a packed one.  Zero lengths are left out: an empty lane scores 0
    without a sweep.
    """
    sizes = np.asarray(lengths).tolist()
    order = sorted(
        (g for g in range(len(sizes)) if sizes[g]), key=lambda g: -sizes[g]
    )
    limit = min(tile or cells, cells)
    lanes: list[list[int]] = []
    span: list[int] = []
    room: list[tuple[int, int]] = []  # (span, lane) of lanes with room
    for g in order:
        n = sizes[g]
        if not room or room[0][0] + 1 + n > limit:
            lanes.append([g])
            span.append(n)
            p = len(lanes) - 1
        else:
            _, p = heapq.heappop(room)
            lanes[p].append(g)
            span[p] += 1 + n
        if packed and n <= limit:
            heapq.heappush(room, (span[p], p))

    def tiled(width: int) -> bool:
        return tile is not None and width > tile

    sweeps: list[list[list[int]]] = []
    for p in sorted(range(len(lanes)), key=lambda p: -span[p]):
        if (
            sweeps
            and (len(sweeps[-1]) + 1) * width <= cells
            and tiled(span[p]) == tiled(width)
        ):
            sweeps[-1].append(lanes[p])
        else:
            sweeps.append([lanes[p]])
            width = span[p]
    return sweeps


@dataclass
class KernelStats:
    """Counters of the byte-first width ladder (engine-local).

    ``narrow_sweeps`` counts sweeps at a clamped width (int8 or int16)
    and ``wide_sweeps`` sweeps at exact int64: one per packed sweep of a
    run at its first rung, plus one per redo sweep.  ``redo_groups``
    counts runs with a redo.  ``redo_lanes`` is the counter the overflow
    tests assert on: it counts each sequence redone past its first rung
    once, however many rungs it climbed.
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
    """Query/matrix-dependent tables shared across lane groups.

    ``tables`` maps each width the matrix fits (from ``saturate_bits``
    up) to its extended score table and, in QP mode, its query rows.
    """

    tables: dict[int, tuple[np.ndarray, np.ndarray | None]]
    vmax: int


@dataclass(frozen=True)
class _Rung:
    """The sweep parameters of one arithmetic width."""

    table: np.ndarray
    qp: np.ndarray | None
    dtype: type
    clamp: int | None  # None: exact int64 arithmetic
    reach: int | None  # farthest gap that can lift H (None: unbounded)
    cells: int  # padded cells per sweep


def _narrow_clamp(info_max: int, vmax: int, qo: int, ge: int) -> int | None:
    """The largest clamp whose gap scan stays in range, or ``None``.

    The clamp ``C`` bounds ``h~`` by ``C + vmax <= info_max``, and every
    scan candidate by ``T >= -go``.  A doubling step ``s`` runs only
    below the reach cap ``(C + vmax - qo - 1) // ge`` and subtracts
    ``s*ge``, so each step below the cap must keep ``-go - s*ge >=
    -info_max``.  With ``step`` the largest power of two that does, the
    cap may be at most ``2*step`` (at most 1 when no step fits), which
    bounds ``C`` by ``(cap + 1)*ge + qo - vmax``.
    """
    go = qo + ge
    if go > info_max:
        return None
    clamp = info_max - vmax
    if ge:
        most = (info_max - go) // ge
        step = 1 << (most.bit_length() - 1) if most else 0
        clamp = min(clamp, (max(2 * step, 1) + 1) * ge + qo - vmax)
    return clamp if clamp >= 1 else None


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
        The first rung of the width ladder: 8 (default, also chosen for
        ``None``) sweeps int8 first and redoes past its clamp at int16,
        then int64; 16 starts at int16; 64 computes everything at full
        width.  A rung the matrix or gap model does not fit is skipped.
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
        self.saturate_bits = 8 if saturate_bits is None else saturate_bits
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
        (:func:`_pack_lanes`) at the first rung; sequences whose best
        reached a rung's clamp are redone at the next rung, each in a
        lane of its own, and reported once under their group, so
        callers can account for them (``saturated_recomputed``).
        """
        prep = _prepared if _prepared is not None else self._prepare(query, matrix)
        rungs = self._rungs(prep, int(gaps.open), int(gaps.extend))
        columns = [grp.codes[:, k] for grp in groups for k in range(grp.lanes)]
        sizes = np.concatenate([grp.lengths for grp in groups])
        best = np.zeros(len(sizes), dtype=np.int64)
        todo, sat = sizes, []
        for k, rung in enumerate(rungs):
            sweeps = _pack_lanes(
                todo, self.block_cols, rung.cells,
                packed=k == 0 and rung.clamp is not None,
            )
            over: list[int] = []
            for lanes in sweeps:
                seqs, got = self._sweep(
                    query, columns, sizes, lanes, gaps, rung
                )
                best[seqs] = got
                if rung.clamp is not None:
                    over.extend(seqs[got >= rung.clamp].tolist())
            if rung.clamp is None:
                self.stats.wide_sweeps += len(sweeps)
            else:
                self.stats.narrow_sweeps += len(sweeps)
            if not over:
                break
            if k == 0:
                sat = sorted(over)
                self.stats.redo_groups += 1
                self.stats.redo_lanes += len(sat)
            todo = np.zeros_like(sizes)
            todo[over] = sizes[over]
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
        """Batch-invariant tables, one per width the matrix fits.

        A narrow table's pad column scores the dtype minimum: its
        diagonal input is at most the clamp, so ``h~`` there is the
        zero-floored F.
        """
        a = matrix.data.astype(np.int64)
        qidx = query.astype(np.intp)
        tables = {}
        for bits, dtype in _WIDTH_DTYPES.items():
            if bits < self.saturate_bits:
                continue
            pad = _PAD_SCORE_WIDE
            if bits < 64:
                info = np.iinfo(dtype)
                if a.min() < info.min or a.max() >= info.max:
                    continue
                pad = info.min
            pads = np.full((a.shape[0], 1), pad, dtype=np.int64)
            ext = np.ascontiguousarray(
                np.concatenate((a, pads), axis=1).astype(dtype)
            )
            tables[bits] = (
                ext, ext[qidx] if self.profile is ProfileKind.QUERY else None
            )
        return _Prepared(tables=tables, vmax=int(a.max()))

    def _rungs(self, prep: _Prepared, qo: int, ge: int) -> list[_Rung]:
        """The widths a run climbs, narrowest first, ending at int64.

        A narrow rung runs when the matrix fits its dtype and the gap
        model leaves a clamp of at least 1 (:func:`_narrow_clamp`).
        """
        rungs = []
        for bits, (table, qp) in prep.tables.items():
            dtype = _WIDTH_DTYPES[bits]
            clamp = reach = None
            if bits < 64:
                clamp = _narrow_clamp(
                    int(np.iinfo(dtype).max), prep.vmax, qo, ge
                )
                if clamp is None:
                    continue
                if ge:
                    reach = (clamp + prep.vmax - qo - 1) // ge
            cells = 2 * _SWEEP_CELLS if bits == 8 else _SWEEP_CELLS
            rungs.append(_Rung(table, qp, dtype, clamp, reach, cells))
        return rungs

    def _sweep(
        self,
        query: np.ndarray,
        columns: list[np.ndarray],
        sizes: np.ndarray,
        lanes: list[list[int]],
        gaps: GapModel,
        rung: _Rung,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sweep the packed ``lanes`` of a run in one pass.

        ``columns[k]`` holds sequence ``k``'s codes and ``sizes[k]`` its
        length.  Returns the sequences swept (lane by lane, in lane
        order) and their best scores.  A packed lane holds its sequences
        one pad column apart; the sweep keeps each sequence's cells from
        reaching its neighbours' (:meth:`_lane_sweep`).
        """
        seqs = np.array([g for lane in lanes for g in lane], dtype=np.intp)
        pad = self.alphabet.size
        width = max(
            sum(int(sizes[g]) for g in lane) + len(lane) - 1 for lane in lanes
        )
        codes = np.full((width, len(lanes)), pad, dtype=np.uint8)
        starts = []
        for p, lane in enumerate(lanes):
            pos = 0
            for g in lane:
                n = int(sizes[g])
                codes[pos:pos + n, p] = columns[g][:n]
                starts.append(p * width + pos)
                pos += n + 1
        packed = len(starts) > len(lanes)
        got = self._lane_sweep(
            query, codes, gaps, rung, starts if packed else None
        )
        return seqs, got

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------
    def _lane_sweep(
        self,
        query: np.ndarray,
        codes: np.ndarray,
        gaps: GapModel,
        rung: _Rung,
        starts: list[int] | None = None,
    ) -> np.ndarray:
        """Tiled lane sweep; one numpy op chain per query row per tile.

        ``rung`` supplies the extended (pad-column) score table in its
        dtype, its query-profile gather for QP mode, and the clamp
        (``None`` computes exactly).  Boundary state carried between
        tiles: the H column left of the tile (``col_in``/``col_out``)
        and the gap scan's carry, making tiling bit-identical to a
        single full-width pass.  Packed lanes (:meth:`_sweep`) fit one
        tile and pass their flat lane-major sequence ``starts``; the
        sweep then returns each sequence's best instead of each lane's.
        """
        m = len(query)
        n_max, L = codes.shape
        dtype, clamp, table, qp = rung.dtype, rung.clamp, rung.table, rung.qp
        qo, ge, go = int(gaps.open), int(gaps.extend), int(gaps.first_gap_cost)
        # 0-d operands in the sweep's dtype: a Python int operand costs a
        # conversion per call, which small sweeps notice.
        ge_, go_, qo_ = (np.array(x, dtype=dtype) for x in (ge, go, qo))
        mask = codes < self.alphabet.size
        width = min(self.block_cols or n_max, n_max)
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
            codes_t = codes[u0:u1].astype(np.intp) if sp is None else None
            shifts = []
            s = 1
            while s < w and (rung.reach is None or s < rung.reach):
                shifts.append(s)
                s <<= 1
            # Packed lanes decay by an array: ``s*ge``, or the barrier
            # where a pad column lies in [j-s, j].  The barrier drops a
            # crossing candidate to at most C + vmax - info_max <= 0.
            if starts is None:
                decay = [np.array(s * ge, dtype=dtype) for s in shifts]
            else:
                decay = _barrier_decays(
                    mask_t, shifts, ge, int(np.iinfo(dtype).max) - go, dtype
                )
            # hp holds [H[i-1, u0-1], H[i-1, u0..u1-1]] so both the
            # diagonal (hp[:-1]) and the up-neighbour (hp[1:]) are views;
            # row i's H overwrites it once both have been read.
            hp = np.zeros((w + 1, L), dtype=dtype)
            fp = np.zeros((w, L), dtype=dtype)
            s1 = np.empty((w, L), dtype=dtype)
            t = np.empty((w, L), dtype=dtype)
            back = np.empty((w, L), dtype=dtype)
            colmax = np.zeros((w, L), dtype=dtype)
            # Array operands for the floor and the clamp: numpy runs the
            # narrow maximum/minimum against a scalar in a scalar loop.
            # The clamp is 0 on pad columns, so H stays 0 there.
            zero = np.zeros((w, L), dtype=dtype)
            if clamp is not None:
                ceiling = np.zeros((w, L), dtype=dtype)
                np.copyto(ceiling, dtype(clamp), where=mask_t)
            reach = w  # ge == 0 bounds nothing: full scan
            # Every view the row loop reads is made once per tile: a
            # slice costs about as much as a small ufunc call.
            h, diag = hp[1:], hp[:-1]
            src, dst = s1[:-1], t[1:]
            steps = [
                (s, t[:-s], back[s:], t[s:], d) for s, d in zip(shifts, decay)
            ]
            if sp is not None:
                planes = [sp[k, u0:u1] for k in range(len(sp))]
            t[0] = -go  # no gap source left of a lane

            for i in range(m):
                v = planes[rows[i]] if sp is not None else qp[i][codes_t]
                # f = max(H_up - go, f_prev - ge, 0)  — zero-floored F
                np.subtract(fp, ge_, out=fp)
                np.subtract(h, go_, out=s1)
                np.maximum(fp, s1, out=fp)
                np.maximum(fp, zero, out=fp)
                # h~ = max(diag + v, f); f >= 0 supplies the zero floor
                np.add(diag, v, out=s1)
                np.maximum(s1, fp, out=s1)
                # E by decay-doubling: T1[j] = h~[j-1] - go (the carried
                # column at j = 0), then T[j] = max(T[j], T[j-s] - D[j]).
                # The shifted operand goes to its own buffer first, so
                # every step is two non-overlapping ufunc calls.
                if multi:
                    np.subtract(carry[i], go_, out=t[0])
                np.subtract(src, go_, out=dst)
                # Gap reach: a source d columns back adds at most
                # top - qo - d*ge, where top bounds every scanned source
                # (this row's h~ and the carried column).  Steps below
                # ``reach`` cover every d <= reach; farther sources add
                # at most 0, so they cannot lift H over its zero floor.
                if ge:
                    top = int(s1.max())
                    if multi:
                        top = max(top, int(carry[i].max()))
                    reach = (top - qo - 1) // ge
                for s, shifted, cand, tail, d in steps:
                    if s >= reach:
                        break
                    np.subtract(shifted, d, out=cand)
                    np.maximum(tail, cand, out=tail)
                if multi:
                    # carry out of the tile: the best gap source for the
                    # next tile's first column, gap opened at u1 - 1
                    np.add(t[-1], qo_, out=crow)
                    np.maximum(crow, s1[-1], out=crow)
                    carry[i] = crow
                # H = max(h~, E), saturating if narrow
                np.maximum(s1, t, out=h)
                if clamp is not None:
                    np.minimum(h, ceiling, out=h)
                np.maximum(colmax, h, out=colmax)
                if multi:
                    hp[0] = col_in[i + 1]
                    col_out[i + 1] = h[-1]
            if clamp is None and not mask_t.all():
                colmax = np.where(mask_t, colmax, 0)
            np.maximum(best, colmax.max(axis=0), out=best)
            if multi:
                col_in, col_out = col_out, col_in
        if starts is not None:
            return np.maximum.reduceat(colmax.T.ravel(), starts)
        return best


def _barrier_decays(
    mask: np.ndarray, shifts: list[int], ge: int, barrier: int, dtype: type
) -> list[np.ndarray]:
    """Per doubling step ``s``, the decay of ``T[j-s]`` for ``j >= s``.

    It is ``s*ge``, or ``barrier`` where a pad column (``~mask``) lies
    in the closed interval ``[j-s, j]``.  The windows double with the
    steps (``[j-2s, j]`` is ``[j-s, j]`` or ``[j-2s, j-s]``), built as
    boolean arrays, so no wide temporary of sweep size is made.
    """
    pad = ~mask
    win = pad[1:] | pad[:-1]
    out = []
    for s in shifts:
        d = np.full(win.shape, s * ge, dtype=dtype)
        np.copyto(d, dtype(barrier), where=win)
        out.append(d)
        win = win[s:] | win[:-s]
    return out


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
