"""Array seed-and-verify: the seeding and banded stages as array passes.

The per-sequence loop of BLAST-style seeding walks every database
position, looks its word up, and extends each qualifying hit with one
Python call.  :class:`ArraySeeder` does the same work over a whole batch
of sequences at once, with the loop's exact results:

* **Lookup.** The batch's codes are concatenated and packed into words
  in one rolling pass; the query's :class:`~repro.heuristic.kmer.WordTable`
  turns every position into its run of query positions, so hits come
  out in the loop's own ``(j, i)`` order.
* **Rounds.** The loop's two order-dependent rules (a hit inside an
  extended region of its diagonal is skipped; under two-hit, a hit
  extends only ``k..two_hit_window`` residues after the previous
  unskipped hit of its diagonal) act per diagonal.  So hits are grouped
  by ``(sequence, diagonal)`` and each round extends the next qualifying
  hit of every group at once, until no group has one left.
* **Extension.** One round's candidates run the X-drop walk of
  :func:`~repro.heuristic.extend.ungapped_extend` in lockstep, right
  then left, ``_EXTEND_BLOCK`` steps per array pass.
* **Verify.** :meth:`ArraySeeder.verify` runs
  :func:`~repro.heuristic.extend.gapped_extend`'s banded DP for many
  sequences as lanes: each query row is one ``(lanes, 2 * band + 1)``
  array pass, with the horizontal gap resolved by a prefix max.

Working memory is bounded by the module constants: a batch holds at
most ``_SEED_RESIDUES`` database residues (or one longer record), a
window of it at most ``_SEED_HITS`` word hits plus one position's
worth, and a verify pass at most ``_VERIFY_CELLS`` band cells per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import EngineError
from ..scoring.gaps import GapModel
from ..scoring.matrices import SubstitutionMatrix
from .kmer import WordTable

__all__ = ["ArraySeeder", "Refined", "SeedResult"]

#: Database residues concatenated per seeding batch (whole records).
_SEED_RESIDUES = 1 << 14
#: Word hits resolved per window of a batch.
_SEED_HITS = 1 << 12
#: X-drop steps per lockstep array pass, and walks per pass.
_EXTEND_BLOCK = 16
_EXTEND_LANES = 1 << 10
#: Lanes x band slots of one verify pass.
_VERIFY_CELLS = 1 << 13

# "No previous hit" for the two-hit rule: farther back than any window.
_NO_HIT = -(1 << 40)


@dataclass
class SeedResult:
    """Best ungapped HSP of every sequence, as arrays indexed by sequence.

    A sequence with at least one extension has ``found`` set; its HSP is
    the first best-scoring extension in the loop's ``(j, i)`` hit order,
    seeded at ``(qpos, dpos)`` and spanning ``[qstart, qend)`` x
    ``[dstart, dend)``.  ``cells`` counts extension cells per sequence;
    ``hits`` and ``extensions`` total the word hits and extensions.
    """

    found: np.ndarray
    score: np.ndarray
    qpos: np.ndarray
    dpos: np.ndarray
    qstart: np.ndarray
    qend: np.ndarray
    dstart: np.ndarray
    dend: np.ndarray
    cells: np.ndarray
    hits: int = 0
    extensions: int = 0

    @classmethod
    def empty(cls, n: int) -> "SeedResult":
        z = [np.zeros(n, dtype=np.int64) for _ in range(8)]
        return cls(np.zeros(n, dtype=bool), *z)


@dataclass
class Refined:
    """Banded gapped refinement of verified sequences, in input order.

    The fields of :class:`~repro.heuristic.extend.Extension` as arrays:
    the refinement window starts at ``(qstart, dstart)`` and the best
    cell ends at ``(qend, dend)``, exclusive.
    """

    score: np.ndarray
    qstart: np.ndarray
    qend: np.ndarray
    dstart: np.ndarray
    dend: np.ndarray
    cells: np.ndarray


class ArraySeeder:
    """Seeds and verifies database sequences against one query.

    ``table`` is the query's word table; ``x_drop``, ``two_hit`` and
    ``two_hit_window`` mean what they mean to
    :class:`~repro.heuristic.MiniBlast`.
    """

    def __init__(
        self,
        query: np.ndarray,
        table: WordTable,
        matrix: SubstitutionMatrix,
        *,
        x_drop: int,
        two_hit: bool = False,
        two_hit_window: int = 40,
    ) -> None:
        if x_drop < 0:
            raise EngineError(f"x_drop must be non-negative, got {x_drop}")
        self.query = np.asarray(query, dtype=np.intp)
        self.table = table
        self.word_hits = np.diff(table.offsets).astype(np.int32)
        self.k = table.k
        self.x_drop = x_drop
        self.two_hit = two_hit
        self.two_hit_window = two_hit_window
        # Code ``pad`` scores below -x_drop against everything: an X-drop
        # walk stops on the first pad it meets, so ``block`` pads around
        # the query and around every record keep each block in bounds.
        self.pad = matrix.size
        self.block = _EXTEND_BLOCK
        sub = np.full((self.pad + 1, self.pad + 1), -(x_drop + 1), np.int64)
        sub[: self.pad, : self.pad] = matrix.data
        # Largest magnitude a walk or a band row can reach; int32 unless
        # that could wrap.
        self.magnitude = int(np.abs(sub).max()) * (
            len(self.query) + 2 * self.block
        )
        self.dtype = np.int32 if self.magnitude < 1 << 30 else np.int64
        # Query profile over the padded query: the score of padded query
        # position p against code c is profile[p * stride + c].
        edge = np.full(self.block, self.pad, dtype=np.intp)
        self.stride = self.pad + 1
        self.profile = sub[np.concatenate([edge, self.query, edge])].ravel()
        self.profile = self.profile.astype(self.dtype)

    # ------------------------------------------------------------------
    # stage 1: seeding
    # ------------------------------------------------------------------
    def seed(self, seqs, *, deadline=None) -> SeedResult:
        """Best ungapped HSP of every sequence in ``seqs``."""
        out = SeedResult.empty(len(seqs))
        lengths = np.fromiter((len(s) for s in seqs), np.int64, len(seqs))
        upto = np.cumsum(lengths)
        lo = 0
        while lo < len(seqs):
            done = int(upto[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(
                upto, done + _SEED_RESIDUES, side="right"
            )))
            if deadline is not None:
                deadline.check("tiered seed stage")
            batch = _Batch(seqs[lo:hi], lengths[lo:hi], self.block, self.pad)
            if (batch.lengths >= self.k).any():
                out.hits += self._seed_batch(batch)
            batch.store(out, lo, self.k)
            lo = hi
        return out

    def _seed_batch(self, batch: "_Batch") -> int:
        """Seed one batch; returns its word-hit count."""
        k, m, table = self.k, len(self.query), self.table
        codes, starts, lengths = batch.codes, batch.starts, batch.lengths
        n = len(codes) - k + 1
        # Pads pack past the table's last word; int32 holds that too.
        wide = table.base ** (k + 1) >= 1 << 31
        words = np.zeros(n, dtype=np.int64 if wide else np.int32)
        for t in range(k):
            words *= table.base
            words += codes[t : n + t]
        np.minimum(words, len(self.word_hits) - 1, out=words)
        counts = self.word_hits[words]
        # Only words lying wholly inside one record look anything up.
        whole = lengths >= k
        edge = np.zeros(n + 1, dtype=np.int8)
        edge[starts[whole]] = 1
        edge[(starts + lengths - k + 1)[whole]] = -1
        counts[np.cumsum(edge[:n], dtype=np.int8) == 0] = 0
        ends = np.cumsum(counts, dtype=np.int64)

        carry = _DiagonalState.fresh()
        p0 = 0
        while p0 < n:
            done = int(ends[p0 - 1]) if p0 else 0
            p1 = max(p0 + 1, int(np.searchsorted(
                ends, done + _SEED_HITS, side="right"
            )))
            # Hits of positions p0..p1-1: concat position and query position.
            cnt = counts[p0:p1]
            total = int(ends[p1 - 1]) - done
            if total:
                at = np.flatnonzero(cnt)
                reps = cnt[at]
                pos = np.repeat(at + p0, reps)
                qpos = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
                qpos += np.repeat(table.offsets[words[at + p0]], reps)
                qpos = table.positions[qpos]
                # (sequence, diagonal) key; sorting it keeps j order.
                key = batch.owner(pos) * m
                key += pos
                key -= qpos
                order = np.argsort(key, kind="stable")
                key, pos, qpos = key[order], pos[order], qpos[order]
                del order
                carry = self._resolve(key, pos, qpos, carry, p1, batch)
            p0 = p1
        return int(ends[-1])

    def _resolve(self, key, pos, qpos, carry, p_next, batch) -> "_DiagonalState":
        """Apply the diagonal rules to one window of hits, in rounds.

        Hits come sorted by ``key``, their (sequence, diagonal), and by
        concat position ``pos`` within it; ``carry`` is the state of
        diagonals that earlier windows of the batch left covered or
        pending.  Returns the state to carry into the window starting at
        concat position ``p_next``.
        """
        k, w = self.k, self.two_hit_window
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        bound = np.r_[first[1:], len(key)]
        gkey = key[first]
        covered, last = carry.lookup(gkey)
        # Group-separated positions: one searchsorted finds, per group,
        # the first hit past its covered end.
        base = int(pos.min())
        span = int(pos.max()) - base + 2
        flat = np.repeat(np.arange(len(first)) * span, bound - first)
        flat += pos - base
        if self.two_hit:
            gap = np.r_[_NO_HIT, pos[1:] - pos[:-1]]
            gap[first] = _NO_HIT
            ok = np.where((gap >= k) & (gap <= w), np.arange(len(key)), len(key))
            next_ok = np.r_[np.minimum.accumulate(ok[::-1])[::-1], len(key)]

        live = np.arange(len(first))
        while live.size:
            c = np.clip(covered[live] - base, -1, span - 1)
            at = np.searchsorted(flat, live * span + c, side="right")
            has = at < bound[live]
            live, at = live[has], at[has]
            if self.two_hit and live.size:
                gap = pos[at] - last[live]
                nxt = next_ok[at + 1]
                at = np.where((gap >= k) & (gap <= w), at, nxt)
                has = at < bound[live]
                live, at = live[has], at[has]
            if not live.size:
                break
            covered[live] = self._extend(pos[at], qpos[at], batch)
            last[live] = pos[at]
        if not self.two_hit:
            return carry.merge(gkey, covered, last, p_next, 0)
        # Every hit past the covered end moved its diagonal's last hit.
        tail = pos[bound - 1]
        last = np.where(tail > covered, tail, last)
        return carry.merge(gkey, covered, last, p_next, w)

    def _extend(self, pos, qpos, batch: "_Batch") -> np.ndarray:
        """Extend one round of hits; returns each one's concat ``dend``."""
        k, m, b = self.k, len(self.query), self.block
        qpos = qpos.astype(np.int64)
        seq = batch.owner(pos)
        start = batch.starts[seq]
        row = (qpos + b) * self.stride
        core = np.zeros(len(pos), dtype=np.int64)
        for t in range(k):
            core += self.profile[row + t * self.stride + batch.codes[pos + t]]
        right, r_best, r_steps = self._xdrop(
            row + k * self.stride, pos + k, 1, batch.codes
        )
        left, l_best, l_steps = self._xdrop(
            row - self.stride, pos - 1, -1, batch.codes
        )
        # A walk that ran into a pad took one step too many.
        cells = (
            k
            + np.minimum(r_steps, np.minimum(
                m - qpos - k, start + batch.lengths[seq] - pos - k
            ))
            + np.minimum(l_steps, np.minimum(qpos, pos - start))
        )
        batch.offer(seq, core + l_best + r_best, pos, qpos, left, right, cells)
        return pos + k + right

    def _xdrop(self, row, di, step, codes):
        """Lockstep X-drop walks from ``(row, di)`` in direction ``step``.

        ``row`` is each walk's first profile row offset, ``di`` its first
        concat position.  Each walk stops after the first step whose
        running score falls more than ``x_drop`` below its best (a pad
        always does).  Returns ``(reach, best, steps)`` per walk: the
        step count of the first best prefix (0 if none is positive), its
        score, and the steps taken.
        """
        n, b, x = len(row), self.block, self.x_drop
        reach = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
        steps = np.zeros(n, dtype=np.int64)
        ramp = step * np.arange(b)
        ramp_q = (ramp * self.stride).astype(np.int32)
        ramp = ramp.astype(np.int32)
        row, di = row.astype(np.int32), di.astype(np.int32)
        for c0 in range(0, n, _EXTEND_LANES):
            live = np.arange(c0, min(n, c0 + _EXTEND_LANES))
            run = np.zeros(len(live), dtype=self.dtype)
            best = np.zeros(len(live), dtype=self.dtype)
            off = 0
            while live.size:
                idx = codes[di[live, None] + (ramp + np.int32(step * off))]
                idx = idx + row[live, None]
                idx += ramp_q + np.int32(step * off * self.stride)
                cum = np.cumsum(self.profile[idx], axis=1, dtype=self.dtype)
                cum += run[:, None]
                peak = np.maximum(cum, best[:, None])
                np.maximum.accumulate(peak, axis=1, out=peak)
                stop = cum < peak - x
                ended = stop.any(axis=1)
                at = np.where(ended, stop.argmax(axis=1), b - 1)
                new_best = peak[np.arange(len(live)), at]
                rose = new_best > best
                first = (cum == new_best[:, None]).argmax(axis=1)
                reach[live[rose]] = off + first[rose] + 1
                top[live] = new_best
                steps[live] = off + at + 1
                keep = ~ended
                live, run, best = live[keep], cum[keep, -1], new_best[keep]
                off += b
        return reach, top, steps

    # ------------------------------------------------------------------
    # stage 2: banded verify
    # ------------------------------------------------------------------
    def verify(
        self,
        seqs,
        index: np.ndarray,
        seeds: SeedResult,
        gaps: GapModel,
        *,
        window: int,
        band: int,
    ) -> Refined:
        """Banded gapped refinement around the best HSP of ``seqs[index]``.

        Per sequence this is :func:`~repro.heuristic.extend.gapped_extend`
        at the HSP's seed with window ``max(window, HSP length + 2 *
        band)``, reported as ``gapped_extend`` reports it.
        """
        if window < 1:
            raise EngineError(f"window must be positive, got {window}")
        if band < 0:
            raise EngineError(f"band width must be non-negative, got {band}")
        k, m = self.k, len(self.query)
        index = np.asarray(index, dtype=np.int64)
        i, j = seeds.qpos[index], seeds.dpos[index]
        lengths = np.fromiter((len(seqs[s]) for s in index), np.int64,
                              len(index))
        win = np.maximum(window, seeds.qend[index] - seeds.qstart[index]
                         + 2 * band)
        q0 = np.maximum(0, i - win)
        q1 = np.minimum(m, i + k + win)
        d0 = np.maximum(0, j - win)
        d1 = np.minimum(lengths, j + k + win)
        rows, cols = q1 - q0, d1 - d0
        offset = (j - d0) - (i - q0)
        out = Refined(*(np.zeros(len(index), dtype=np.int64) for _ in range(6)))
        out.qstart[:], out.dstart[:] = q0, d0
        lanes = max(1, _VERIFY_CELLS // (2 * band + 1))
        edge = np.full(1, self.pad, dtype=np.uint8)
        order = np.argsort(-rows, kind="stable")
        for g in range(0, len(order), lanes):
            sel = order[g : g + lanes]
            # Each lane's database window, with a pad on either side.
            dpad = np.concatenate(
                [part for s, a, b in zip(index[sel], d0[sel], d1[sel])
                 for part in (edge, seqs[s][a:b])] + [edge]
            )
            out.score[sel], bi, bj, out.cells[sel] = self._band_lanes(
                q0[sel], rows[sel], cols[sel], offset[sel], dpad, gaps, band,
            )
            out.qend[sel] = q0[sel] + np.where(bi > 0, bi, rows[sel])
            out.dend[sel] = d0[sel] + np.where(bj > 0, bj, cols[sel])
        return out

    def _band_lanes(self, q0, rows, cols, offset, dpad, gaps, band):
        """:class:`~repro.core.banded.BandedEngine`'s DP, one lane per pair.

        Lane ``l`` aligns ``query[q0:q0 + rows]`` with its window of
        ``dpad`` (``cols`` residues between pads) in the band
        ``|j - i - offset| <= band``; lanes come longest first, and a
        lane leaves the sweep after its last row.  ``H`` and ``F`` are
        kept zero-floored, which leaves every ``H`` exact because
        ``H >= 0``.  A slot off the window's left end reads a pad and
        stays 0, like the scalar's zero boundary; one off its right end
        only ever holds less than a real cell to its left or above, so
        it neither feeds a real cell nor wins the maximum.  Returns
        ``(score, row, col, cells)``: the best score, the first cell in
        row-major order reaching it (1-based; 0 when the score is 0),
        and the band's cell count.
        """
        go, ge = int(gaps.first_gap_cost), int(gaps.extend)
        n, width = len(q0), 2 * band + 1
        slot = np.arange(width)
        col0 = (offset - band)[:, None] + slot  # window column on row 0
        left = (np.cumsum(cols + 1) - cols - 1)[:, None]  # left pad
        right = (cols + 1)[:, None]
        wide = self.magnitude + go + (width + 1) * ge >= 1 << 30
        dtype = np.int64 if wide else self.dtype
        gap_w = (slot * ge).astype(dtype)
        gap_go = gap_w[:-1] + dtype(go)
        h = np.zeros((n, width + 2), dtype=dtype)
        f = np.zeros((n, width + 2), dtype=dtype)
        hn, fn = np.zeros_like(h), np.zeros_like(f)
        best = np.zeros(n, dtype=np.int64)
        best_i = np.zeros(n, dtype=np.int64)
        best_j = np.zeros(n, dtype=np.int64)
        cells = np.zeros(n, dtype=np.int64)
        live = n
        for r in range(1, int(rows[0]) + 1):
            while rows[live - 1] < r:
                live -= 1
            at = np.clip(col0[:live] + r, 0, right[:live])
            at += left[:live]
            at = dpad[at].astype(np.intp)
            at += ((q0[:live] + (r - 1 + self.block)) * self.stride)[:, None]
            v = self.profile[at]
            hp, fp, hq = h[:live], f[:live], hn[:live]
            # F = max(H_up - go, F_up - ge, 0); H~ = max(H_diag + v, F)
            fr = fn[:live, 1:-1]
            np.subtract(hp[:, 2:], go, out=fr)
            np.maximum(fr, fp[:, 2:] - ge, out=fr)
            np.maximum(fr, 0, out=fr)
            ht = hp[:, 1:-1] + v
            np.maximum(ht, fr, out=ht)
            # E at slot s: max over t < s of H~[t] - go - (s - 1 - t) * ge.
            e = ht + gap_w
            np.maximum.accumulate(e, axis=1, out=e)
            hr = hq[:, 1:-1]
            hr[:, 0] = ht[:, 0]
            np.subtract(e[:, :-1], gap_go, out=hr[:, 1:])
            np.maximum(hr[:, 1:], ht[:, 1:], out=hr[:, 1:])
            c = offset[:live] + r
            cells[:live] += np.maximum(
                0,
                np.minimum(cols[:live], c + band) - np.maximum(1, c - band) + 1,
            )
            arg = hr.argmax(axis=1)
            top = hr[np.arange(live), arg]
            up = np.flatnonzero(top > best[:live])
            best[up] = top[up]
            best_i[up] = r
            best_j[up] = col0[up, arg[up]] + r
            h, hn, f, fn = hn, h, fn, f
        return best, best_i, best_j, cells


class _Batch:
    """One seeding batch: its records laid out, and their best HSPs so far.

    ``codes`` holds the records end to end with ``block`` pads before,
    between and after them; record ``s`` starts at ``starts[s]``.
    """

    def __init__(self, seqs, lengths: np.ndarray, block: int, pad: int) -> None:
        gap = np.full(block, pad, dtype=np.uint8)
        self.codes = np.concatenate(
            [part for seq in seqs for part in (gap, seq)] + [gap]
        )
        self.lengths = lengths
        self.starts = np.cumsum(lengths + block) - lengths
        n = len(seqs)
        self.found = np.zeros(n, dtype=bool)
        self.score = np.zeros(n, dtype=np.int64)
        self.pos = np.zeros(n, dtype=np.int64)
        self.qpos = np.zeros(n, dtype=np.int64)
        self.left = np.zeros(n, dtype=np.int64)
        self.right = np.zeros(n, dtype=np.int64)
        self.cells = np.zeros(n, dtype=np.int64)
        self.extensions = 0

    def owner(self, pos: np.ndarray) -> np.ndarray:
        """Record index of each concat position."""
        return np.searchsorted(self.starts, pos, side="right") - 1

    def offer(self, seq, score, pos, qpos, left, right, cells) -> None:
        """Fold one round's extensions in.

        The loop keeps the first extension of the highest score in hit
        order, ``(j, i)``; rounds visit hits out of that order, so ties
        are broken on ``(pos, qpos)`` explicitly.
        """
        self.extensions += len(seq)
        self.cells += np.bincount(seq, weights=cells,
                                  minlength=len(self.cells)).astype(np.int64)
        order = np.lexsort((qpos, pos, -score, seq))
        s = seq[order]
        pick = order[np.r_[True, s[1:] != s[:-1]]]
        s = seq[pick]
        old_s, old_p, old_q = self.score[s], self.pos[s], self.qpos[s]
        new_s, new_p, new_q = score[pick], pos[pick], qpos[pick]
        better = ~self.found[s] | (new_s > old_s) | (
            (new_s == old_s)
            & ((new_p < old_p) | ((new_p == old_p) & (new_q < old_q)))
        )
        s, pick = s[better], pick[better]
        self.found[s] = True
        self.score[s] = score[pick]
        self.pos[s] = pos[pick]
        self.qpos[s] = qpos[pick]
        self.left[s] = left[pick]
        self.right[s] = right[pick]

    def store(self, out: SeedResult, lo: int, k: int) -> None:
        """Write the batch into ``out`` at sequence offset ``lo``."""
        rows = slice(lo, lo + len(self.found))
        j = self.pos - self.starts
        out.found[rows] = self.found
        out.score[rows] = self.score
        out.qpos[rows] = self.qpos
        out.dpos[rows] = j
        out.qstart[rows] = self.qpos - self.left
        out.dstart[rows] = j - self.left
        out.qend[rows] = self.qpos + k + self.right
        out.dend[rows] = j + k + self.right
        out.cells[rows] = self.cells
        out.extensions += self.extensions


class _DiagonalState:
    """Covered end and last hit of the diagonals open at a window edge.

    Sorted by diagonal key; positions are concat positions of the batch.
    A diagonal is dropped once no later hit could see its state: its
    covered end lies behind the next window and (under two-hit) so does
    the reach of its last hit.  A dropped diagonal behaves as a fresh one.
    """

    def __init__(self, key, covered, last) -> None:
        self.key, self.covered, self.last = key, covered, last

    @classmethod
    def fresh(cls) -> "_DiagonalState":
        none = np.empty(0, dtype=np.int64)
        return cls(none, none, none)

    def lookup(self, gkey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(covered, last)`` per key; fresh diagonals get ``(-1, none)``."""
        covered = np.full(len(gkey), -1, dtype=np.int64)
        last = np.full(len(gkey), _NO_HIT, dtype=np.int64)
        if len(self.key):
            at = np.minimum(np.searchsorted(self.key, gkey), len(self.key) - 1)
            hit = self.key[at] == gkey
            covered[hit] = self.covered[at[hit]]
            last[hit] = self.last[at[hit]]
        return covered, last

    def merge(self, gkey, covered, last, p_next, reach) -> "_DiagonalState":
        """This window's diagonals over the carried ones, pruned at ``p_next``."""
        at = np.minimum(np.searchsorted(gkey, self.key), len(gkey) - 1)
        old = gkey[at] != self.key
        key = np.concatenate([self.key[old], gkey])
        covered = np.concatenate([self.covered[old], covered])
        last = np.concatenate([self.last[old], last])
        alive = covered >= p_next
        if reach:
            alive |= last + reach >= p_next
        order = np.argsort(key[alive], kind="stable")
        return _DiagonalState(
            key[alive][order], covered[alive][order], last[alive][order]
        )
