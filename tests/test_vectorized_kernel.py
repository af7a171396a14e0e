"""Property/fuzz tests for the numpy inter-task kernel.

The vectorized kernel has three internal degrees of freedom that must
never be observable in its output: the lane width (packing), the tile
width (cache blocking of the gap scan), and the width ladder (int8 →
int16 → int64 rungs with saturating clamps, each sequence past a clamp
redone at the next rung).  Every test here perturbs one of those knobs
over a seeded grid and demands bit-identical scores against the scalar
oracle.

Packed lanes lay several sequences end to end in one lane; they must
score as if each sequence had a lane of its own
(:class:`TestPackedLanes`, :class:`TestByteRung`).  Consecutive lane
groups that fit one sweep share one packed plan (:class:`TestRuns`).

The saturation tests force overflow on purpose — a homopolymer whose
true score exceeds the int8 clamp, and a custom high-valued matrix that
breaks int16 — and assert both that the redo path actually fired
(:class:`repro.core.KernelStats` counters) and that it restored
exactness.  A redo path that never runs is dead code; one that runs and
misreports is a silent wrong answer.  Both failure modes are pinned.
"""

from __future__ import annotations

import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.core import VectorizedEngine, get_engine
from repro.db import SequenceDatabase
from repro.core.intertask import build_lane_groups
from repro.core.vectorized import (
    _pack_lanes,
    lane_group_runs,
    make_intertask_engine,
)
from repro.exceptions import EngineError
from repro.scoring import BLOSUM62, GapModel, SubstitutionMatrix
from repro.search import SearchOptions, SearchPipeline
from tests.conftest import STANDARD_RESIDUES, random_protein

LANE_GRID = (1, 3, 8, 64)
BLOCK_GRID = (None, 1, 7, 64)
WIDTH_GRID = (8, 16, 64)


def scalar_scores(query, seqs, matrix, gaps):
    return get_engine("scalar", PROTEIN).score_batch(
        query, seqs, matrix, gaps
    ).scores


@pytest.fixture
def workload(rng, blosum62, gaps):
    seqs = [random_protein(rng, int(n)) for n in rng.integers(1, 70, 17)]
    query = random_protein(rng, 33)
    return query, seqs, scalar_scores(query, seqs, blosum62, gaps)


class TestWidthInvariance:
    @pytest.mark.parametrize("lanes", LANE_GRID)
    def test_lane_width_never_changes_scores(
        self, workload, blosum62, gaps, lanes
    ):
        query, seqs, ref = workload
        got = VectorizedEngine(PROTEIN, lanes=lanes).score_batch(
            query, seqs, blosum62, gaps
        ).scores
        np.testing.assert_array_equal(got, ref, err_msg=f"lanes={lanes}")

    @pytest.mark.parametrize("block_cols", BLOCK_GRID)
    def test_tile_width_never_changes_scores(
        self, workload, blosum62, gaps, block_cols
    ):
        query, seqs, ref = workload
        got = VectorizedEngine(
            PROTEIN, lanes=8, block_cols=block_cols
        ).score_batch(query, seqs, blosum62, gaps).scores
        np.testing.assert_array_equal(
            got, ref, err_msg=f"block_cols={block_cols}"
        )

    @pytest.mark.parametrize("bits", WIDTH_GRID)
    def test_narrow_width_never_changes_scores(
        self, workload, blosum62, gaps, bits
    ):
        query, seqs, ref = workload
        got = VectorizedEngine(
            PROTEIN, lanes=8, saturate_bits=bits
        ).score_batch(query, seqs, blosum62, gaps).scores
        np.testing.assert_array_equal(got, ref, err_msg=f"bits={bits}")

    @pytest.mark.parametrize("profile", ("sequence", "query"))
    def test_profile_addressing_never_changes_scores(
        self, workload, blosum62, gaps, profile
    ):
        query, seqs, ref = workload
        got = VectorizedEngine(
            PROTEIN, lanes=8, profile=profile
        ).score_batch(query, seqs, blosum62, gaps).scores
        np.testing.assert_array_equal(got, ref, err_msg=profile)

    def test_seeded_fuzz_grid(self, blosum62):
        # The full cross-product on small random batches: any packing /
        # tiling / width interaction bug shows up as a score diff here.
        rng = np.random.default_rng(2024)
        for gaps in (GapModel(10, 2), GapModel(3, 0), GapModel(0, 1)):
            seqs = [
                random_protein(rng, int(n))
                for n in rng.integers(1, 50, 11)
            ]
            query = random_protein(rng, int(rng.integers(3, 28)))
            ref = scalar_scores(query, seqs, blosum62, gaps)
            for lanes in (1, 8):
                for block_cols in (None, 5):
                    for bits in WIDTH_GRID:
                        engine = VectorizedEngine(
                            PROTEIN, lanes=lanes, block_cols=block_cols,
                            saturate_bits=bits,
                        )
                        got = engine.score_batch(
                            query, seqs, blosum62, gaps
                        ).scores
                        np.testing.assert_array_equal(
                            got, ref,
                            err_msg=(
                                f"lanes={lanes} block={block_cols} "
                                f"bits={bits} gaps={gaps}"
                            ),
                        )

    def test_constructor_rejects_bad_knobs(self):
        with pytest.raises(EngineError):
            VectorizedEngine(PROTEIN, lanes=0)
        with pytest.raises(EngineError):
            VectorizedEngine(PROTEIN, block_cols=0)
        with pytest.raises(EngineError):
            VectorizedEngine(PROTEIN, saturate_bits=12)
        with pytest.raises(EngineError):
            make_intertask_engine("simd")


class TestSaturationRedo:
    def test_int8_overflow_triggers_redo_and_stays_exact(
        self, blosum62, gaps
    ):
        # L*30 against L*30 scores 30 * V(L,L) = 120 under BLOSUM62 —
        # past the int8 clamp — while the short decoys stay far below
        # it.  The saturated lane must be redone at full width and the
        # batch must still be bit-identical to scalar.
        seqs = ["L" * 30, "ARN", "L" * 4, "W"]
        query = "L" * 30
        ref = scalar_scores(query, seqs, blosum62, gaps)
        assert ref[0] > 95  # genuinely past the int8 clamp
        engine = VectorizedEngine(PROTEIN, lanes=8, saturate_bits=8)
        batch = engine.score_batch(query, seqs, blosum62, gaps)
        np.testing.assert_array_equal(batch.scores, ref)
        assert engine.stats.redo_lanes > 0, "redo path never fired"
        assert engine.stats.redo_groups > 0
        assert 0 in batch.saturated  # reported in original indices
        assert set(batch.saturated) <= set(range(len(seqs)))

    def test_int16_overflow_triggers_redo_and_stays_exact(self, gaps):
        # A synthetic matrix with match reward 3000: twelve identical
        # residues score 36000, past the int16 clamp (32767 - 3000 =
        # 29767), yet the reward still fits int16, so the int16 rung
        # runs and must detect its own overflow.
        n = PROTEIN.size
        data = np.full((n, n), -2, dtype=np.int32)
        np.fill_diagonal(data, 3000)
        hot = SubstitutionMatrix("HOT3000", PROTEIN, data)
        seqs = ["ACDEFGHIKLMN", "ACD", "WYV"]
        query = "ACDEFGHIKLMN"
        ref = scalar_scores(query, seqs, hot, gaps)
        assert ref[0] == 36000
        engine = VectorizedEngine(PROTEIN, lanes=4, saturate_bits=16)
        batch = engine.score_batch(query, seqs, hot, gaps)
        np.testing.assert_array_equal(batch.scores, ref)
        assert engine.stats.redo_lanes > 0
        # "ACD" (9000) shares a packed lane with "ACDEFGHIKLMN" but
        # stays below the fixed clamp, so it is not redone.
        assert batch.saturated == [0]

    def test_full_width_never_saturates(self, blosum62, gaps):
        seqs = ["L" * 30, "ARN"]
        engine = VectorizedEngine(PROTEIN, lanes=8, saturate_bits=64)
        batch = engine.score_batch("L" * 30, seqs, blosum62, gaps)
        np.testing.assert_array_equal(
            batch.scores, scalar_scores("L" * 30, seqs, blosum62, gaps)
        )
        assert batch.saturated == []
        assert engine.stats.redo_lanes == 0
        assert engine.stats.narrow_sweeps == 0
        assert engine.stats.wide_sweeps > 0

    def test_unsaturated_batch_reports_no_redo(self, workload, blosum62,
                                               gaps):
        query, seqs, ref = workload
        engine = VectorizedEngine(PROTEIN, lanes=8)
        batch = engine.score_batch(query, seqs, blosum62, gaps)
        np.testing.assert_array_equal(batch.scores, ref)
        assert batch.saturated == []
        assert engine.stats.redo_lanes == 0
        assert engine.stats.narrow_sweeps > 0

    def test_stats_reset(self, blosum62, gaps):
        engine = VectorizedEngine(PROTEIN, lanes=8, saturate_bits=8)
        engine.score_batch("L" * 30, ["L" * 30], blosum62, gaps)
        assert engine.stats.redo_lanes > 0
        engine.stats.reset()
        assert engine.stats.redo_lanes == 0
        assert engine.stats.narrow_sweeps == 0
        assert engine.stats.wide_sweeps == 0
        assert engine.stats.redo_groups == 0

    def test_redo_only_recomputes_saturated_lanes(self, blosum62, gaps):
        # One hot lane among many cold ones: the redo must touch just
        # the flagged lane, not the whole group.
        seqs = ["L" * 30] + ["ARNDCQE"] * 6
        engine = VectorizedEngine(PROTEIN, lanes=8, saturate_bits=8)
        batch = engine.score_batch("L" * 30, seqs, blosum62, gaps)
        np.testing.assert_array_equal(
            batch.scores, scalar_scores("L" * 30, seqs, blosum62, gaps)
        )
        assert engine.stats.redo_lanes == 1
        assert batch.saturated == [0]


class TestGapModelEdges:
    @pytest.mark.parametrize(
        "gaps", (GapModel(3, 0), GapModel(0, 1), GapModel(0, 2)),
        ids=("extend0", "open0", "open0-ext2"),
    )
    def test_degenerate_gap_models(self, rng, blosum62, gaps):
        seqs = [random_protein(rng, int(n)) for n in rng.integers(1, 40, 9)]
        query = random_protein(rng, 20)
        ref = scalar_scores(query, seqs, blosum62, gaps)
        for bits in WIDTH_GRID:
            got = VectorizedEngine(
                PROTEIN, lanes=8, saturate_bits=bits
            ).score_batch(query, seqs, blosum62, gaps).scores
            np.testing.assert_array_equal(
                got, ref, err_msg=f"bits={bits} gaps={gaps}"
            )

    def test_huge_gap_penalties_fall_back_to_wide(self, rng, blosum62):
        # qo + ge past the narrow info_max makes the narrow tile width
        # infeasible; the engine must silently score at full width.
        gaps = GapModel(40_000, 2)
        seqs = [random_protein(rng, int(n)) for n in rng.integers(1, 30, 5)]
        query = random_protein(rng, 15)
        engine = VectorizedEngine(PROTEIN, lanes=8, saturate_bits=16)
        got = engine.score_batch(query, seqs, blosum62, gaps)
        np.testing.assert_array_equal(
            got.scores, scalar_scores(query, seqs, blosum62, gaps)
        )
        assert engine.stats.narrow_sweeps == 0
        assert engine.stats.wide_sweeps > 0


class TestAccounting:
    def test_cells_match_python_kernel(self, workload, blosum62, gaps):
        # GCUPS denominators must agree: both kernels charge the padded
        # lane-group footprint at the same lane width.
        query, seqs, _ = workload
        py = make_intertask_engine("python", lanes=8).score_batch(
            query, seqs, blosum62, gaps
        )
        vec = make_intertask_engine("numpy", lanes=8).score_batch(
            query, seqs, blosum62, gaps
        )
        assert vec.cells == py.cells
        np.testing.assert_array_equal(vec.scores, py.scores)

    def test_scatter_restores_input_order(self, rng, blosum62, gaps):
        # Lane packing sorts by length; the batch must come back in
        # supply order.  Compare per-sequence against score_pair.
        seqs = [random_protein(rng, int(n)) for n in rng.integers(1, 50, 13)]
        query = random_protein(rng, 18)
        engine = VectorizedEngine(PROTEIN, lanes=4)
        batch = engine.score_batch(query, seqs, blosum62, gaps)
        scalar = get_engine("scalar", PROTEIN)
        for i, seq in enumerate(seqs):
            assert batch.scores[i] == scalar.score_pair(
                query, seq, blosum62, gaps
            ).score, f"sequence {i} misplaced by the lane scatter"


def diag_matrix(match):
    """Diagonal ``match``, off-diagonal -4."""
    n = PROTEIN.size
    data = np.full((n, n), -4, dtype=np.int32)
    np.fill_diagonal(data, match)
    return SubstitutionMatrix(f"DIAG{match}", PROTEIN, data)


def diag5_matrix():
    """Diagonal 5, off-diagonal -4: a self-alignment of n residues is 5n."""
    return diag_matrix(5)


def reach_case():
    """(query, target, target's suffix alone) of the reach-257 crossing."""
    rng = np.random.default_rng(0)

    def draw(letters, k):
        return "".join(letters[i] for i in rng.integers(0, 10, k))

    prefix, suffix = draw("ARNDCQEGHI", 105), draw("ARNDCQEGHI", 120)
    filler = draw("LKMFPSTWYV", 257)
    return prefix + suffix, prefix + filler + suffix, filler + suffix


def first_rung(engine, query, matrix, gaps):
    """The rung ``score_run`` sweeps a run at first."""
    prep = engine._prepare(PROTEIN.encode(query), matrix)
    return engine._rungs(prep, gaps.open, gaps.extend)[0]


def packed_plan(engine, query, lengths, matrix, gaps):
    """The first-rung sweeps ``score_run`` plans for ``lengths``."""
    rung = first_rung(engine, query, matrix, gaps)
    return _pack_lanes(
        lengths, engine.block_cols, rung.cells, packed=rung.clamp is not None
    )


def plan_fill(plan, lengths):
    """Real cells over padded cells of a packed plan."""
    padded = sum(
        len(lanes) * max(sum(int(lengths[g]) + 1 for g in lane) - 1
                         for lane in lanes)
        for lanes in plan
    )
    return int(lengths.sum()) / padded


class TestReachAndSpans:
    """The invariants the gap-reach-bounded scan and packed sweeps rely on.

    The other tests use sequences of at most 70 residues, so they never
    reach a scan reach of 64 or more, nor a full sweep of padded cells.
    """

    @pytest.mark.parametrize("bits", (8, 16, 64))
    @pytest.mark.parametrize("block_cols", (None, 64, 400))
    def test_gap_exactly_at_reach_is_crossed(self, block_cols, bits):
        # The 105-residue prefix self-scores 525, so the scan reach at
        # its last row is (525 - 10 - 1) // 2 = 257, one past 2**8.  A
        # 257-residue filler gap costs 10 + 2*257 = 524, so crossing it
        # into the 120-residue suffix scores 601 against 600 for the
        # suffix alone: a scan one step short, or one that forgets the
        # carried column across tiles, loses the crossing.  At 8 bits
        # the target passes the byte clamp and the int16 redo crosses.
        query, target, suffix_only = reach_case()
        matrix, gaps = diag5_matrix(), GapModel(10, 2)
        ref = scalar_scores(query, [target, suffix_only], matrix, gaps)
        assert list(ref) == [601, 600]
        engine = VectorizedEngine(
            PROTEIN, lanes=1, block_cols=block_cols, saturate_bits=bits
        )
        got = engine.score_batch(query, [target], matrix, gaps).scores
        assert int(got[0]) == 601

    def test_long_tail_group_is_swept_in_spans(self, blosum62, gaps):
        # A long-tailed group (55,557 residues) packs into lanes as wide
        # as a sweep allows: one byte sweep of 90,112 cells, or two
        # int16 sweeps of 45,056, at 99.8% fill either way; it stays
        # exact.
        rng = np.random.default_rng(7)
        lengths = np.geomspace(20, 2000, 128).astype(int)
        seqs = [random_protein(rng, int(n)) for n in lengths]
        query = random_protein(rng, 16)
        (group,) = build_lane_groups([PROTEIN.encode(s) for s in seqs], 128)
        ref = scalar_scores(query, seqs, blosum62, gaps)
        for bits, sweeps in ((8, 1), (16, 2)):
            engine = VectorizedEngine(PROTEIN, saturate_bits=bits)
            plan = packed_plan(engine, query, group.lengths, blosum62, gaps)
            assert len(plan) == sweeps
            assert round(plan_fill(plan, group.lengths), 3) == 0.998
            scores, sat = engine.score_group(
                PROTEIN.encode(query), group, blosum62, gaps
            )
            assert engine.stats.narrow_sweeps == sweeps
            assert sat == []
            np.testing.assert_array_equal(scores, ref[group.indices])

    def test_saturation_in_a_later_span_is_redone(self, gaps):
        # W scores 3000 against W, so the matrix starts at int16 with a
        # clamp of 32767 - 3000 = 29767; ten W (30000) pass it.  Only
        # the ~750-residue sequence 100 carries them.  It shares a
        # packed lane with neighbours, and only it is redone (at int64):
        # the neighbours keep their exact int16 scores.
        data = BLOSUM62.data.astype(np.int32).copy()
        w = PROTEIN.encode("W")[0]
        data[w, w] = 3000
        hot = SubstitutionMatrix("HOTW", PROTEIN, data)
        rng = np.random.default_rng(11)
        lengths = np.geomspace(20, 2000, 128).astype(int)
        no_w = STANDARD_RESIDUES.replace("W", "")
        seqs = [
            "".join(no_w[i] for i in rng.integers(0, 19, int(n)))
            for n in lengths
        ]
        seqs[100] = seqs[100][:300] + "W" * 10 + seqs[100][310:]
        query = "".join(no_w[i] for i in rng.integers(0, 19, 12)) + "W" * 10
        engine = VectorizedEngine(PROTEIN, lanes=128)
        (group,) = build_lane_groups([PROTEIN.encode(s) for s in seqs], 128)
        plan = packed_plan(engine, query, group.lengths, hot, gaps)
        (lane,) = [
            lane for lanes in plan for lane in lanes
            if 100 in group.indices[lane]
        ]
        assert len(lane) > 1
        batch = engine.score_batch(query, seqs, hot, gaps)
        np.testing.assert_array_equal(
            batch.scores, scalar_scores(query, seqs, hot, gaps)
        )
        assert batch.scores[100] >= 30000
        assert batch.saturated == [100]
        assert engine.stats.redo_lanes == 1
        assert engine.stats.narrow_sweeps == 2
        assert engine.stats.wide_sweeps == 1


class TestPackedLanes:
    """Sequences laid end to end in one lane score as if alone.

    A packed lane holds its sequences one pad column apart: the pad
    column keeps a diagonal or vertical path from crossing, and the gap
    scan's barriers keep a horizontal gap from crossing.  Only a run's
    first rung packs; int64 gives each sequence a lane.
    """

    def test_neighbours_in_one_lane_do_not_join(self, blosum62, gaps):
        # A ends with the query's prefix and B starts with its suffix.
        # The long L opens the lane, A and B follow it in that order, so
        # only B's pad column lies between the prefix and the suffix.  A
        # path across it would score about prefix + suffix - 12 for B,
        # far above either half alone.
        rng = np.random.default_rng(3)

        def draw(letters, k):
            return "".join(letters[i] for i in rng.integers(0, len(letters), k))

        prefix, suffix = draw("WCHY", 12), draw("WCHY", 12)
        filler = "AGSTPDEKNQR"
        seq_l = draw(filler, 300)
        seq_a = draw(filler, 48) + prefix
        seq_b = suffix + draw(filler, 40)
        query = prefix + suffix
        seqs = [seq_l, seq_a, seq_b]
        ref = scalar_scores(query, seqs, blosum62, gaps)
        assert 80 <= ref[1] < 116 and 80 <= ref[2] < 116
        for bits in (8, 16, 64):
            engine = VectorizedEngine(PROTEIN, saturate_bits=bits)
            (group,) = build_lane_groups(
                [PROTEIN.encode(s) for s in seqs], engine.lanes
            )
            a, b = (int(np.flatnonzero(group.indices == k)[0]) for k in (1, 2))
            (lanes,) = packed_plan(
                engine, query, group.lengths, blosum62, gaps
            )
            if bits < 64:
                assert any(
                    lane[k:k + 2] == [a, b]
                    for lane in lanes for k in range(len(lane))
                ), lanes
            else:
                assert all(len(lane) == 1 for lane in lanes), lanes
            scores, sat = engine.score_group(
                PROTEIN.encode(query), group, blosum62, gaps
            )
            assert sat == []
            np.testing.assert_array_equal(
                scores, ref[group.indices], err_msg=f"bits={bits}"
            )

    @pytest.mark.parametrize("block_cols", (None, 64))
    @pytest.mark.parametrize("profile", ("sequence", "query"))
    @pytest.mark.parametrize("bits", (8, 16, 64))
    @pytest.mark.parametrize(
        "gaps", (GapModel(10, 2), GapModel(3, 0), GapModel(0, 1)),
        ids=("10-2", "3-0", "0-1"),
    )
    def test_packed_groups_match_scalar(
        self, blosum62, gaps, bits, profile, block_cols
    ):
        # At 8 and 16 bits 40 short sequences pack several to a lane,
        # and 90 and 150 residues pass a 64-column tile and keep lanes of
        # their own (tiled path).  At 64 bits every sequence has its own
        # lane.
        rng = np.random.default_rng(5)
        lengths = [*rng.integers(1, 60, 40), 90, 150]
        seqs = [random_protein(rng, int(n)) for n in lengths]
        query = random_protein(rng, 24)
        engine = VectorizedEngine(
            PROTEIN, lanes=64, saturate_bits=bits, profile=profile,
            block_cols=block_cols,
        )
        (group,) = build_lane_groups([PROTEIN.encode(s) for s in seqs], 64)
        plan = packed_plan(engine, query, group.lengths, blosum62, gaps)
        depth = max(len(lane) for lanes in plan for lane in lanes)
        assert depth > 1 if bits < 64 else depth == 1
        got = engine.score_batch(query, seqs, blosum62, gaps).scores
        np.testing.assert_array_equal(
            got, scalar_scores(query, seqs, blosum62, gaps)
        )

    def test_gap_at_reach_inside_a_later_segment(self):
        # The reach-257 crossing of TestReachAndSpans, with the target
        # packed behind a longer sequence in an int16 sweep (601 passes
        # the byte clamp): the barriers must only block gaps that cross
        # the pad column, so the crossing still scores 601.
        query, target, _ = reach_case()
        rng = np.random.default_rng(1)
        opener = "".join("LKMFPSTWYV"[i] for i in rng.integers(0, 10, 600))
        matrix, gaps = diag5_matrix(), GapModel(10, 2)
        engine = VectorizedEngine(PROTEIN, saturate_bits=16)
        (group,) = build_lane_groups(
            [PROTEIN.encode(s) for s in (opener, target)], engine.lanes
        )
        (lanes,) = packed_plan(engine, query, group.lengths, matrix, gaps)
        assert [list(group.indices[lane]) for lane in lanes] == [[0, 1]]
        scores, _ = engine.score_group(
            PROTEIN.encode(query), group, matrix, gaps
        )
        np.testing.assert_array_equal(
            scores, scalar_scores(query, [opener, target], matrix, gaps)[
                group.indices
            ],
        )
        assert int(scores[group.indices == 1][0]) == 601

    def test_wide_scores_keep_a_lane_each(self, gaps):
        # BLOSUM62 x 10^7 fits no narrow dtype, so the group runs at
        # full width, where no bound on the scores sizes a pad score or
        # a barrier.  Packed behind A, which reaches 1.1e9 (past 2^30),
        # B would inherit a nonzero pad column and score about 1.36e8
        # instead of 1.1e8.
        matrix = SubstitutionMatrix(
            "BLOSUM62x1e7", PROTEIN, BLOSUM62.data.astype(np.int64) * 10**7
        )
        rng = np.random.default_rng(11)
        filler = "".join("AGSTPDEKNQR"[i] for i in rng.integers(0, 11, 30))
        query = "W" * 12
        seqs = [filler + "W" * 10, "W" + filler[:20]]
        ref = scalar_scores(query, seqs, matrix, gaps)
        assert ref[0] > 1 << 30
        engine = VectorizedEngine(PROTEIN)
        (group,) = build_lane_groups(
            [PROTEIN.encode(s) for s in seqs], engine.lanes
        )
        (lanes,) = packed_plan(engine, query, group.lengths, matrix, gaps)
        assert all(len(lane) == 1 for lane in lanes), lanes
        batch = engine.score_batch(query, seqs, matrix, gaps)
        np.testing.assert_array_equal(batch.scores, ref)
        assert batch.saturated == []
        assert engine.stats.narrow_sweeps == 0


FILLER = "AGSTPDEKNQR"  # every one scores below 0 against W in BLOSUM62


class TestByteRung:
    """int8 first: packed byte sweeps, redone past the byte clamp.

    The byte clamp is the largest ``C <= 127 - vmax`` whose gap scan
    stays in int8 (BLOSUM62: 116).  A pad column's H is held at 0, and
    the scan's barriers stop a gap from crossing it however high its
    left neighbour scored.
    """

    @pytest.mark.parametrize(
        "gaps, clamp, steps",
        ((GapModel(10, 2), 116, 32), (GapModel(11, 1), 116, 64),
         (GapModel(3, 0), 116, None)),
        ids=("10-2", "11-1", "3-0"),
    )
    def test_byte_clamp_and_steps(self, blosum62, gaps, clamp, steps):
        rung = first_rung(VectorizedEngine(PROTEIN), "ACDEF", blosum62, gaps)
        assert (rung.dtype, rung.clamp) == (np.int8, clamp)
        # The largest doubling step below the reach cap, and its
        # candidate's floor -go - s*ge, which must stay in int8.
        if steps is None:
            assert rung.reach is None  # ge == 0: every step, no decay
        else:
            assert 1 << (rung.reach - 1).bit_length() - 1 == steps
            assert -gaps.first_gap_cost - steps * gaps.extend >= -127

    def test_matrix_or_gaps_past_a_byte_start_at_int16(self, gaps):
        engine = VectorizedEngine(PROTEIN)
        hot = first_rung(engine, "ACD", diag_matrix(200), gaps)
        assert hot.dtype == np.int16
        # go = 130 > 127: no byte candidate can hold T1 = h~ - go.
        wide_gap = first_rung(engine, "ACD", BLOSUM62, GapModel(120, 10))
        assert wide_gap.dtype == np.int16

    @pytest.mark.parametrize("profile", ("sequence", "query"))
    def test_saturated_neighbour_does_not_lift_the_next(self, blosum62,
                                                        gaps, profile):
        # A ends in twelve W against a W query: its H clamps at 116 on
        # the eleventh, so its last column holds h~ = 116 + 11 = 127,
        # the most a byte holds.  B follows it in the same lane, one pad
        # column later.  A gap crossing the pad would give B's first
        # column 127 - 14 = 113, below the clamp, so B would keep that
        # wrong score instead of its own 11.
        seq_a = FILLER * 4 + "W" * 12
        seq_b = "W" + FILLER
        query = "W" * 12
        seqs = [seq_a, seq_b]
        ref = scalar_scores(query, seqs, blosum62, gaps)
        assert list(ref) == [132, 11]
        engine = VectorizedEngine(PROTEIN, profile=profile)
        (group,) = build_lane_groups(
            [PROTEIN.encode(s) for s in seqs], engine.lanes
        )
        (lanes,) = packed_plan(engine, query, group.lengths, blosum62, gaps)
        assert [list(group.indices[lane]) for lane in lanes] == [[0, 1]]
        batch = engine.score_batch(query, seqs, blosum62, gaps)
        np.testing.assert_array_equal(batch.scores, ref)
        assert batch.saturated == [0]

    @pytest.mark.parametrize("profile", ("sequence", "query"))
    @pytest.mark.parametrize(
        "gaps",
        (GapModel(10, 2), GapModel(11, 1), GapModel(5, 5), GapModel(3, 1),
         GapModel(0, 1), GapModel(3, 0)),
        ids=("10-2", "11-1", "5-5", "3-1", "0-1", "3-0"),
    )
    def test_gap_models_on_every_rung(self, blosum62, gaps, profile):
        # Random neighbours and homolog-like pieces of the query, some
        # past the byte clamp, packed several to a lane: exact on every
        # first rung (ge = 0 runs every doubling step with no decay).
        rng = np.random.default_rng(17)
        query = random_protein(rng, 40)
        seqs = []
        for k in range(60):
            if k % 4 == 0:
                start = int(rng.integers(0, 20))
                piece = list(query[start:start + int(rng.integers(10, 40))])
                for i in np.flatnonzero(rng.random(len(piece)) < 0.2):
                    piece[i] = STANDARD_RESIDUES[int(rng.integers(0, 20))]
                seqs.append(
                    random_protein(rng, int(rng.integers(0, 15)))
                    + "".join(piece)
                    + random_protein(rng, int(rng.integers(0, 15)))
                )
            else:
                seqs.append(random_protein(rng, int(rng.integers(1, 90))))
        ref = scalar_scores(query, seqs, blosum62, gaps)
        assert (ref >= 116).any() and (ref < 116).any()
        for bits in WIDTH_GRID:
            engine = VectorizedEngine(
                PROTEIN, lanes=16, saturate_bits=bits, profile=profile
            )
            batch = engine.score_batch(query, seqs, blosum62, gaps)
            np.testing.assert_array_equal(
                batch.scores, ref, err_msg=f"bits={bits}"
            )
            if bits == 8:
                assert batch.saturated == list(np.flatnonzero(ref >= 116))

    @pytest.mark.parametrize("bits", WIDTH_GRID)
    def test_pads_on_tile_boundaries(self, blosum62, gaps, bits):
        # At 64-column tiles a packed lane fills a tile exactly (40 and
        # 23 residues, one pad column apart), and a multi-tile lane ends
        # on a tile boundary (128 residues: its first pad column opens
        # the third tile, beside a 150-residue lane).
        rng = np.random.default_rng(23)
        query = random_protein(rng, 30)
        seqs = [random_protein(rng, n) for n in (40, 23, 128, 150, 12, 7)]
        seqs[2] = query + seqs[2][len(query):]  # past the byte clamp
        engine = VectorizedEngine(
            PROTEIN, lanes=8, block_cols=64, saturate_bits=bits
        )
        (group,) = build_lane_groups(
            [PROTEIN.encode(s) for s in seqs], engine.lanes
        )
        plan = packed_plan(engine, query, group.lengths, blosum62, gaps)
        if bits < 64:
            assert [
                [group.indices[lane].tolist() for lane in lanes]
                for lanes in plan
            ] == [[[3], [2]], [[0, 1], [4, 5]]]
        ref = scalar_scores(query, seqs, blosum62, gaps)
        got = engine.score_batch(query, seqs, blosum62, gaps).scores
        np.testing.assert_array_equal(got, ref)

    def test_one_run_climbs_every_rung(self, blosum62, gaps):
        # Against 3000 W, a sequence scores 11 per W of its one W run:
        # below the byte clamp (116), between it and the int16 clamp
        # (32767 - 11 = 32756), and past that (2990 W = 32890).  All
        # share one run; each redone sequence counts once, though the
        # longest climbs int8 -> int16 -> int64.
        runs = [0, 3, 10, 20, 2990, 1]
        seqs = [FILLER[:k % 7 + 2] + "W" * n + FILLER for k, n in
                enumerate(runs)]
        query = "W" * 3000
        engine = VectorizedEngine(PROTEIN)
        groups = build_lane_groups(
            [PROTEIN.encode(s) for s in seqs], engine.lanes
        )
        assert engine.runs(groups) == [range(1)]
        batch = engine.score_batch(query, seqs, blosum62, gaps)
        np.testing.assert_array_equal(batch.scores, [11 * n for n in runs])
        assert batch.saturated == [3, 4]
        assert engine.stats.redo_lanes == 2
        assert engine.stats.redo_groups == 1
        assert engine.stats.narrow_sweeps == 2  # one packed, one int16
        assert engine.stats.wide_sweeps == 1


def swissprot_like_lengths(n):
    """The ``n`` mid-quantiles of a Swiss-Prot-like lognormal, 11..4000."""
    normal = NormalDist(5.68, 0.70)
    logs = [normal.inv_cdf((k + 0.5) / n) for k in range(n)]
    return np.clip(np.rint(np.exp(logs)), 11, 4000).astype(int)


def run_plans(engine, query, groups, matrix, gaps):
    """Per run of ``groups``: its lengths and its packed sweeps."""
    plans = []
    for run in engine.runs(groups):
        lengths = np.concatenate([groups[g].lengths for g in run])
        plans.append(
            (lengths, packed_plan(engine, query, lengths, matrix, gaps))
        )
    return plans


class TestRuns:
    """Consecutive lane groups that fit one sweep share one packed plan."""

    def test_runs_follow_residue_totals(self):
        def runs(residues):
            return [list(run) for run in lane_group_runs(residues)]

        assert runs([]) == []
        assert runs([100, 200, 300]) == [[0, 1, 2]]
        # Runs close at 45,056 residues; a group that fills a sweep by
        # itself is a run of one.
        assert runs([40000, 5056, 1, 50000, 10]) == [[0, 1], [2], [3], [4]]

    def test_serve_like_database_sweeps_once(self, rng, blosum62, gaps):
        # 20 Swiss-Prot-like sequences (7,340 residues) at 8 lanes are
        # three lane groups.  As one run they take one sweep per query,
        # the plan 128 lanes give them.
        lengths = swissprot_like_lengths(20)
        assert lengths.sum() == 7340
        seqs = [random_protein(rng, int(n)) for n in lengths]
        query = random_protein(rng, 24)
        ref = scalar_scores(query, seqs, blosum62, gaps)
        for lanes in (8, 128):
            engine = VectorizedEngine(PROTEIN, lanes=lanes)
            groups = build_lane_groups(
                [PROTEIN.encode(s) for s in seqs], lanes
            )
            assert len(groups) == (3 if lanes == 8 else 1)
            assert engine.runs(groups) == [range(len(groups))]
            batch = engine.score_batch(query, seqs, blosum62, gaps)
            np.testing.assert_array_equal(batch.scores, ref)
            assert engine.stats.narrow_sweeps == 1
            assert batch.saturated == []

    def test_stream_chunks_keep_their_plans(self, blosum62, gaps):
        # 409 Swiss-Prot-like records in a fixed shuffled order, streamed
        # in 256-record chunks at 128 lanes.  The two groups of a chunk
        # hold more than one sweep's residues together, so each group is
        # a run of its own and keeps its own plan: 4 byte sweeps at
        # 99.7% fill.
        lengths = swissprot_like_lengths(409)[
            np.random.default_rng(409).permutation(409)
        ]
        engine = VectorizedEngine(PROTEIN)
        sweeps, real, padded = 0, 0, 0.0
        for k in range(0, 409, 256):
            groups = build_lane_groups(
                [np.zeros(n, dtype=np.uint8) for n in lengths[k:k + 256]],
                128,
            )
            assert [len(run) for run in engine.runs(groups)] == [1, 1]
            for run_lengths, plan in run_plans(
                engine, "ACDEFGHIK", groups, blosum62, gaps
            ):
                sweeps += len(plan)
                real += int(run_lengths.sum())
                padded += run_lengths.sum() / plan_fill(plan, run_lengths)
        assert sweeps == 4
        assert round(real / padded, 3) == 0.997


#: Traced peak of one search in :class:`TestMemory`: 3,627 KB measured
#: with the byte-first ladder (3,460 KB with the int16 packed lanes it
#: replaced), plus 5%.
PEAK_ALLOCATION_CEILING_KB = 3808


class TestMemory:
    """The kernel's working memory, gated without timing the machine."""

    def test_kernel_peak_allocation(self, blosum62, gaps):
        # One exhaustive search over 800 Swiss-Prot-like sequences
        # (299,187 residues) at 128 lanes: the largest byte sweeps hold
        # 90,112 cells, whose SP planes, row buffers and barrier arrays
        # make up most of the traced peak.
        rng = np.random.default_rng(300)
        lengths = swissprot_like_lengths(800)[rng.permutation(800)]
        seqs = [rng.integers(0, 20, int(n)).astype(np.uint8) for n in lengths]
        db = SequenceDatabase("mem", seqs, [f"r{k}" for k in range(800)])
        assert db.total_residues == 299187
        query = PROTEIN.decode(rng.integers(0, 20, 375).astype(np.uint8))
        pipe = SearchPipeline(SearchOptions(
            matrix=blosum62, gaps=gaps, kernel="numpy", lanes=128,
        ))
        pipe.search(query[:20], db)  # build caches outside the trace
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pipe.search(query, db)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_ALLOCATION_CEILING_KB * 1024, peak // 1024
