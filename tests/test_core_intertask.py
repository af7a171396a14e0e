"""Unit tests for the inter-task engine (the paper's scheme)."""

import numpy as np
import pytest

from repro.core import InterTaskEngine, build_lane_groups, get_engine
from repro.core.profiles import ProfileKind
from repro.exceptions import EngineError
from repro.scoring import BLOSUM62, paper_gap_model
from tests.conftest import random_codes, random_protein


@pytest.fixture(scope="module")
def oracle():
    return get_engine("scalar")


class TestLaneGroups:
    def test_groups_cover_all_sequences_once(self, rng):
        seqs = [random_codes(rng, int(rng.integers(1, 40))) for _ in range(23)]
        groups = build_lane_groups(seqs, lanes=8)
        seen = sorted(int(i) for g in groups for i in g.indices)
        assert seen == list(range(23))

    def test_sorted_packing_minimises_padding(self, rng):
        # Ascending-length packing must never pad more than unsorted.
        seqs = [random_codes(rng, int(rng.integers(1, 200))) for _ in range(64)]
        sorted_groups = build_lane_groups(seqs, 8, sort_by_length=True)
        unsorted_groups = build_lane_groups(seqs, 8, sort_by_length=False)

        def padding(groups):
            return sum(g.n_max * g.lanes - int(g.lengths.sum()) for g in groups)

        assert padding(sorted_groups) <= padding(unsorted_groups)

    def test_pad_positions_use_pad_code(self, rng):
        seqs = [random_codes(rng, 3), random_codes(rng, 7)]
        group = build_lane_groups(seqs, 2)[0]
        assert group.n_max == 7
        short_lane = int(np.argmin(group.lengths))
        assert (group.codes[3:, short_lane] == 255).all()

    def test_mask_matches_lengths(self, rng):
        seqs = [random_codes(rng, 4), random_codes(rng, 6), random_codes(rng, 2)]
        group = build_lane_groups(seqs, 3)[0]
        mask = group.mask
        for lane in range(3):
            assert mask[:, lane].sum() == group.lengths[lane]

    def test_cells_and_padding_fraction(self, rng):
        seqs = [random_codes(rng, 10), random_codes(rng, 10)]
        group = build_lane_groups(seqs, 2)[0]
        assert group.cells_per_query_row == 20
        assert group.padding_fraction == 0.0

    def test_empty_input(self):
        assert build_lane_groups([], 8) == []

    def test_invalid_lanes(self, rng):
        with pytest.raises(EngineError):
            build_lane_groups([random_codes(rng, 5)], 0)


class TestEngineConfig:
    def test_invalid_lane_count(self):
        with pytest.raises(EngineError):
            InterTaskEngine(lanes=0)

    def test_invalid_block_cols(self):
        with pytest.raises(EngineError):
            InterTaskEngine(block_cols=0)

    def test_profile_parsing(self):
        assert InterTaskEngine(profile="query").profile is ProfileKind.QUERY
        assert InterTaskEngine(profile="sequence").profile is ProfileKind.SEQUENCE
        with pytest.raises(EngineError):
            InterTaskEngine(profile="banana")


class TestProfileEquivalence:
    def test_qp_equals_sp(self, rng):
        g = paper_gap_model()
        q = random_protein(rng, 30)
        seqs = [random_protein(rng, int(rng.integers(1, 60))) for _ in range(17)]
        qp = InterTaskEngine(lanes=8, profile="query").score_batch(q, seqs, BLOSUM62, g)
        sp = InterTaskEngine(lanes=8, profile="sequence").score_batch(q, seqs, BLOSUM62, g)
        assert np.array_equal(qp.scores, sp.scores)

    @pytest.mark.parametrize("lanes", [1, 2, 8, 16])
    def test_lane_count_does_not_change_scores(self, lanes, rng, oracle):
        g = paper_gap_model()
        q = random_protein(rng, 20)
        seqs = [random_protein(rng, int(rng.integers(1, 45))) for _ in range(9)]
        batch = InterTaskEngine(lanes=lanes).score_batch(q, seqs, BLOSUM62, g)
        expect = [oracle.score_pair(q, s, BLOSUM62, g).score for s in seqs]
        assert list(batch.scores) == expect


class TestBlocking:
    @pytest.mark.parametrize("block_cols", [1, 3, 7, 16, 64, 10_000])
    def test_blocked_identical_to_unblocked(self, block_cols, rng):
        g = paper_gap_model()
        q = random_protein(rng, 25)
        seqs = [random_protein(rng, int(rng.integers(1, 70))) for _ in range(13)]
        plain = InterTaskEngine(lanes=4).score_batch(q, seqs, BLOSUM62, g)
        blocked = InterTaskEngine(lanes=4, block_cols=block_cols).score_batch(
            q, seqs, BLOSUM62, g
        )
        assert np.array_equal(plain.scores, blocked.scores)

    @pytest.mark.parametrize("profile", ["query", "sequence"])
    def test_blocked_profiles_agree(self, profile, rng):
        g = paper_gap_model()
        q = random_protein(rng, 18)
        seqs = [random_protein(rng, 40) for _ in range(8)]
        blocked = InterTaskEngine(lanes=8, profile=profile, block_cols=11)
        plain = InterTaskEngine(lanes=8, profile=profile)
        assert np.array_equal(
            blocked.score_batch(q, seqs, BLOSUM62, g).scores,
            plain.score_batch(q, seqs, BLOSUM62, g).scores,
        )


class TestBatchOrdering:
    def test_scores_in_original_order(self, rng, oracle):
        # Sorted lane packing must be invisible to the caller.
        g = paper_gap_model()
        q = random_protein(rng, 15)
        seqs = [random_protein(rng, n) for n in (50, 3, 30, 8, 44, 1, 29)]
        batch = InterTaskEngine(lanes=4).score_batch(q, seqs, BLOSUM62, g)
        expect = [oracle.score_pair(q, s, BLOSUM62, g).score for s in seqs]
        assert list(batch.scores) == expect
