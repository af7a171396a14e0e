"""Unit and behavioural tests for the seed-and-extend heuristic."""

import numpy as np
import pytest

from repro.alphabet import DNA, PROTEIN
from repro.db import SequenceDatabase, SyntheticSwissProt
from repro.db.fasta import FastaRecord
from repro.db.mutate import plant_homologs
from repro.exceptions import EngineError, PipelineError
from repro.heuristic import (
    KmerWordCoder, MiniBlast, Seed,
    build_query_word_table, gapped_extend, neighborhood_words,
    ungapped_extend,
)
from repro.scoring import BLOSUM62, match_mismatch_matrix, paper_gap_model
from repro.search import SearchPipeline
from tests.conftest import random_codes


def per_position_table(q, k, threshold, matrix=BLOSUM62):
    """Word -> query positions, one neighbourhood enumeration per position."""
    coder = KmerWordCoder(k, matrix.alphabet)
    table: dict[int, list[int]] = {}
    for i in range(len(q) - k + 1):
        for word in neighborhood_words(
            q[i : i + k], matrix, threshold, coder=coder
        ):
            table.setdefault(word, []).append(i)
    return table


def table_rows(table) -> dict[int, list[int]]:
    """A :class:`WordTable` as the word -> positions dict it encodes."""
    return {
        int(word): table.positions_of(int(word)).tolist()
        for word in np.flatnonzero(np.diff(table.offsets))
    }


class TestWordCoder:
    def test_roundtrip(self, rng):
        coder = KmerWordCoder(3)
        for _ in range(10):
            kmer = random_codes(rng, 3)
            assert np.array_equal(coder.decode(coder.encode(kmer)), kmer)

    def test_words_of_rolls_correctly(self, rng):
        coder = KmerWordCoder(3)
        seq = random_codes(rng, 12)
        words = coder.words_of(seq)
        assert len(words) == 10
        for i in range(10):
            assert words[i] == coder.encode(seq[i : i + 3])

    def test_short_sequence_no_words(self, rng):
        assert KmerWordCoder(3).words_of(random_codes(rng, 2)).size == 0

    def test_invalid_k(self):
        with pytest.raises(EngineError):
            KmerWordCoder(0)

    def test_encode_length_check(self, rng):
        with pytest.raises(EngineError):
            KmerWordCoder(3).encode(random_codes(rng, 4))


class TestNeighborhood:
    def test_self_word_included_at_default_threshold(self, rng):
        coder = KmerWordCoder(3)
        # Use a high-scoring kmer (self-score WWW = 33 >= 11).
        kmer = PROTEIN.encode("WCH")
        words = neighborhood_words(kmer, BLOSUM62, 11, coder=coder)
        assert coder.encode(kmer) in words

    def test_all_neighbours_meet_threshold(self, rng):
        coder = KmerWordCoder(3)
        kmer = random_codes(rng, 3)
        threshold = 9
        for word in neighborhood_words(kmer, BLOSUM62, threshold, coder=coder):
            other = coder.decode(word)
            score = int(BLOSUM62.lookup(kmer, other).sum())
            assert score >= threshold

    def test_enumeration_complete_against_brute_force(self, rng):
        coder = KmerWordCoder(2)
        kmer = random_codes(rng, 2)
        threshold = 6
        fast = set(neighborhood_words(kmer, BLOSUM62, threshold, coder=coder))
        brute = set()
        for a in range(20):
            for b in range(20):
                s = int(BLOSUM62.data[kmer[0], a] + BLOSUM62.data[kmer[1], b])
                if s >= threshold:
                    brute.add(a * 24 + b)
        assert fast == brute

    def test_higher_threshold_fewer_words(self, rng):
        kmer = PROTEIN.encode("LIV")
        lo = neighborhood_words(kmer, BLOSUM62, 8)
        hi = neighborhood_words(kmer, BLOSUM62, 13)
        assert set(hi) <= set(lo)
        assert len(hi) < len(lo)

    def test_word_table_maps_words_to_positions(self):
        q = PROTEIN.encode("WCHWCH")
        table = build_query_word_table(q, BLOSUM62, k=3, threshold=11)
        coder = KmerWordCoder(3)
        wch = coder.encode(PROTEIN.encode("WCH"))
        assert table.positions_of(wch).tolist() == [0, 3]
        assert table_rows(table) == per_position_table(q, 3, 11)

    def test_small_matrix_words_match_word_table(self, rng):
        # A 5-code DNA matrix has fewer than 20 neighbour codes.
        dna = match_mismatch_matrix(5, -4, alphabet=DNA)
        q = rng.integers(0, 4, 30).astype(np.uint8)
        table = build_query_word_table(q, dna, k=3, threshold=6)
        coder = KmerWordCoder(3, DNA)
        for i in range(len(q) - 2):
            words = neighborhood_words(q[i : i + 3], dna, 6, coder=coder)
            assert sorted(words) == [
                w for w in np.flatnonzero(np.diff(table.offsets))
                if i in table.positions_of(int(w))
            ]


class TestExtension:
    def test_ungapped_recovers_exact_region(self):
        q = PROTEIN.encode("WCHKWCHK")
        d = PROTEIN.encode("AAWCHKWCHKAA")
        ext = ungapped_extend(q, d, Seed(qpos=0, dpos=2, length=3), BLOSUM62)
        assert ext.score == sum(BLOSUM62.score(c, c) for c in "WCHKWCHK")
        assert (ext.qstart, ext.qend) == (0, 8)
        assert (ext.dstart, ext.dend) == (2, 10)

    def test_xdrop_stops_extension(self, rng):
        # A wall of mismatches after the match region must stop the
        # extension rather than crawling to the end.
        q = PROTEIN.encode("WCHK" + "P" * 30)
        d = PROTEIN.encode("WCHK" + "G" * 30)
        ext = ungapped_extend(q, d, Seed(0, 0, 3), BLOSUM62, x_drop=10)
        assert ext.qend < 15

    def test_seed_bounds_checked(self, rng):
        q = random_codes(rng, 10)
        d = random_codes(rng, 10)
        with pytest.raises(EngineError):
            ungapped_extend(q, d, Seed(qpos=9, dpos=0, length=3), BLOSUM62)

    def test_gapped_handles_indel(self):
        g = paper_gap_model()
        q = PROTEIN.encode("WCHKWCHKWCHK")
        d = PROTEIN.encode("WCHKWACHKWCHK")  # one insertion in db
        ext = gapped_extend(q, d, Seed(0, 0, 3), BLOSUM62, g, band=4)
        ungapped = ungapped_extend(q, d, Seed(0, 0, 3), BLOSUM62)
        assert ext.score > ungapped.score

    def test_gapped_cells_bounded_by_band(self):
        g = paper_gap_model()
        q = random_codes(np.random.default_rng(0), 100)
        d = random_codes(np.random.default_rng(1), 100)
        ext = gapped_extend(q, d, Seed(40, 40, 3), BLOSUM62, g,
                            window=30, band=5)
        assert ext.cells < 63 * (2 * 5 + 1) + 63  # rows x band width


class TestMiniBlast:
    @pytest.fixture(scope="class")
    def planted_setup(self):
        bg = SyntheticSwissProt().generate(scale=0.0001)
        rng = np.random.default_rng(17)
        query = rng.integers(0, 20, 150).astype(np.uint8)
        db, planted = plant_homologs(
            bg, {"q": query}, rates=[0.1, 0.3], per_rate=2, seed=3
        )
        return query, db, planted

    def test_finds_close_homologs(self, planted_setup):
        query, db, planted = planted_setup
        result = MiniBlast().search(query, db)
        for p in planted:
            if p.rate <= 0.3:
                assert result.scores[p.index] > 100, p

    def test_close_homolog_score_matches_exact(self, planted_setup):
        query, db, planted = planted_setup
        heuristic = MiniBlast().search(query, db)
        exact = SearchPipeline().search(query, db)
        close = [p for p in planted if p.rate == 0.1]
        for p in close:
            assert heuristic.scores[p.index] == exact.scores[p.index]

    def test_substantial_cell_savings(self, planted_setup):
        query, db, _ = planted_setup
        result = MiniBlast().search(query, db)
        assert result.cell_savings > 0.5
        assert result.cells_computed < result.exact_cells

    def test_never_scores_above_exact(self, planted_setup):
        # The heuristic explores a subset of the DP space, so its score
        # can never exceed the exact optimum.
        query, db, _ = planted_setup
        heuristic = MiniBlast().search(query, db)
        exact = SearchPipeline().search(query, db)
        assert (heuristic.scores <= exact.scores).all()

    def test_work_accounting_consistent(self, planted_setup):
        query, db, _ = planted_setup
        result = MiniBlast().search(query, db)
        assert result.seeds_found >= result.ungapped_extensions
        assert result.ungapped_extensions >= result.gapped_extensions
        # Every positive score became a hit, and every hit came from
        # either a gapped refinement or an ungapped fallback.
        positives = int((result.scores > 0).sum())
        assert positives == len(result.hits)
        assert (
            result.gapped_extensions + result.ungapped_fallbacks >= positives
        )
        assert result.ungapped_fallbacks >= 0

    def test_top_hits_sorted(self, planted_setup):
        query, db, _ = planted_setup
        result = MiniBlast().search(query, db)
        top = result.top(5)
        assert [h.score for h in top] == sorted(
            [h.score for h in top], reverse=True
        )

    def test_short_query_rejected(self):
        db = SequenceDatabase.from_records([FastaRecord("x", "WCHKWCHK")])
        with pytest.raises(PipelineError, match="word size"):
            MiniBlast(k=3).search("WC", db)

    def test_empty_database_rejected(self):
        with pytest.raises(PipelineError):
            MiniBlast().search("WCHKW", SequenceDatabase("e", [], []))


class TestUngappedFallback:
    """Sub-trigger HSPs report their ungapped score instead of 0."""

    def test_sub_trigger_hsp_reports_ungapped_score(self):
        # "AAA" scores 12 against itself (3 x 4): above the T=11
        # seeding threshold but below the default gapped_trigger=22, so
        # before the fallback fix the sequence silently scored 0
        # despite the "best score per sequence" contract.
        db = SequenceDatabase.from_records([FastaRecord("t", "AAA")])
        result = MiniBlast().search("AAA", db)
        assert result.gapped_extensions == 0
        assert result.ungapped_fallbacks == 1
        assert result.scores[0] == 12
        assert len(result.hits) == 1
        assert result.hits[0].score == 12
        assert (result.hits[0].qstart, result.hits[0].qend) == (0, 3)

    def test_fallback_score_never_above_exact(self):
        db = SequenceDatabase.from_records([FastaRecord("t", "AAA")])
        heuristic = MiniBlast().search("AAA", db)
        exact = SearchPipeline().search("AAA", db)
        assert (heuristic.scores <= exact.scores).all()

    def test_triggered_sequences_unaffected(self, rng):
        # A sequence above the trigger still takes the gapped path.
        db = SequenceDatabase.from_records([FastaRecord("t", "WCHKWCHK")])
        result = MiniBlast().search("WCHKWCHK", db)
        assert result.gapped_extensions == 1
        assert result.ungapped_fallbacks == 0


class TestNeighborhoodMemoization:
    """Repeated query k-mers: one table row lists every occurrence."""

    def test_repeated_kmers_enumerated_once(self):
        # k-mers of WCHWCHWCH: WCH, CHW, HWC, WCH, CHW, HWC, WCH —
        # three distinct words over seven positions.
        q = PROTEIN.encode("WCHWCHWCH")
        table = build_query_word_table(q, BLOSUM62, k=3, threshold=11)
        coder = KmerWordCoder(3)
        for i, positions in enumerate(([0, 3, 6], [1, 4], [2, 5])):
            word = coder.encode(q[i : i + 3])
            assert table.positions_of(word).tolist() == positions
        # The table is identical to per-occurrence enumeration.
        assert table_rows(table) == per_position_table(q, 3, 11)


class TestTwoHitSeeding:
    @pytest.fixture(scope="class")
    def planted(self):
        bg = SyntheticSwissProt().generate(scale=0.0002)
        rng = np.random.default_rng(23)
        query = rng.integers(0, 20, 200).astype(np.uint8)
        db, planted = plant_homologs(
            bg, {"q": query}, rates=[0.1, 0.2], per_rate=2, seed=6
        )
        return query, db, planted

    def test_two_hit_reduces_extension_work(self, planted):
        query, db, _ = planted
        one = MiniBlast(two_hit=False).search(query, db)
        two = MiniBlast(two_hit=True).search(query, db)
        assert two.ungapped_extensions < one.ungapped_extensions
        assert two.cells_computed < one.cells_computed

    def test_two_hit_keeps_close_homologs(self, planted):
        query, db, planted_list = planted
        two = MiniBlast(two_hit=True).search(query, db)
        for p in planted_list:
            assert two.scores[p.index] > 100, p

    def test_two_hit_scores_subset_of_exact(self, planted):
        query, db, _ = planted
        two = MiniBlast(two_hit=True).search(query, db)
        exact = SearchPipeline().search(query, db)
        assert (two.scores <= exact.scores).all()

    def test_invalid_window(self):
        from repro.exceptions import PipelineError as PE

        with pytest.raises(PE):
            MiniBlast(two_hit=True, two_hit_window=0)
