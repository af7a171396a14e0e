"""Property-based tests for the extension modules.

Same style as test_properties.py, covering the invariants of the banded
engine, the alignment-mode ordering and the heuristic's subset
property.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import get_engine
from repro.core.banded import BandedEngine
from repro.core.global_align import global_align, semiglobal_align
from repro.scoring import BLOSUM62, GapModel

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

short_protein = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=20)
gap_models = st.tuples(
    st.integers(min_value=0, max_value=15), st.integers(min_value=1, max_value=5)
).map(lambda t: GapModel(*t))


class TestBandedProperties:
    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models,
           width=st.integers(min_value=0, max_value=25))
    def test_banded_is_a_lower_bound(self, a, b, gaps, width):
        exact = get_engine("scalar").score_pair(a, b, BLOSUM62, gaps).score
        banded = BandedEngine(width=width).score_pair(a, b, BLOSUM62, gaps).score
        assert 0 <= banded <= exact

    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models)
    def test_full_band_is_exact(self, a, b, gaps):
        exact = get_engine("scalar").score_pair(a, b, BLOSUM62, gaps).score
        wide = BandedEngine(width=len(a) + len(b)).score_pair(
            a, b, BLOSUM62, gaps
        ).score
        assert wide == exact

    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models,
           w1=st.integers(min_value=0, max_value=10),
           w2=st.integers(min_value=0, max_value=10))
    def test_wider_band_never_worse(self, a, b, gaps, w1, w2):
        lo, hi = sorted((w1, w2))
        s_lo = BandedEngine(width=lo).score_pair(a, b, BLOSUM62, gaps).score
        s_hi = BandedEngine(width=hi).score_pair(a, b, BLOSUM62, gaps).score
        assert s_hi >= s_lo


class TestModeOrderingProperties:
    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models)
    def test_local_semiglobal_global_ordering(self, a, b, gaps):
        local = get_engine("scalar").score_pair(a, b, BLOSUM62, gaps).score
        semi = semiglobal_align(a, b, BLOSUM62, gaps).score
        glob = global_align(a, b, BLOSUM62, gaps).score
        assert local >= semi >= glob

    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models)
    def test_global_consumes_everything(self, a, b, gaps):
        tb = global_align(a, b, BLOSUM62, gaps)
        assert tb.aligned_query.replace("-", "") == a
        assert tb.aligned_db.replace("-", "") == b

    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models)
    def test_semiglobal_consumes_query(self, a, b, gaps):
        tb = semiglobal_align(a, b, BLOSUM62, gaps)
        assert tb.aligned_query.replace("-", "") == a

    @SETTINGS
    @given(a=short_protein, gaps=gap_models)
    def test_modes_coincide_on_self(self, a, gaps):
        expect = sum(BLOSUM62.score(c, c) for c in a)
        assert global_align(a, a, BLOSUM62, gaps).score == expect
        assert semiglobal_align(a, a, BLOSUM62, gaps).score == expect


class TestHeuristicSubsetProperty:
    @SETTINGS
    @given(
        query=st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=6, max_size=24),
        seqs=st.lists(
            st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=4, max_size=40),
            min_size=1, max_size=5,
        ),
    )
    def test_heuristic_never_exceeds_exact(self, query, seqs):
        from repro.db import SequenceDatabase
        from repro.db.fasta import FastaRecord
        from repro.heuristic import MiniBlast
        from repro.scoring import paper_gap_model

        db = SequenceDatabase.from_records(
            [FastaRecord(f"s{i}", s) for i, s in enumerate(seqs)]
        )
        heuristic = MiniBlast().search(query, db)
        oracle = get_engine("scalar")
        g = paper_gap_model()
        for i, s in enumerate(seqs):
            exact = oracle.score_pair(query, s, BLOSUM62, g).score
            assert heuristic.scores[i] <= exact
