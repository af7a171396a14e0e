"""A third round of hypothesis property tests for the extensions."""


import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import InterTaskEngine, get_engine, waterman_eggert
from repro.db import SequenceDatabase
from repro.db.fasta import FastaRecord
from repro.db.io_npz import load_npz, save_npz
from repro.scoring import BLOSUM62, GapModel
from repro.search import SearchOptions
from repro.search.streaming import StreamingSearch

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)

short_protein = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=20)
gap_models = st.tuples(
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=4)
).map(lambda t: GapModel(*t))


class TestIntertaskConfigurations:
    @SETTINGS
    @given(
        query=short_protein,
        seqs=st.lists(short_protein, min_size=1, max_size=9),
        lanes=st.integers(min_value=1, max_value=20),
        gaps=gap_models,
    )
    def test_every_configuration_exact(self, query, seqs, lanes, gaps):
        oracle = get_engine("scalar")
        engine = InterTaskEngine(lanes=lanes)
        batch = engine.score_batch(query, seqs, BLOSUM62, gaps)
        for k, s in enumerate(seqs):
            assert batch.scores[k] == oracle.score_pair(
                query, s, BLOSUM62, gaps
            ).score


class TestWatermanEggertProperties:
    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models,
           k=st.integers(min_value=1, max_value=4))
    def test_scores_sorted_and_first_optimal(self, a, b, gaps, k):
        subs = waterman_eggert(a, b, BLOSUM62, gaps, k=k)
        scores = [t.score for t in subs]
        assert scores == sorted(scores, reverse=True)
        optimal = get_engine("scalar").score_pair(a, b, BLOSUM62, gaps).score
        if optimal > 0:
            assert subs and subs[0].score == optimal
        else:
            assert subs == []

    @SETTINGS
    @given(a=short_protein, b=short_protein, gaps=gap_models)
    def test_every_alignment_rescores(self, a, b, gaps):
        from tests.test_core_traceback import rescore

        for t in waterman_eggert(a, b, BLOSUM62, gaps, k=3):
            assert rescore(t, BLOSUM62, gaps) == t.score


class TestStreamingProperties:
    @SETTINGS
    @given(
        seqs=st.lists(short_protein, min_size=1, max_size=25),
        query=short_protein,
        chunk=st.integers(min_value=1, max_value=30),
        top_k=st.integers(min_value=1, max_value=8),
    )
    def test_streamed_topk_equals_global_sort(self, seqs, query, chunk, top_k):
        records = [FastaRecord(f"r{i}", s) for i, s in enumerate(seqs)]
        result = StreamingSearch(
            SearchOptions(chunk_size=chunk, top_k=top_k)
        ).search_records(query, iter(records))
        oracle = get_engine("scalar")
        from repro.scoring import paper_gap_model

        g = paper_gap_model()
        all_scores = [
            (oracle.score_pair(query, s, BLOSUM62, g).score, i)
            for i, s in enumerate(seqs)
        ]
        expected = sorted(all_scores, key=lambda t: (-t[0], t[1]))[:top_k]
        assert [(h.score, h.index) for h in result.hits] == expected


class TestNpzRoundtripProperty:
    header_text = st.text(
        alphabet=st.characters(min_codepoint=33, max_codepoint=126),
        min_size=1, max_size=20,
    )

    @SETTINGS
    @given(
        entries=st.lists(
            st.tuples(header_text, short_protein), min_size=1, max_size=12
        )
    )
    def test_roundtrip_identity(self, entries, tmp_path_factory):
        db = SequenceDatabase.from_records(
            [FastaRecord(f"{i}|{h}", s) for i, (h, s) in enumerate(entries)],
            name="prop",
        )
        path = tmp_path_factory.mktemp("npz") / "db.npz"
        save_npz(db, path)
        loaded = load_npz(path)
        assert loaded.headers == db.headers
        assert all(
            np.array_equal(a, b)
            for a, b in zip(loaded.sequences, db.sequences)
        )


class TestTsvOutput:
    def test_tsv_structure(self, rng):
        from repro.db import SyntheticSwissProt
        from repro.search import SearchPipeline
        from repro.search.stats import GumbelFit
        from tests.conftest import random_protein

        db = SyntheticSwissProt().generate(scale=0.0001)
        result = SearchPipeline().search(
            random_protein(rng, 30), db, top_k=5, traceback=True
        )
        plain = result.to_tsv()
        assert len(plain.splitlines()) == 5
        assert all(len(l.split("\t")) >= 4 for l in plain.splitlines())
        fit = GumbelFit(lam=0.3, k=0.05)
        with_stats = result.to_tsv(stats=fit)
        first = with_stats.splitlines()[0].split("\t")
        assert "e" in first[-1]  # E-value in scientific notation
