"""Unit and integration tests for the search pipeline (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import get_engine
from repro.db import SyntheticSwissProt
from repro.devices import XEON_E5_2670_DUAL
from repro.exceptions import PipelineError
from repro.perfmodel import DevicePerformanceModel
from repro.scoring import BLOSUM62, SubstitutionMatrix, paper_gap_model
from repro.search import (
    Hit,
    SearchOptions,
    SearchPipeline,
    SearchResult,
    Stopwatch,
    gcups,
)
from tests.conftest import random_protein


@pytest.fixture(scope="module")
def db():
    return SyntheticSwissProt().generate(scale=0.0002)


@pytest.fixture(scope="module")
def pipeline():
    return SearchPipeline()


class TestGcupsMetric:
    def test_value(self):
        assert gcups(2_000_000_000, 2.0) == 1.0

    def test_zero_duration_degrades_to_zero(self):
        # A coarse clock can legitimately measure 0s on tiny inputs;
        # the metric degrades instead of blowing up a finished search.
        assert gcups(100, 0.0) == 0.0

    def test_invalid(self):
        with pytest.raises(PipelineError):
            gcups(100, -0.5)
        with pytest.raises(PipelineError):
            gcups(-1, 1.0)

    def test_stopwatch_accumulates(self):
        sw = Stopwatch()
        with sw:
            pass
        first = sw.seconds
        with sw:
            pass
        assert sw.seconds >= first
        sw.reset()
        assert sw.seconds == 0.0


class TestSearchCorrectness:
    def test_scores_match_scalar_oracle(self, db, pipeline, rng):
        # End-to-end: the full pipeline (sorting, lane packing, simulated
        # schedule, scatter-back) must equal naive pairwise alignment.
        query = random_protein(rng, 35)
        result = pipeline.search(query, db, top_k=5)
        oracle = get_engine("scalar")
        g = paper_gap_model()
        sample = rng.choice(len(db), size=25, replace=False)
        for idx in sample:
            expect = oracle.score_pair(
                query, db.sequences[int(idx)], BLOSUM62, g
            ).score
            assert result.scores[int(idx)] == expect

    def test_hits_ranked_descending(self, db, pipeline, rng):
        result = pipeline.search(random_protein(rng, 30), db, top_k=20)
        scores = [h.score for h in result.hits]
        assert scores == sorted(scores, reverse=True)

    def test_planted_homolog_is_top_hit(self, db, pipeline):
        # A query copied from a database entry must rank that entry first.
        from repro.alphabet import PROTEIN

        target = db.sequences[37]
        query = PROTEIN.decode(target[: min(len(target), 80)])
        result = pipeline.search(query, db, top_k=3)
        assert result.hits[0].index == 37

    def test_cells_accounting(self, db, pipeline, rng):
        q = random_protein(rng, 40)
        result = pipeline.search(q, db)
        assert result.cells == 40 * db.total_residues

    def test_scores_in_original_order(self, db, pipeline, rng):
        q = random_protein(rng, 20)
        result = pipeline.search(q, db)
        # The hit objects point at the right database entries.
        for hit in result.hits:
            assert hit.header == db.headers[hit.index]
            assert hit.length == len(db.sequences[hit.index])
            assert result.scores[hit.index] == hit.score

    def test_traceback_top_hits(self, db, pipeline):
        from repro.alphabet import PROTEIN

        query = PROTEIN.decode(db.sequences[5][:60])
        result = pipeline.search(query, db, top_k=2, traceback=True)
        top = result.hits[0]
        assert top.alignment is not None
        assert top.alignment.score == top.score

    def test_empty_database_rejected(self, pipeline):
        from repro.db import SequenceDatabase

        with pytest.raises(PipelineError):
            pipeline.search("ACDEF", SequenceDatabase("e", [], []))

    def test_qp_and_sp_pipelines_agree(self, db, rng):
        q = random_protein(rng, 25)
        sp = SearchPipeline(SearchOptions(profile="sequence")).search(q, db)
        qp = SearchPipeline(SearchOptions(profile="query")).search(q, db)
        assert np.array_equal(sp.scores, qp.scores)

    def test_schedules_do_not_change_scores(self, db, rng):
        q = random_protein(rng, 25)
        results = [
            SearchPipeline(SearchOptions(schedule=s)).search(q, db).scores
            for s in ("static", "dynamic", "guided")
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])

    def test_blocked_pipeline_agrees(self, db, rng):
        q = random_protein(rng, 25)
        plain = SearchPipeline().search(q, db).scores
        blocked = SearchPipeline(block_cols=32).search(q, db).scores
        assert np.array_equal(plain, blocked)

    def test_saturating_pipeline_recomputes(self, db):
        from repro.alphabet import PROTEIN

        # A match reward of 3000 lifts a 12-residue self-hit to 36000,
        # past the numpy kernel's int16 clamp (24575).  The engine redoes
        # that lane at full width, and the pipeline counts exactly the
        # lanes the engine redid, serially and on the pool alike.
        n = PROTEIN.size
        data = np.full((n, n), -2, dtype=np.int32)
        np.fill_diagonal(data, 3000)
        hot = SubstitutionMatrix("HOT3000", PROTEIN, data)
        query = PROTEIN.decode(db.sequences[11][:12])
        options = SearchOptions(matrix=hot, kernel="numpy")
        pipe = SearchPipeline(options)
        sat = pipe.search(query, db)
        ref = SearchPipeline(
            SearchOptions(matrix=hot, kernel="python")
        ).search(query, db)
        assert np.array_equal(sat.scores, ref.scores)
        assert sat.best_score() == 36000
        assert ref.saturated_recomputed == 0
        assert sat.saturated_recomputed > 0
        assert sat.saturated_recomputed == pipe.engine.stats.redo_lanes
        with SearchPipeline(options, workers=2) as pooled:
            par = pooled.search(query, db)
        assert np.array_equal(par.scores, sat.scores)
        assert par.saturated_recomputed == sat.saturated_recomputed


class TestModeledTiming:
    def test_device_model_attaches_gcups(self, db, rng):
        model = DevicePerformanceModel(XEON_E5_2670_DUAL)
        pipe = SearchPipeline(SearchOptions(threads=32), device_model=model)
        result = pipe.search(random_protein(rng, 30), db)
        assert result.modeled_seconds is not None
        # On a tiny database the fixed per-run overhead dominates, so
        # overall GCUPS is small — but the compute-only rate must be in
        # the Xeon's tens-of-GCUPS regime.
        assert 0 < result.modeled_gcups < 35
        compute_s = result.modeled_seconds - model.cal.fixed_run_seconds
        assert result.cells / compute_s / 1e9 > 5.0

    def test_without_model_no_modeled_time(self, db, pipeline, rng):
        result = pipeline.search(random_protein(rng, 10), db)
        assert result.modeled_seconds is None
        assert result.modeled_gcups is None


class TestSearchMany:
    def test_multiple_queries(self, db, pipeline, rng):
        queries = {
            "q1": rng.integers(0, 20, 12).astype(np.uint8),
            "q2": rng.integers(0, 20, 25).astype(np.uint8),
        }
        results = pipeline.search_many(queries, db)
        assert set(results) == {"q1", "q2"}
        assert results["q2"].query_length == 25


class TestResultType:
    def test_unsorted_hits_rejected(self):
        hits = [
            Hit(index=0, header="a", length=5, score=1),
            Hit(index=1, header="b", length=5, score=9),
        ]
        with pytest.raises(PipelineError, match="descending"):
            SearchResult(
                query_name="q", query_length=3, database_name="d",
                scores=np.array([1, 9]), hits=hits, cells=30,
                wall_seconds=0.1,
            )

    def test_top_k(self, db, pipeline, rng):
        result = pipeline.search(random_protein(rng, 15), db, top_k=7)
        assert len(result.top(3)) == 3
        with pytest.raises(PipelineError):
            result.top(-1)

    def test_summary_mentions_query_and_hits(self, db, pipeline, rng):
        result = pipeline.search(
            random_protein(rng, 15), db, query_name="myquery"
        )
        text = result.summary()
        assert "myquery" in text
        assert "#1" in text

    def test_accession_property(self):
        hit = Hit(index=0, header="SYN000001 something", length=4, score=2)
        assert hit.accession == "SYN000001"
