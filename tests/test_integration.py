"""Cross-module integration tests.

Exercise whole slices of the system the way the benchmarks do: the real
compute path against the synthetic database, the model stack against the
paper's configurations, and the agreement between the two representations
of the same pre-processing (database objects vs bare length arrays).
"""

import numpy as np
import pytest

from repro import (
    BLOSUM62,
    DevicePerformanceModel,
    HybridExecutor,
    InterTaskEngine,
    RunConfig,
    SearchOptions,
    SearchPipeline,
    SyntheticSwissProt,
    Workload,
    XEON_E5_2670_DUAL,
    XEON_PHI_57XX,
    get_engine,
    make_query_set,
    paper_gap_model,
    preprocess_database,
    split_database,
)


@pytest.fixture(scope="module")
def db():
    return SyntheticSwissProt().generate(scale=0.0003)


class TestPublicAPI:
    def test_star_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_example(self):
        from repro import sw_score

        assert sw_score("HEAGAWGHEE", "PAWHEAE") == 17


class TestEndToEndSearch:
    def test_paper_configuration_search(self, db):
        # The paper's exact scoring setup over the synthetic database,
        # cross-checked against a second engine on the top hits.
        queries = make_query_set()
        q = queries["P02232"]  # the shortest paper query (144 aa)
        pipe = SearchPipeline(SearchOptions(lanes=16))
        result = pipe.search(q, db, query_name="P02232", top_k=5)
        scan = get_engine("scan")
        for hit in result.hits:
            expect = scan.score_pair(
                q, db.sequences[hit.index], BLOSUM62, paper_gap_model()
            ).score
            assert hit.score == expect

    def test_hybrid_split_preserves_search_results(self, db):
        # Algorithm 2 semantics: searching the two halves separately and
        # merging must equal searching the whole database.
        q = make_query_set()["P05013"][:80]
        host_db, dev_db = split_database(db, 0.55)
        whole = SearchPipeline().search(q, db)
        host_part = SearchPipeline().search(q, host_db)
        dev_part = SearchPipeline().search(q, dev_db)
        merged = sorted(
            list(host_part.scores) + list(dev_part.scores), reverse=True
        )
        assert merged == sorted(whole.scores, reverse=True)

    def test_engine_lane_width_matches_devices(self, db):
        # 8-lane (Xeon/AVX) and 16-lane (Phi/MIC-512) engines agree.
        q = make_query_set()["P02232"][:60]
        g = paper_gap_model()
        xeon_engine = InterTaskEngine(lanes=8)
        phi_engine = InterTaskEngine(lanes=16)
        seqs = db.sequences[:40]
        a = xeon_engine.score_batch(q, seqs, BLOSUM62, g)
        b = phi_engine.score_batch(q, seqs, BLOSUM62, g)
        assert np.array_equal(a.scores, b.scores)


class TestModelDatabaseConsistency:
    def test_workload_matches_preprocessed_database(self, db):
        # The model's Workload (bare lengths) and the real pipeline's
        # PreprocessedDatabase must describe the same groups.
        pre = preprocess_database(db, lanes=8)
        wl = Workload.from_lengths(db.lengths, 8)
        assert len(wl.group_residues) == len(pre.groups)
        group_res = np.asarray([int(g.lengths.sum()) for g in pre.groups])
        assert np.array_equal(np.asarray(wl.group_residues), group_res)
        nmax = np.asarray([g.n_max for g in pre.groups])
        assert np.array_equal(np.asarray(wl.group_nmax), nmax)

    def test_split_database_matches_split_lengths(self, db):
        from repro.runtime import split_lengths

        host_db, dev_db = split_database(db, 0.4)
        host_l, dev_l = split_lengths(db.lengths, 0.4)
        assert host_db.total_residues == int(host_l.sum())
        assert dev_db.total_residues == int(dev_l.sum())


class TestPaperHeadlines:
    """The three headline numbers of the conclusions section."""

    @pytest.fixture(scope="class")
    def lengths(self):
        return SyntheticSwissProt().lengths()

    def test_xeon_headline(self, lengths):
        model = DevicePerformanceModel(XEON_E5_2670_DUAL)
        wl = Workload.from_lengths(lengths, 8)
        g = model.gcups(wl, 5478, RunConfig())
        assert 30.0 <= g <= 32.5  # paper: "32 ... on the Intel Xeon"

    def test_phi_headline(self, lengths):
        model = DevicePerformanceModel(XEON_PHI_57XX)
        wl = Workload.from_lengths(lengths, 16)
        g = model.gcups(wl, 5478, RunConfig())
        assert g == pytest.approx(34.9, rel=0.01)

    def test_hybrid_headline(self, lengths):
        ex = HybridExecutor(
            DevicePerformanceModel(XEON_E5_2670_DUAL),
            DevicePerformanceModel(XEON_PHI_57XX),
        )
        best = ex.best_split(lengths, 5478)
        assert best.gcups == pytest.approx(62.6, rel=0.05)

    def test_twenty_query_sweep_shapes(self, lengths):
        # Figures 4 and 6 jointly: Phi rises strongly with query length,
        # Xeon only mildly; the Phi overtakes the Xeon at long queries.
        from repro.db import PAPER_QUERIES

        xeon = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)
        wx = Workload.from_lengths(lengths, 8)
        wp = Workload.from_lengths(lengths, 16)
        qlens = [q.length for q in PAPER_QUERIES]
        gx = [xeon.gcups(wx, q, RunConfig()) for q in qlens]
        gp = [phi.gcups(wp, q, RunConfig()) for q in qlens]
        assert gp[0] < gx[0]        # short queries favour the host
        assert gp[-1] > gx[-1]      # long queries favour the Phi
        assert gp[-1] / gp[0] > gx[-1] / gx[0]
