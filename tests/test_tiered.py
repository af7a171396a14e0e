"""Behavioural tests for the tiered search path (seed -> verify -> SW).

The tiered contract under test:

* every *returned* hit's score is bit-identical to what the exhaustive
  scan reports for that sequence (stage-3 rescoring is per-sequence
  independent exact SW);
* the survivor set is per-sequence deterministic, so chunking and
  streaming never change the result;
* ``sensitive`` recalls at least as much as ``fast`` on mutated
  homologs (the funnels nest: fast's thresholds are strictly harsher);
* the mode plumbing validates loudly — bad modes, fault injectors,
  non-local schedulers and too-short queries are typed errors, never
  silent behaviour changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.db import SequenceDatabase, SyntheticSwissProt
from repro.db.fasta import FastaRecord
from repro.db.mutate import plant_homologs
from repro.devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
from repro.exceptions import DeadlineExceeded, PipelineError
from repro.faults import Deadline, FaultInjector, FaultPlan
from repro.metrics import MetricsRegistry
from repro.obs import Tracer, use_tracer
from repro.perfmodel import DevicePerformanceModel
from repro.search import (
    HybridSearchPipeline,
    PartialResult,
    SearchOptions,
    SearchPipeline,
    StreamingSearch,
    TieredSearch,
    TieredSearchResult,
)
from repro.search.tiered import TIER_PRESETS
from repro.service import SearchService, WorkQueueScheduler
from tests.conftest import random_protein

SCALE = 0.0004
RATES = [0.1, 0.3]


@pytest.fixture(scope="module")
def planted():
    """Background + known homologs of a fixed 120aa query."""
    bg = SyntheticSwissProt(seed=47).generate(scale=SCALE)
    rng = np.random.default_rng(12)
    query = random_protein(rng, 120)
    db, homologs = plant_homologs(
        bg, {"q": __import__("repro").PROTEIN.encode(query)},
        rates=RATES, per_rate=3, seed=5,
    )
    return query, db, homologs


@pytest.fixture(scope="module")
def exhaustive(planted):
    query, db, _ = planted
    return SearchPipeline(SearchOptions(top_k=10)).search(query, db)


class TestScoreExactness:
    @pytest.mark.parametrize("mode", ["sensitive", "fast"])
    def test_returned_scores_bit_identical_to_exhaustive(
        self, planted, exhaustive, mode
    ):
        query, db, _ = planted
        result = SearchPipeline(
            SearchOptions(mode=mode, top_k=10)
        ).search(query, db)
        assert isinstance(result, TieredSearchResult)
        assert result.hits, "tiered search returned no hits at all"
        for hit in result.hits:
            assert hit.score == int(exhaustive.scores[hit.index]), (
                f"{mode}: hit {hit.index} score {hit.score} != exhaustive "
                f"{int(exhaustive.scores[hit.index])}"
            )

    def test_close_homologs_recalled(self, planted):
        query, db, homologs = planted
        result = SearchPipeline(
            SearchOptions(mode="sensitive", top_k=10)
        ).search(query, db)
        returned = {h.index for h in result.hits}
        for hom in homologs:
            assert hom.index in returned, hom

    def test_rank_order_matches_exhaustive_on_survivors(
        self, planted, exhaustive
    ):
        # Survivors rank exactly as the exhaustive stable argsort ranks
        # them: the tiered top list is a subsequence of the exhaustive
        # ranking.
        query, db, _ = planted
        result = SearchPipeline(
            SearchOptions(mode="sensitive", top_k=10)
        ).search(query, db)
        exhaustive_order = [h.index for h in exhaustive.hits]
        tiered_order = [
            h.index for h in result.hits if h.index in set(exhaustive_order)
        ]
        positions = [exhaustive_order.index(i) for i in tiered_order]
        assert positions == sorted(positions)

    def test_funnel_accounting(self, planted):
        query, db, _ = planted
        result = SearchPipeline(
            SearchOptions(mode="sensitive", top_k=10)
        ).search(query, db)
        tier = result.tier
        assert tier.candidates == len(db)
        assert tier.candidates >= tier.seed_survivors >= tier.verify_survivors
        assert tier.verify_survivors >= len(result.hits)
        assert tier.rescore_cells < tier.exhaustive_cells
        assert tier.exact_cell_reduction > 1.0
        assert result.cells == tier.total_cells
        prov = result.provenance
        assert prov["mode"] == "sensitive"
        assert prov["tiered"]["candidates"] == len(db)


class TestRecallOrdering:
    def test_sensitive_recall_ge_fast_seeded_fuzz(self):
        # Seeded fuzz lane: across queries, backgrounds and divergence
        # levels, sensitive must never recall fewer exhaustive-top-10
        # members than fast (its funnel is strictly wider).
        for seed in (3, 17, 29):
            rng = np.random.default_rng(seed)
            query = random_protein(rng, 100)
            bg = SyntheticSwissProt(seed=seed + 100).generate(scale=0.0003)
            from repro.alphabet import PROTEIN

            db, _ = plant_homologs(
                bg, {"q": PROTEIN.encode(query)},
                rates=[0.2, 0.4, 0.6], per_rate=2, seed=seed,
            )
            exact = SearchPipeline(SearchOptions(top_k=10)).search(query, db)
            ref = [h.index for h in exact.hits]
            recall = {}
            for mode in ("sensitive", "fast"):
                result = SearchPipeline(
                    SearchOptions(mode=mode, top_k=10)
                ).search(query, db)
                got = {h.index for h in result.hits}
                recall[mode] = sum(1 for i in ref if i in got) / len(ref)
            assert recall["sensitive"] >= recall["fast"], (seed, recall)

    def test_fast_thresholds_not_looser_than_sensitive(self):
        # The nesting that backs the fuzz assertion: fast must prune at
        # least as hard as sensitive at every stage.
        s, f = TIER_PRESETS["sensitive"], TIER_PRESETS["fast"]
        assert f.threshold >= s.threshold
        assert f.seed_min_score >= s.seed_min_score
        assert f.verify_min_score >= s.verify_min_score
        assert f.band <= s.band


class TestStreamingInvariance:
    def test_chunking_invariant(self, planted):
        query, db, _ = planted
        results = []
        for chunk_size in (7, 64, 1000):
            search = StreamingSearch(SearchOptions(
                mode="sensitive", top_k=10, chunk_size=chunk_size
            ))
            results.append(search.search_database(query, db))
        first = [(h.index, h.score) for h in results[0].hits]
        for r in results[1:]:
            assert [(h.index, h.score) for h in r.hits] == first

    def test_streaming_matches_resident(self, planted):
        query, db, _ = planted
        resident = SearchPipeline(
            SearchOptions(mode="sensitive", top_k=10)
        ).search(query, db)
        streamed = StreamingSearch(
            SearchOptions(mode="sensitive", top_k=10, chunk_size=50)
        ).search_database(query, db)
        assert [(h.index, h.score) for h in streamed.hits] == [
            (h.index, h.score) for h in resident.hits
        ]

    def test_sharded_routes_to_tiered(self, planted):
        # workers > 1 with a tiered mode runs the same in-driver filter
        # (survivor sets are sharding-invariant; no pool is needed).
        query, db, _ = planted
        with StreamingSearch(
            SearchOptions(mode="sensitive", top_k=10, chunk_size=50),
            workers=2, shard_residues=5_000,
        ) as sharded:
            result = sharded.search_database(query, db)
        serial = StreamingSearch(
            SearchOptions(mode="sensitive", top_k=10, chunk_size=50)
        ).search_database(query, db)
        assert [(h.index, h.score) for h in result.hits] == [
            (h.index, h.score) for h in serial.hits
        ]

    def test_deadline_returns_partial(self, planted):
        import time

        query, db, _ = planted
        search = StreamingSearch(SearchOptions(
            mode="sensitive", top_k=10, chunk_size=10,
        ))
        result = search.search_database(
            query, db, deadline=Deadline(expires_at=time.time() - 1.0),
        )
        assert isinstance(result, PartialResult)
        assert result.sequences_scanned < len(db)

    def test_resident_deadline_raises(self, planted):
        import time

        query, db, _ = planted
        pipe = SearchPipeline(SearchOptions(mode="sensitive", top_k=10))
        with pytest.raises(DeadlineExceeded):
            pipe.search(
                query, db, deadline=Deadline(expires_at=time.time() - 1.0),
            )


class TestValidation:
    def test_invalid_mode_rejected(self):
        with pytest.raises(PipelineError, match="mode"):
            SearchOptions(mode="approximate")

    def test_tiered_rejects_exact_mode(self):
        with pytest.raises(PipelineError, match="exact"):
            TieredSearch(SearchOptions(mode="exact"))

    def test_injector_rejected_on_tiered_path(self):
        injector = FaultInjector(FaultPlan.parse("seed=7,corrupt=0.2"))
        with pytest.raises(PipelineError, match="fault injection"):
            TieredSearch(SearchOptions(mode="fast", injector=injector))

    def test_short_query_rejected(self, planted):
        _, db, _ = planted
        pipe = SearchPipeline(SearchOptions(mode="sensitive"))
        with pytest.raises(PipelineError, match="word size"):
            pipe.search("WC", db)

    def test_service_requires_local_scheduler(self):
        # The modelled host/device splits merge whole score arrays; a
        # tiered search would leave pruned sequences at 0 and rank them
        # as hits, so both schedulers refuse it up front.
        host = DevicePerformanceModel(XEON_E5_2670_DUAL)
        phi = DevicePerformanceModel(XEON_PHI_57XX)
        options = SearchOptions(mode="sensitive")
        for scheduler in ("static", "queue"):
            with pytest.raises(PipelineError, match="exact"):
                HybridSearchPipeline(host, phi, options, scheduler=scheduler)
        with pytest.raises(PipelineError, match="exact"):
            WorkQueueScheduler(host, phi, options)
        # The local service accepts tiered options.
        SearchService(options)

    def test_empty_database_rejected(self):
        pipe = SearchPipeline(SearchOptions(mode="fast"))
        with pytest.raises(PipelineError):
            pipe.search("WCHKWCHK", SequenceDatabase("e", [], []))

    def test_empty_stream_rejected(self):
        search = StreamingSearch(SearchOptions(mode="fast"))
        with pytest.raises(PipelineError, match="empty"):
            search.search_records("WCHKWCHK", iter([]))


class TestObservability:
    def test_metrics_and_spans(self, planted):
        query, db, _ = planted
        registry = MetricsRegistry()
        tracer = Tracer()
        pipe = SearchPipeline(
            SearchOptions(mode="sensitive", top_k=5), metrics=registry
        )
        with use_tracer(tracer):
            result = pipe.search(query, db)
        snap = registry.snapshot()
        assert snap["tiered.searches"] == 1
        assert snap["tiered.candidates"] == len(db)
        assert snap["tiered.seed.survivors"] == result.tier.seed_survivors
        assert snap["tiered.rescore.cells"] == result.tier.rescore_cells
        names = [s.name for s in tracer.collector.spans()]
        for stage in ("tiered.search", "tiered.seed", "tiered.verify",
                      "tiered.rescore"):
            assert stage in names, names

    def test_small_database_smoke(self):
        # A tiny fully-identical database: the homolog must survive all
        # three stages and come back with its exact score.
        db = SequenceDatabase.from_records([
            FastaRecord("self", "WCHKWCHKWCHKWCHK"),
            FastaRecord("noise", "PGPGPGPGPGPGPGPG"),
        ])
        result = SearchPipeline(
            SearchOptions(mode="sensitive", top_k=5)
        ).search("WCHKWCHKWCHKWCHK", db)
        exact = SearchPipeline(SearchOptions(top_k=5)).search(
            "WCHKWCHKWCHKWCHK", db
        )
        assert result.hits
        assert result.hits[0].index == 0
        assert result.hits[0].score == exact.hits[0].score


class TestNonProteinAlphabet:
    def test_dna_tiered_modes_score_like_exhaustive(self):
        # A 5-letter matrix: neighbourhood words come from its own codes,
        # not from the 20 standard protein residues.
        from repro.alphabet import DNA
        from repro.scoring import match_mismatch_matrix

        rng = np.random.default_rng(41)
        letters = np.array(list("ACGT"))
        query = "".join(rng.choice(letters, 120))
        records = []
        for k in range(30):
            seq = "".join(rng.choice(letters, int(rng.integers(40, 300))))
            if k % 6 == 0:
                copy = [
                    c if rng.random() > 0.1 else str(rng.choice(letters))
                    for c in query
                ]
                at = int(rng.integers(0, len(seq)))
                seq = seq[:at] + "".join(copy) + seq[at:]
            records.append(FastaRecord(f"dna{k}", seq))
        db = SequenceDatabase.from_records(records, alphabet=DNA)
        base = dict(
            matrix=match_mismatch_matrix(5, -4, alphabet=DNA),
            alphabet=DNA, top_k=10,
        )
        exact = SearchPipeline(SearchOptions(**base)).search(query, db)
        for mode in ("sensitive", "fast"):
            result = SearchPipeline(
                SearchOptions(**base, mode=mode)
            ).search(query, db)
            assert len(result.hits) >= 5, mode
            for hit in result.hits:
                assert hit.score == int(exact.scores[hit.index]), mode
