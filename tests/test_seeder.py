"""The array seed-and-verify stages equal the per-sequence loop they replace.

The reference below is the loop :class:`~repro.heuristic.MiniBlast` and
the tiered filter ran before seeding became array passes, built from
the public scalar stages (``neighborhood_words``, ``ungapped_extend``,
``gapped_extend``).  Every survivor, best seed, HSP extent, cell count
and verify score of :class:`~repro.heuristic.seeder.ArraySeeder` must
match it exactly, for both tier presets, whatever the batch sizes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.heuristic.seeder as seeder_mod
from repro.alphabet import DNA, PROTEIN
from repro.db import SequenceDatabase, SyntheticSwissProt
from repro.db.mutate import plant_homologs
from repro.heuristic import (
    KmerWordCoder, MiniBlast, Seed, build_query_word_table, gapped_extend,
    ungapped_extend,
)
from repro.heuristic.blast import BlastHit
from repro.heuristic.seeder import ArraySeeder
from repro.scoring import (
    BLOSUM62, GapModel, match_mismatch_matrix, paper_gap_model,
)
from repro.scoring.matrices import SubstitutionMatrix
from repro.search import SearchOptions, SearchPipeline, TierStats
from repro.search.scan import ScanContext
from repro.search.tiered import TIER_PRESETS, TieredFilter
from tests.test_heuristic import per_position_table

GAPS = paper_gap_model()


# ----------------------------------------------------------------------
# the reference loop
# ----------------------------------------------------------------------
def loop_seed(q, seq, table, matrix, k, x_drop, two_hit, window):
    """Best ungapped HSP of ``seq``: ``(ext, seed, cells, hits, extensions)``."""
    words = KmerWordCoder(k, matrix.alphabet).words_of(seq)
    best = best_seed = None
    cells = hits = extensions = 0
    covered: dict[int, int] = {}
    last_hit: dict[int, int] = {}
    for j in range(len(words)):
        for i in table.get(int(words[j]), ()):
            hits += 1
            diag = j - i
            if covered.get(diag, -1) >= j:
                continue
            if two_hit:
                prev = last_hit.get(diag)
                last_hit[diag] = j
                if prev is None or not (k <= j - prev <= window):
                    continue
            seed = Seed(qpos=i, dpos=j, length=k)
            ext = ungapped_extend(q, seq, seed, matrix, x_drop=x_drop)
            extensions += 1
            cells += ext.cells
            covered[diag] = ext.dend
            if best is None or ext.score > best.score:
                best, best_seed = ext, seed
    return best, best_seed, cells, hits, extensions


def loop_refine(q, seq, seed, hsp, matrix, gaps, *, window, band):
    """The gapped refinement around the best HSP."""
    window = max(window, hsp.length + 2 * band)
    return gapped_extend(q, seq, seed, matrix, gaps, window=window, band=band)


def loop_funnel(q, seqs, preset, matrix=BLOSUM62):
    """Per-sequence survivors, HSPs and verify results of the old funnel."""
    p = preset
    table = per_position_table(q, p.k, p.threshold, matrix)
    rows = []
    for seq in seqs:
        best, seed, cells, _, _ = loop_seed(
            q, seq, table, matrix, p.k, p.x_drop, p.two_hit, p.two_hit_window
        )
        refined = None
        if best is not None and best.score >= p.seed_min_score:
            refined = loop_refine(q, seq, seed, best, matrix, GAPS,
                                  window=p.window, band=p.band)
        rows.append((best, seed, cells, refined))
    return rows


def loop_blast(blaster: MiniBlast, q, database):
    """``MiniBlast.search`` as the per-sequence loop computed it."""
    table = per_position_table(q, blaster.k, blaster.threshold, blaster.matrix)
    scores = np.zeros(len(database), dtype=np.int64)
    hits = []
    seeds = unext = gapext = fallbacks = cells = 0
    for idx, seq in enumerate(database.sequences):
        best, seed, seed_cells, n_hits, n_ext = loop_seed(
            q, seq, table, blaster.matrix, blaster.k, blaster.x_drop,
            blaster.two_hit, blaster.two_hit_window,
        )
        seeds += n_hits
        unext += n_ext
        cells += seed_cells
        ext = None
        if best is not None and best.score >= blaster.gapped_trigger:
            ext = loop_refine(q, seq, seed, best, blaster.matrix,
                              blaster.gaps, window=blaster.window,
                              band=blaster.band)
            gapext += 1
            cells += ext.cells
        elif best is not None and best.score > 0:
            ext = best
            fallbacks += 1
        if ext is not None and ext.score > 0:
            scores[idx] = ext.score
            hits.append(BlastHit(idx, database.headers[idx], ext.score,
                                 ext.qstart, ext.qend, ext.dstart, ext.dend))
    return scores, hits, seeds, unext, gapext, fallbacks, cells


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def _database(seed: int, query: np.ndarray) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    lengths = rng.integers(30, 400, 24)
    background = SequenceDatabase(
        "bg", [rng.integers(0, 20, n).astype(np.uint8) for n in lengths],
        [f"bg{n}" for n in range(len(lengths))],
    )
    db, _ = plant_homologs(
        background, {"q": query}, rates=[0.1, 0.3], per_rate=1, seed=seed
    )
    seqs = list(db.sequences)
    # Records shorter than k, and records carrying ambiguity codes.
    seqs += [rng.integers(0, 24, n).astype(np.uint8) for n in (1, 2, 3)]
    seqs += [rng.integers(0, 24, 120).astype(np.uint8)]
    # A low-complexity record.
    seqs += [np.zeros(80, dtype=np.uint8)]
    return seqs


def _query(kind: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    if kind == "random":
        return rng.integers(0, 20, 160).astype(np.uint8)
    if kind == "ambiguous":
        return PROTEIN.encode(
            "MKTAYIAKQRBZXQISFVKSHFSRQ*LEERLGLIEVQBZXMKTAYIAKQRQISFVK"
        )
    if kind == "poly-a":
        return PROTEIN.encode("A" * 60)
    if kind == "exactly-k":
        return PROTEIN.encode("WCH")
    raise ValueError(kind)


QUERIES = ("random", "ambiguous", "poly-a", "exactly-k")


@pytest.fixture(params=["default", "small"])
def batches(request, monkeypatch):
    """Run each case at the default batch sizes and at forced tiny ones."""
    if request.param == "small":
        monkeypatch.setattr(seeder_mod, "_SEED_RESIDUES", 37)
        monkeypatch.setattr(seeder_mod, "_SEED_HITS", 5)
        monkeypatch.setattr(seeder_mod, "_EXTEND_LANES", 3)
        monkeypatch.setattr(seeder_mod, "_VERIFY_CELLS", 40)
    return request.param


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestArrayFunnelEqualsLoop:
    @pytest.mark.parametrize("mode", sorted(TIER_PRESETS))
    @pytest.mark.parametrize("kind", QUERIES)
    def test_seeds_and_verify_match_loop(self, kind, mode, batches):
        p = TIER_PRESETS[mode]
        q = _query(kind)
        seqs = _database(3, _query("random") if kind == "exactly-k" else q)
        reference = loop_funnel(q, seqs, p)

        seeder = ArraySeeder(
            q, build_query_word_table(q, BLOSUM62, k=p.k, threshold=p.threshold),
            BLOSUM62, x_drop=p.x_drop, two_hit=p.two_hit,
            two_hit_window=p.two_hit_window,
        )
        seeds = seeder.seed(seqs)
        assert seeds.cells.tolist() == [cells for _, _, cells, _ in reference]
        for n, (best, seed, _, _) in enumerate(reference):
            assert bool(seeds.found[n]) == (best is not None), n
            if best is None:
                continue
            got = (seeds.score[n], seeds.qpos[n], seeds.dpos[n],
                   seeds.qstart[n], seeds.qend[n], seeds.dstart[n],
                   seeds.dend[n])
            assert got == (best.score, seed.qpos, seed.dpos, best.qstart,
                           best.qend, best.dstart, best.dend), n

        survivors = np.flatnonzero(
            seeds.found & (seeds.score >= p.seed_min_score)
        )
        assert survivors.tolist() == [
            n for n, row in enumerate(reference) if row[3] is not None
        ]
        refined = seeder.verify(seqs, survivors, seeds, GAPS,
                                window=p.window, band=p.band)
        for t, n in enumerate(survivors):
            ext = reference[n][3]
            assert (refined.score[t], refined.cells[t], refined.qstart[t],
                    refined.qend[t], refined.dstart[t], refined.dend[t]) == (
                ext.score, ext.cells, ext.qstart, ext.qend, ext.dstart,
                ext.dend,
            ), n

    @pytest.mark.parametrize("mode", sorted(TIER_PRESETS))
    def test_funnel_stats_match_loop(self, mode, batches):
        p = TIER_PRESETS[mode]
        q = _query("random")
        seqs = _database(5, q)
        reference = loop_funnel(q, seqs, p)
        finalists = [
            n for n, (_, _, _, ext) in enumerate(reference)
            if ext is not None and ext.score >= p.verify_min_score
        ]
        context = ScanContext.resolve(SearchOptions(mode=mode))
        engine = context.make_engine()
        expected = TierStats(
            mode=mode,
            seed_survivors=sum(ext is not None for *_, ext in reference),
            verify_survivors=len(finalists),
            seed_cells=sum(cells for _, _, cells, _ in reference),
            verify_cells=sum(
                ext.cells for *_, ext in reference if ext is not None
            ),
            rescore_cells=engine.score_batch(
                q, [seqs[n] for n in finalists], BLOSUM62, GAPS
            ).cells,
        )
        stats = TierStats(mode=mode)
        filt = TieredFilter(q, BLOSUM62, GAPS, p, alphabet=PROTEIN)
        _, got = filt.funnel(seqs, engine, stats)
        assert got == finalists
        assert stats == expected


class TestMiniBlastEqualsLoop:
    @pytest.mark.parametrize("two_hit", [False, True])
    @pytest.mark.parametrize("kind", ["random", "ambiguous", "poly-a"])
    def test_search_matches_loop(self, kind, two_hit, batches):
        q = _query(kind)
        seqs = _database(11, q)
        database = SequenceDatabase(
            "cases", seqs, [f"s{n}" for n in range(len(seqs))]
        )
        blaster = MiniBlast(two_hit=two_hit, gapped_trigger=30)
        result = blaster.search(q, database)
        scores, hits, seeds, unext, gapext, fallbacks, cells = loop_blast(
            blaster, q, database
        )
        assert result.scores.tolist() == scores.tolist()
        assert result.hits == hits
        assert (result.seeds_found, result.ungapped_extensions,
                result.gapped_extensions, result.ungapped_fallbacks,
                result.cells_computed) == (
            seeds, unext, gapext, fallbacks, cells
        )

    def test_wide_scores_match_loop(self):
        # Scores this large take the int64 path instead of int32.
        scale = 10**7
        matrix = SubstitutionMatrix(
            "BLOSUM62x1e7", PROTEIN, BLOSUM62.data.astype(np.int64) * scale
        )
        q = _query("random")
        seqs = _database(11, q)
        database = SequenceDatabase(
            "cases", seqs, [f"s{n}" for n in range(len(seqs))]
        )
        blaster = MiniBlast(
            matrix, GapModel(10 * scale, 2 * scale), threshold=11 * scale,
            x_drop=16 * scale, gapped_trigger=30 * scale,
        )
        result = blaster.search(q, database)
        scores, hits, *_ = loop_blast(blaster, q, database)
        assert result.scores.max() > 1 << 31
        assert result.scores.tolist() == scores.tolist()
        assert result.hits == hits

    def test_dna_search_matches_loop(self):
        # A 5-letter matrix draws neighbourhood words from its own codes.
        rng = np.random.default_rng(2)
        q = rng.integers(0, 4, 70).astype(np.uint8)
        seqs = [rng.integers(0, 5, int(n)).astype(np.uint8)
                for n in rng.integers(2, 200, 12)]
        seqs[3] = np.concatenate([seqs[3], q[5:60], seqs[4]])
        database = SequenceDatabase(
            "dna", seqs, [f"d{n}" for n in range(len(seqs))], alphabet=DNA
        )
        blaster = MiniBlast(
            match_mismatch_matrix(5, -4, alphabet=DNA), alphabet=DNA
        )
        result = blaster.search(q, database)
        scores, hits, *_ = loop_blast(blaster, q, database)
        assert result.scores.tolist() == scores.tolist()
        assert result.hits == hits
        assert result.scores[3] > 100


class TestSeedingMemory:
    """The array stages hold bounded batches, not the whole database."""

    #: ``tracemalloc`` peak of the search below with the per-sequence
    #: seed and verify loops (2.47-2.49 MB), doubled.  Seeding with no
    #: batch or window bound peaks near 20 MB.
    CEILING_MB = 4.94

    def test_sensitive_search_heap_stays_bounded(self):
        rng = np.random.default_rng(19)
        query = rng.integers(0, 20, 700).astype(np.uint8)
        background = SyntheticSwissProt(seed=19).generate(scale=0.00019)
        db, _ = plant_homologs(
            background, {"q": query}, rates=[0.1, 0.3, 0.5], per_rate=1,
            seed=19,
        )
        assert 35_000 <= db.total_residues <= 45_000
        pipe = SearchPipeline(SearchOptions(
            mode="sensitive", kernel="numpy", top_k=10,
        ))
        pipe.search(query[:50], db)  # lazy set-up outside the trace
        tracemalloc.start()
        try:
            pipe.search(query, db)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= self.CEILING_MB, f"{peak:.2f} MB"
