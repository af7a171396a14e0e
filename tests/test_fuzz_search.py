"""Randomised-options fuzz over the public search entrypoints.

Builds a few hundred random-but-valid :class:`SearchOptions` and drives
them through the entrypoints built on :mod:`repro.search.api` —
:class:`SearchPipeline`, :class:`SearchService` and, for the modelled
``static``/``queue`` schedulers, :class:`HybridSearchPipeline` —
asserting that no combination crashes and every outcome satisfies the
:class:`SearchOutcome` protocol and its basic invariants.

The quick variant runs in the tier-1 lane; the exhaustive sweep is
marked ``slow`` (deselect with ``-m "not slow"``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.alphabet import PROTEIN
from repro.db.database import SequenceDatabase
from repro.devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
from repro.faults.injection import FaultInjector, FaultPlan
from repro.perfmodel import DevicePerformanceModel
from repro.scoring import GapModel, get_matrix
from repro.search import (
    HybridSearchPipeline,
    SearchOptions,
    SearchOutcome,
    SearchPipeline,
    SearchRequest,
)
from repro.service import SearchService
from tests.conftest import random_protein

MATRIX_NAMES = (
    "BLOSUM45", "BLOSUM50", "BLOSUM62", "BLOSUM80", "BLOSUM90",
    "PAM30", "PAM70", "PAM250",
)
SCHEDULES = ("static", "dynamic", "guided")
PROFILES = ("sequence", "query")


def random_options(rng: np.random.Generator) -> SearchOptions:
    """A random but always-valid SearchOptions."""
    profile = PROFILES[int(rng.integers(len(PROFILES)))]
    # The retired schedule/threads options are still drawn (and thrown
    # away) so every later draw, and thus every generated case, stays
    # the one this seeded fuzz has always run.
    rng.integers(len(SCHEDULES))
    rng.integers(1, 9)
    kwargs: dict = {
        "profile": profile,
        "top_k": int(rng.integers(1, 13)),
        "chunk_size": int(rng.integers(1, 128)),
    }
    if rng.random() < 0.75:
        kwargs["matrix"] = get_matrix(
            MATRIX_NAMES[int(rng.integers(len(MATRIX_NAMES)))]
        )
    if rng.random() < 0.75:
        kwargs["gaps"] = GapModel(
            int(rng.integers(1, 16)), int(rng.integers(1, 5))
        )
    if rng.random() < 0.75:
        kwargs["lanes"] = int(rng.integers(1, 17))
    if rng.random() < 0.5:
        kwargs["kernel"] = ("python", "numpy")[int(rng.integers(2))]
    if rng.random() < 0.25:
        kwargs["injector"] = FaultInjector(FaultPlan(
            seed=int(rng.integers(10_000)),
            corrupt_rate=float(rng.random() * 0.4),
        ))
    return SearchOptions(**kwargs)


def random_database(rng: np.random.Generator) -> SequenceDatabase:
    n = int(rng.integers(1, 14))
    seqs = [random_protein(rng, int(k)) for k in rng.integers(1, 36, n)]
    return SequenceDatabase(
        "fuzz-db", [PROTEIN.encode(s) for s in seqs],
        [f"f{i}" for i in range(n)],
    )


def check_outcome(outcome, db: SequenceDatabase, opts: SearchOptions) -> None:
    """The SearchOutcome protocol plus its basic invariants."""
    assert isinstance(outcome, SearchOutcome)
    assert outcome.best_score() >= 0
    assert outcome.gcups >= 0.0
    assert dict(outcome.provenance)  # non-empty mapping
    hits = list(outcome.hits)
    assert len(hits) <= max(opts.top_k, len(db))
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)
    if hits:
        assert outcome.best_score() == hits[0].score
    result = getattr(outcome, "result", outcome)
    if hasattr(result, "scores"):
        assert len(result.scores) == len(db)
        assert outcome.best_score() == int(result.scores.max())


def run_pipeline_case(rng: np.random.Generator) -> None:
    opts = random_options(rng)
    db = random_database(rng)
    query = random_protein(rng, int(rng.integers(1, 30)))
    outcome = SearchPipeline(opts).search(query, db)
    check_outcome(outcome, db, opts)


def run_service_case(rng: np.random.Generator) -> None:
    opts = random_options(rng)
    db = random_database(rng)
    scheduler = ("local", "static", "queue")[int(rng.integers(3))]
    requests = [
        SearchRequest(
            query=random_protein(rng, int(rng.integers(1, 26))),
            name=f"q{k}",
            top_k=int(rng.integers(0, 8)) or None,
        )
        for k in range(int(rng.integers(1, 4)))
    ]
    if scheduler != "local":
        # The modelled host/device split lives beside the service.
        hybrid = HybridSearchPipeline(
            DevicePerformanceModel(XEON_E5_2670_DUAL),
            DevicePerformanceModel(XEON_PHI_57XX),
            opts, scheduler=scheduler,
        )
        for req in requests:
            check_outcome(
                hybrid.search(req.query, db, query_name=req.name,
                              top_k=req.top_k),
                db, opts,
            )
        return
    service = SearchService(opts)
    batch = service.run(requests, db)
    assert len(batch) == len(requests)
    for outcome in batch.outcomes:
        check_outcome(outcome, db, opts)
    # The batch aggregate itself honours the protocol.
    assert isinstance(batch, SearchOutcome)


def test_fuzz_pipeline_quick():
    rng = np.random.default_rng(0xF0221)
    for _ in range(45):
        run_pipeline_case(rng)


def test_fuzz_service_quick():
    rng = np.random.default_rng(0xF0222)
    for _ in range(12):
        run_service_case(rng)


@pytest.mark.slow
def test_fuzz_pipeline_exhaustive():
    rng = np.random.default_rng(0xF0223)
    for _ in range(220):
        run_pipeline_case(rng)


@pytest.mark.slow
def test_fuzz_service_exhaustive():
    rng = np.random.default_rng(0xF0224)
    for _ in range(60):
        run_service_case(rng)
