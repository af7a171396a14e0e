"""Real-compute benchmarks of the alignment engines.

These time the actual kernels (not the device model): single-pair
throughput of each engine, batched inter-task throughput at the two
device lane widths with QP-vs-SP and blocking variations, and the numpy
kernel against the python kernel on one batch.  The absolute numbers
are Python speeds, far below the paper's hardware, and move with the
host.  The one gated figure is the numpy/python ratio: both timings come
from the same process, so ``test_kernel_speedup`` can hold it above a
floor on any runner.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import (
    DEFAULT_LANES,
    InterTaskEngine,
    get_engine,
    make_intertask_engine,
)
from repro.scoring import BLOSUM62, paper_gap_model

from conftest import run_once

GAPS = paper_gap_model()
RNG = np.random.default_rng(42)

QUERY = RNG.integers(0, 20, 256).astype(np.uint8)
TARGET = RNG.integers(0, 20, 400).astype(np.uint8)
BATCH = [RNG.integers(0, 20, int(n)).astype(np.uint8)
         for n in RNG.integers(50, 400, 64)]
BATCH_CELLS = len(QUERY) * sum(len(s) for s in BATCH)


def _report_gcups(benchmark, cells: int) -> None:
    benchmark.extra_info["cells"] = cells
    if benchmark.stats is not None:
        mean = benchmark.stats["mean"] if isinstance(benchmark.stats, dict) else benchmark.stats.stats.mean
        benchmark.extra_info["gcups"] = cells / mean / 1e9


@pytest.mark.benchmark(group="engine-pair")
@pytest.mark.parametrize("name", ["scan", "diagonal", "striped", "intertask"])
def test_pair_throughput(benchmark, name):
    engine = get_engine(name)
    result = benchmark(
        lambda: engine.score_pair(QUERY, TARGET, BLOSUM62, GAPS)
    )
    assert result.score >= 0
    _report_gcups(benchmark, len(QUERY) * len(TARGET))


@pytest.mark.benchmark(group="engine-batch")
@pytest.mark.parametrize("lanes", [8, 16], ids=["avx-lanes", "mic-lanes"])
def test_intertask_batch_throughput(benchmark, lanes):
    engine = InterTaskEngine(lanes=lanes)
    batch = benchmark(
        lambda: engine.score_batch(QUERY, BATCH, BLOSUM62, GAPS)
    )
    assert len(batch) == len(BATCH)
    _report_gcups(benchmark, BATCH_CELLS)


@pytest.mark.benchmark(group="engine-batch")
@pytest.mark.parametrize("profile", ["query", "sequence"])
def test_intertask_profile_modes(benchmark, profile):
    engine = InterTaskEngine(lanes=16, profile=profile)
    batch = benchmark(
        lambda: engine.score_batch(QUERY, BATCH, BLOSUM62, GAPS)
    )
    assert len(batch) == len(BATCH)
    _report_gcups(benchmark, BATCH_CELLS)


@pytest.mark.benchmark(group="engine-batch")
@pytest.mark.parametrize("block", [None, 128], ids=["unblocked", "blocked128"])
def test_intertask_blocking_overhead(benchmark, block):
    engine = InterTaskEngine(lanes=16, block_cols=block)
    batch = benchmark(
        lambda: engine.score_batch(QUERY, BATCH, BLOSUM62, GAPS)
    )
    assert len(batch) == len(BATCH)
    _report_gcups(benchmark, BATCH_CELLS)


@pytest.mark.benchmark(group="engine-scalar")
def test_scalar_reference_small(benchmark):
    # The oracle is O(mn) Python — bench a small case only.
    engine = get_engine("scalar")
    q, d = QUERY[:64], TARGET[:64]
    result = benchmark(lambda: engine.score_pair(q, d, BLOSUM62, GAPS))
    assert result.score >= 0
    _report_gcups(benchmark, len(q) * len(d))


# The kernel-speedup batch, the paper's inter-task sweet spot: many
# short database sequences against a mid-length query.
KERNEL_RNG = np.random.default_rng(7)
KERNEL_QUERY = KERNEL_RNG.integers(0, 20, 128).astype(np.uint8)
KERNEL_BATCH = [KERNEL_RNG.integers(0, 20, int(n)).astype(np.uint8)
                for n in KERNEL_RNG.integers(30, 81, 256)]
KERNEL_CELLS = len(KERNEL_QUERY) * sum(len(s) for s in KERNEL_BATCH)

#: 60% of the 6.5x speedup the numpy kernel first showed on this batch.
#: Both timings come from one process, so host speed largely cancels
#: and only a kernel that lost most of its lead falls below the floor.
KERNEL_SPEEDUP_FLOOR = 3.9


@pytest.mark.benchmark(group="engine-kernel")
def test_kernel_speedup(benchmark, show):
    def measure() -> dict[str, tuple[np.ndarray, float]]:
        runs = {}
        for kernel in ("python", "numpy"):
            engine = make_intertask_engine(
                kernel, lanes=DEFAULT_LANES[kernel]
            )
            # Warm-up, then best of 3.
            scores = engine.score_batch(
                KERNEL_QUERY, KERNEL_BATCH, BLOSUM62, GAPS
            ).scores
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                engine.score_batch(KERNEL_QUERY, KERNEL_BATCH, BLOSUM62, GAPS)
                best = min(best, time.perf_counter() - t0)
            runs[kernel] = (scores, best)
        return runs

    runs = run_once(benchmark, measure)
    (py_scores, py_wall), (np_scores, np_wall) = runs["python"], runs["numpy"]
    speedup = py_wall / np_wall
    show(
        f"kernel speedup: numpy {KERNEL_CELLS / np_wall / 1e9:.3f} GCUPS / "
        f"python {KERNEL_CELLS / py_wall / 1e9:.3f} GCUPS = {speedup:.2f}x "
        f"(floor {KERNEL_SPEEDUP_FLOOR}x)"
    )
    benchmark.extra_info["speedup"] = speedup
    # A fast wrong kernel must fail here, not win.
    assert np.array_equal(py_scores, np_scores)
    assert speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"numpy kernel is {speedup:.2f}x the python kernel, below the "
        f"{KERNEL_SPEEDUP_FLOOR}x floor"
    )
