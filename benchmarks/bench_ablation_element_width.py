"""Ablation — SIMD element width and the byte-first width ladder.

The paper's port computes in one element width; the systems it builds on
(SWIPE [4], CUDASW++ [5]) run narrow elements with saturation-triggered
recomputation, doubling or quadrupling lane counts.  This ablation
quantifies what that is worth on the paper's devices:

* the *model* side: modelled GCUPS with 16-bit elements (twice the
  lanes) on both devices;
* the *algorithmic* side: one real run of the vectorized engine's
  default ladder on a realistic batch — every sequence is swept at
  int8, those past the byte clamp are redone at int16, and those past
  the int16 clamp at full width — with the cells each rung sweeps and
  the effective lane speedup after recomputation costs.  On the Phi's
  512-bit registers the rungs run 64 int8, 32 int16 and 16 int32
  lanes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import VectorizedEngine, get_engine
from repro.db import SyntheticSwissProt
from repro.metrics import format_table
from repro.perfmodel import RunConfig, Workload
from repro.scoring import BLOSUM62, paper_gap_model

from conftest import run_once

QUERY_LEN = 5478
REGISTER_BITS = 512
NARROW_LANES = REGISTER_BITS // 8
WIDE_LANES = REGISTER_BITS // 32
#: Register lanes per rung of the ladder; the wide rung is the paper's
#: 32-bit width.
RUNG_LANES = {8: NARROW_LANES, 16: REGISTER_BITS // 16, 64: WIDE_LANES}


@pytest.mark.benchmark(group="ablation-element-width")
def test_element_width_ablation(benchmark, xeon_model, phi_model,
                                swissprot_lengths, show):
    db = SyntheticSwissProt().generate(scale=0.0002)
    query = np.random.default_rng(1).integers(0, 20, 300).astype(np.uint8)

    def compute():
        model_side = {}
        for name, model, lanes32 in (
            ("xeon", xeon_model, 8), ("phi", phi_model, 16),
        ):
            wl32 = Workload.from_lengths(swissprot_lengths, lanes32)
            wl16 = Workload.from_lengths(swissprot_lengths, lanes32 * 2)
            model_side[name] = {
                32: model.gcups(wl32, QUERY_LEN, RunConfig(element_bits=32)),
                16: model.gcups(wl16, QUERY_LEN, RunConfig(element_bits=16)),
            }
        # One real ladder run (the default path) on a realistic batch.
        engine = VectorizedEngine(lanes=NARROW_LANES)
        batch = engine.score_batch(
            query, db.sequences, BLOSUM62, paper_gap_model()
        )
        return model_side, engine, batch

    model_side, engine, batch = run_once(benchmark, compute)

    # Every sequence runs at int8; a rung past it reruns the sequences
    # whose exact score reached the rung below's clamp.
    gaps = paper_gap_model()
    rungs = engine._rungs(
        engine._prepare(query, BLOSUM62), gaps.open, gaps.extend
    )
    assert [r.dtype for r in rungs] == [np.int8, np.int16, np.int64]
    lengths = np.array([len(s) for s in db.sequences])
    ladder = [(8, len(lengths), batch.cells)]  # padded lane-group cells
    for bits, below in zip((16, 64), rungs):
        climbed = batch.scores >= below.clamp
        cells = len(query) * int(lengths[climbed].sum())
        ladder.append((bits, int(climbed.sum()), cells))
    assert ladder[1][1] == len(batch.saturated)
    total_cells = sum(cells for _, _, cells in ladder)
    narrow_fraction = batch.cells / total_cells
    effective_lanes = sum(
        RUNG_LANES[bits] * cells for bits, _, cells in ladder
    ) / total_cells
    lane_speedup = effective_lanes / WIDE_LANES

    rows = [
        (dev, widths[32], widths[16], f"{widths[16] / widths[32]:.2f}x")
        for dev, widths in model_side.items()
    ]
    show(format_table(
        ["device", "int32 GCUPS", "int16 GCUPS", "gain"],
        rows,
        title="Ablation — modelled element-width effect (intrinsic-SP)",
    ))
    show(format_table(
        ["rung", "lanes", "sequences", "cells", "cells share"],
        [
            (f"int{bits}" if bits < 64 else "int32 (wide)", RUNG_LANES[bits],
             n, cells, f"{cells / total_cells:.1%}")
            for bits, n, cells in ladder
        ],
        title="Byte-first ladder (real run, 512-bit registers)",
    ))
    show(
        f"int8 fraction {narrow_fraction:.1%}; effective lane "
        f"speedup over int32 lanes: {lane_speedup:.2f}x"
    )
    benchmark.extra_info["model_gain"] = {
        dev: widths[16] / widths[32] for dev, widths in model_side.items()
    }
    benchmark.extra_info["narrow_fraction"] = narrow_fraction

    # Twice the lanes buys real but sublinear gains (per-register
    # micro-ops and stalls don't halve).
    for dev, widths in model_side.items():
        assert 1.2 < widths[16] / widths[32] < 2.2, dev
    # On a realistic batch nearly everything resolves at 8 bits...
    assert narrow_fraction > 0.9
    # ...so the ladder's effective lane count approaches the 8-bit one.
    assert lane_speedup > 3.0
    # And it is exact: spot-check one sequence against the scan engine.
    k = 17
    assert batch.scores[k] == get_engine("scan").score_pair(
        query, db.sequences[k], BLOSUM62, paper_gap_model()
    ).score
