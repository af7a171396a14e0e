"""Unit tests for the calibrated performance model.

These tests pin the *shapes* the paper reports — orderings, ratios,
crossovers — rather than exact third-party numbers (only the per-device
anchor is exact by construction).
"""

import numpy as np
import pytest

from repro.db import SyntheticSwissProt
from repro.devices import XEON_E5_2670_DUAL, XEON_PHI_57XX
from repro.exceptions import ModelError
from repro.perfmodel import (
    CALIBRATIONS, DevicePerformanceModel, RunConfig, Workload,
    calibration_for, efficiency_table, thread_sweep,
)


@pytest.fixture(scope="module")
def lengths():
    return SyntheticSwissProt().lengths()


@pytest.fixture(scope="module")
def xeon(lengths):
    return DevicePerformanceModel(XEON_E5_2670_DUAL)


@pytest.fixture(scope="module")
def phi():
    return DevicePerformanceModel(XEON_PHI_57XX)


@pytest.fixture(scope="module")
def wl_xeon(lengths):
    return Workload.from_lengths(lengths, 8)


@pytest.fixture(scope="module")
def wl_phi(lengths):
    return Workload.from_lengths(lengths, 16)


class TestWorkload:
    def test_cells(self, wl_xeon, lengths):
        assert wl_xeon.cells(100) == 100 * int(lengths.sum())

    def test_group_structure(self, lengths):
        wl = Workload.from_lengths(lengths, 16)
        assert len(wl.group_residues) == -(-len(lengths) // 16)
        assert wl.group_residues.sum() == lengths.sum()

    def test_fingerprint_distinguishes_workloads(self, lengths):
        a = Workload.from_lengths(lengths[:1000], 8)
        b = Workload.from_lengths(lengths[1000:2000], 8)
        assert a.fingerprint != b.fingerprint

    def test_fingerprint_stable(self, lengths):
        a = Workload.from_lengths(lengths[:1000], 8)
        b = Workload.from_lengths(lengths[:1000].copy(), 8)
        assert a.fingerprint == b.fingerprint

    def test_invalid_inputs(self):
        with pytest.raises(ModelError):
            Workload.from_lengths(np.array([], dtype=np.int64), 8)
        with pytest.raises(ModelError):
            Workload.from_lengths(np.array([0]), 8)
        with pytest.raises(ModelError):
            Workload.from_lengths(np.array([10]), 0)
        with pytest.raises(ModelError):
            Workload.from_lengths(np.array([10]), 8).cells(0)


class TestCalibration:
    def test_lookup(self):
        assert calibration_for("xeon-e5-2670x2") is CALIBRATIONS["xeon-e5-2670x2"]

    def test_unknown_device(self):
        with pytest.raises(ModelError):
            calibration_for("gpu-9000")

    def test_anchor_targets_are_paper_numbers(self):
        assert CALIBRATIONS["xeon-e5-2670x2"].anchor_target_gcups == 32.0
        assert CALIBRATIONS["xeon-phi-60c"].anchor_target_gcups == 34.9


class TestAnchoredHeadlines:
    def test_xeon_intrinsic_sp_hits_anchor(self, xeon, wl_xeon):
        g = xeon.gcups(wl_xeon, 5478, RunConfig())
        assert g == pytest.approx(32.0, rel=1e-6)

    def test_phi_intrinsic_sp_hits_anchor(self, phi, wl_phi):
        g = phi.gcups(wl_phi, 5478, RunConfig())
        assert g == pytest.approx(34.9, rel=1e-6)


class TestVariantOrdering:
    """Figure 3/5 orderings: intrinsic > simd > no-vec; SP >= QP."""

    @pytest.mark.parametrize("model_name,lanes", [("xeon", 8), ("phi", 16)])
    def test_vectorization_ordering(self, model_name, lanes, xeon, phi, lengths):
        model = {"xeon": xeon, "phi": phi}[model_name]
        wl = Workload.from_lengths(lengths, lanes)
        g = {
            vec: model.gcups(wl, 5478, RunConfig(vectorization=vec))
            for vec in ("novec", "simd", "intrinsic")
        }
        assert g["intrinsic"] > g["simd"] > g["novec"]
        assert g["novec"] < 3.0  # "hardly offer performances"

    @pytest.mark.parametrize("model_name,lanes", [("xeon", 8), ("phi", 16)])
    def test_sp_beats_qp(self, model_name, lanes, xeon, phi, lengths):
        model = {"xeon": xeon, "phi": phi}[model_name]
        wl = Workload.from_lengths(lengths, lanes)
        sp = model.gcups(wl, 5478, RunConfig(profile="sequence"))
        qp = model.gcups(wl, 5478, RunConfig(profile="query"))
        assert sp > qp

    def test_qp_penalty_larger_on_xeon(self, xeon, phi, wl_xeon, wl_phi):
        # Section V-C2: the Phi's gather makes QP hurt less there.
        xeon_ratio = (
            xeon.gcups(wl_xeon, 5478, RunConfig(profile="sequence"))
            / xeon.gcups(wl_xeon, 5478, RunConfig(profile="query"))
        )
        phi_ratio = (
            phi.gcups(wl_phi, 5478, RunConfig(profile="sequence"))
            / phi.gcups(wl_phi, 5478, RunConfig(profile="query"))
        )
        assert xeon_ratio > phi_ratio

    def test_guided_penalty_larger_on_phi(self, xeon, phi, wl_xeon, wl_phi):
        # Fig. 3 vs Fig. 5: simd-SP is ~78% of intrinsic-SP on the Xeon
        # but only ~42% on the Phi.
        xeon_ratio = (
            xeon.gcups(wl_xeon, 5478, RunConfig(vectorization="simd"))
            / xeon.gcups(wl_xeon, 5478, RunConfig())
        )
        phi_ratio = (
            phi.gcups(wl_phi, 5478, RunConfig(vectorization="simd"))
            / phi.gcups(wl_phi, 5478, RunConfig())
        )
        assert phi_ratio < 0.55 < xeon_ratio

    def test_paper_simd_values_approximate(self, xeon, phi, wl_xeon, wl_phi):
        # Fig. 4: simd-SP 25.1 on Xeon; Fig. 5: 13.6/14.5 QP/SP on Phi.
        assert xeon.gcups(wl_xeon, 5478, RunConfig(vectorization="simd")) == pytest.approx(25.1, rel=0.10)
        assert phi.gcups(wl_phi, 5478, RunConfig(vectorization="simd")) == pytest.approx(14.5, rel=0.10)
        assert phi.gcups(wl_phi, 5478, RunConfig(vectorization="simd", profile="query")) == pytest.approx(13.6, rel=0.10)

    def test_paper_intrinsic_qp_phi(self, phi, wl_phi):
        # Section V-C2: intrinsic-QP reaches 27.1 GCUPS.
        g = phi.gcups(wl_phi, 5478, RunConfig(profile="query"))
        assert g == pytest.approx(27.1, rel=0.10)


class TestThreadScaling:
    def test_xeon_monotone_and_saturating(self, xeon, wl_xeon):
        sweep = thread_sweep(xeon, wl_xeon, 1000, RunConfig(), [1, 2, 4, 8, 16, 32])
        values = list(sweep.values())
        assert all(b >= a for a, b in zip(values, values[1:]))
        # HT region gains less than physical-core region.
        assert sweep[32] / sweep[16] < sweep[16] / sweep[8]

    def test_xeon_efficiency_matches_paper_quotes(self, xeon, wl_xeon):
        # Section V-C1: ~99% at 4 threads, ~88% at 16, ~70% at 32.
        eff = efficiency_table(xeon, wl_xeon, 1000, RunConfig(), [4, 16, 32])
        assert eff[4] == pytest.approx(0.99, abs=0.03)
        assert eff[16] == pytest.approx(0.88, abs=0.12)
        assert eff[32] == pytest.approx(0.70, abs=0.07)

    def test_phi_scales_to_240(self, phi, wl_phi):
        sweep = thread_sweep(phi, wl_phi, 1000, RunConfig(), [30, 60, 120, 240])
        values = list(sweep.values())
        assert all(b > a for a, b in zip(values, values[1:]))


class TestQueryLengthEffect:
    def test_phi_gains_strongly_with_length(self, phi, wl_phi):
        # Fig. 6: "as the query length is longer, there is more
        # performance achieved".
        short = phi.gcups(wl_phi, 144, RunConfig())
        long = phi.gcups(wl_phi, 5478, RunConfig())
        assert long > short * 1.15

    def test_xeon_gains_mildly(self, xeon, wl_xeon):
        # Fig. 4: "practically no impact ... light improvement trend".
        short = xeon.gcups(wl_xeon, 144, RunConfig())
        long = xeon.gcups(wl_xeon, 5478, RunConfig())
        assert 1.0 < long / short < 1.2

    def test_monotone_in_query_length(self, phi, wl_phi):
        values = [phi.gcups(wl_phi, q, RunConfig()) for q in (144, 464, 1000, 2504, 5478)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestBlocking:
    def test_blocking_helps_both_devices(self, xeon, phi, wl_xeon, wl_phi):
        for model, wl in ((xeon, wl_xeon), (phi, wl_phi)):
            on = model.gcups(wl, 5478, RunConfig(blocking=True))
            off = model.gcups(wl, 5478, RunConfig(blocking=False))
            assert on > off

    def test_blocking_helps_phi_more(self, xeon, phi, wl_xeon, wl_phi):
        # Fig. 7: "larger improvement in the Intel Xeon Phi because its
        # cache size is lower".
        gain_x = (
            xeon.gcups(wl_xeon, 5478, RunConfig())
            / xeon.gcups(wl_xeon, 5478, RunConfig(blocking=False))
        )
        gain_p = (
            phi.gcups(wl_phi, 5478, RunConfig())
            / phi.gcups(wl_phi, 5478, RunConfig(blocking=False))
        )
        assert gain_p > gain_x > 1.0


class TestTinyWorkload:
    def test_xeon_compute_rate_on_tiny_database(self, xeon):
        # On a tiny database the fixed per-run overhead dominates, so
        # overall GCUPS is small — but the compute-only rate must be in
        # the Xeon's tens-of-GCUPS regime.
        lengths = SyntheticSwissProt().generate(scale=0.0002).lengths
        cells = 30 * int(lengths.sum())
        seconds = xeon.run_seconds(
            Workload.from_lengths(lengths, 8), 30,
            RunConfig(threads=32, blocking=False),
        )
        assert 0 < cells / seconds / 1e9 < 35
        compute_s = seconds - xeon.cal.fixed_run_seconds
        assert cells / compute_s / 1e9 > 5.0


class TestSchedulePolicies:
    def test_dynamic_at_least_as_good_as_static(self, xeon, wl_xeon):
        dyn = xeon.gcups(wl_xeon, 1000, RunConfig(schedule="dynamic"))
        sta = xeon.gcups(wl_xeon, 1000, RunConfig(schedule="static"))
        assert dyn >= sta

    def test_run_config_labels(self):
        assert RunConfig(vectorization="novec").label == "no-vec"
        assert RunConfig(vectorization="simd", profile="query").label == "simd-QP"
        assert RunConfig().label == "intrinsic-SP"


class TestProjection:
    def test_projection_keeps_anchor(self, phi, wl_phi):
        from dataclasses import replace as dc_replace

        from repro.devices import XEON_PHI_57XX

        bigger = dc_replace(XEON_PHI_57XX, name="knc-120c", cores=120)
        projected = phi.project(bigger)
        assert projected.anchor() == phi.anchor()
        assert projected.cal is phi.cal

    def test_more_cores_more_gcups(self, phi, wl_phi, lengths):
        from dataclasses import replace as dc_replace

        from repro.devices import XEON_PHI_57XX
        from repro.perfmodel import Workload

        bigger = phi.project(
            dc_replace(XEON_PHI_57XX, name="knc-90c", cores=90)
        )
        wl = Workload.from_lengths(lengths, 16)
        assert bigger.gcups(wl, 5478, RunConfig()) > phi.gcups(
            wl, 5478, RunConfig()
        )

    def test_knl_projection_in_plausible_range(self, phi, lengths):
        from repro.devices.spec import XEON_PHI_KNL_PROJECTION
        from repro.perfmodel import Workload

        knl = phi.project(XEON_PHI_KNL_PROJECTION)
        wl = Workload.from_lengths(lengths, 16)
        g = knl.gcups(wl, 5478, RunConfig())
        # KNL-generation SW implementations reached ~50-60 GCUPS.
        assert 40 < g < 70
