"""Tests for Monte Carlo delay variation."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.papercircuits import fig4_rc_tree, fig9_grounded_resistor
from repro.timing import delay_corners, delay_distribution, uniform_tolerances


class TestSampling:
    def test_reproducible(self):
        circuit = fig4_rc_tree()
        tolerances = uniform_tolerances(circuit, 0.1)
        a = delay_distribution(circuit, "4", tolerances, samples=50, seed=7,
                               source_values={"Vin": 5.0})
        b = delay_distribution(circuit, "4", tolerances, samples=50, seed=7,
                               source_values={"Vin": 5.0})
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_linear_matches_exact_statistics(self):
        circuit = fig4_rc_tree()
        tolerances = uniform_tolerances(circuit, 0.05)
        linear = delay_distribution(circuit, "4", tolerances, samples=300,
                                    seed=3, source_values={"Vin": 5.0},
                                    method="linear")
        exact = delay_distribution(circuit, "4", tolerances, samples=300,
                                   seed=3, source_values={"Vin": 5.0},
                                   method="exact")
        # Same seed → same deltas: pointwise first-order agreement.
        assert np.abs(linear.samples - exact.samples).max() < 0.01 * exact.nominal
        assert linear.mean == pytest.approx(exact.mean, rel=2e-3)
        assert linear.std == pytest.approx(exact.std, rel=0.05)

    def test_corners_bracket_samples(self):
        circuit = fig9_grounded_resistor()
        tolerances = uniform_tolerances(circuit, 0.15)
        corners = delay_corners(circuit, "4", tolerances, {"Vin": 5.0})
        mc = delay_distribution(circuit, "4", tolerances, samples=400, seed=1,
                                source_values={"Vin": 5.0}, method="exact")
        assert mc.worst <= corners.corner_high * (1 + 1e-9)
        assert mc.best >= corners.corner_low * (1 - 1e-9)

    def test_statistics_interface(self):
        circuit = fig4_rc_tree()
        mc = delay_distribution(circuit, "4", uniform_tolerances(circuit, 0.1),
                                samples=200, seed=2, source_values={"Vin": 5.0})
        assert mc.best <= mc.quantile(0.5) <= mc.worst
        assert mc.mean == pytest.approx(mc.nominal, rel=0.03)
        assert mc.std > 0

    def test_unknown_element_rejected(self):
        with pytest.raises(AnalysisError):
            delay_distribution(fig4_rc_tree(), "4", {"Zz": 0.1},
                               source_values={"Vin": 5.0})

    def test_bad_method_rejected(self):
        with pytest.raises(AnalysisError):
            delay_distribution(fig4_rc_tree(), "4", {"R1": 0.1},
                               source_values={"Vin": 5.0}, method="magic")

    def test_zero_samples_rejected(self):
        with pytest.raises(AnalysisError):
            delay_distribution(fig4_rc_tree(), "4", {"R1": 0.1}, samples=0,
                               source_values={"Vin": 5.0})

    @pytest.mark.parametrize("method", ["linear", "exact"])
    def test_tolerance_of_one_or_more_rejected(self, method):
        # A tolerance >= 1 would let a sample drive R1 or C1 negative:
        # the linear samples go below zero, the exact re-stamp fails.
        with pytest.raises(AnalysisError, match=r"\[0, 1\)"):
            delay_distribution(fig4_rc_tree(), "4", {"R1": 1.5, "C1": 2.0},
                               samples=50, source_values={"Vin": 5.0},
                               method=method)
