"""Tests for the Waveform container and its timing/error metrics."""

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.waveform import Waveform, l2_error, superpose


def exp_rise(tau=1e-9, v=5.0, n=2001, t_stop=10e-9):
    t = np.linspace(0, t_stop, n)
    return Waveform(t, v * (1 - np.exp(-t / tau)), "rise")


class TestConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(AnalysisError):
            Waveform(np.array([0.0, 1.0]), np.array([0.0]))

    def test_rejects_single_sample(self):
        with pytest.raises(AnalysisError):
            Waveform(np.array([0.0]), np.array([0.0]))

    def test_rejects_nonmonotone_time(self):
        with pytest.raises(AnalysisError):
            Waveform(np.array([0.0, 2.0, 1.0]), np.zeros(3))

    def test_interpolation_clamps(self):
        w = Waveform(np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        assert w(0.0) == 10.0
        assert w(3.0) == 20.0
        assert w(1.5) == 15.0


class TestAlgebra:
    def test_add_scalar_and_waveform(self):
        w = exp_rise()
        total = w + w
        np.testing.assert_allclose(total.values, 2 * w.values)
        shifted = w + 1.0
        np.testing.assert_allclose(shifted.values, w.values + 1.0)

    def test_sub_and_neg(self):
        w = exp_rise()
        zero = w - w
        assert np.all(zero.values == 0.0)
        assert np.all((-w).values == -w.values)

    def test_scale(self):
        w = exp_rise()
        np.testing.assert_allclose((2 * w).values, 2 * w.values)

    def test_shifted(self):
        w = exp_rise()
        assert w.shifted(1e-9).t_start == pytest.approx(1e-9)

    def test_resampled(self):
        w = exp_rise()
        r = w.resampled(np.linspace(0, 5e-9, 11))
        assert len(r) == 11


class TestTimingMetrics:
    def test_delay_50(self):
        w = exp_rise(tau=1e-9)
        assert w.delay_50() == pytest.approx(1e-9 * np.log(2), rel=1e-3)

    def test_threshold_delay(self):
        w = exp_rise(tau=1e-9, v=5.0)
        assert w.threshold_delay(4.0) == pytest.approx(-1e-9 * np.log(0.2), rel=1e-3)

    def test_threshold_never_crossed(self):
        w = exp_rise(v=5.0)
        with pytest.raises(AnalysisError, match="never crosses"):
            w.threshold_delay(6.0)

    def test_rise_time_exponential(self):
        w = exp_rise(tau=1e-9)
        assert w.rise_time() == pytest.approx(1e-9 * np.log(9), rel=1e-3)

    def test_crossings_direction_filter(self):
        t = np.linspace(0, 2 * np.pi, 1000)
        w = Waveform(t, np.sin(t))
        rising = w.crossings(0.0, rising=True)
        falling = w.crossings(0.0, rising=False)
        assert len(falling) == 1
        assert any(abs(c - np.pi) < 0.01 for c in falling)
        assert len(rising) >= 1

    def test_overshoot_zero_for_monotone(self):
        assert exp_rise().overshoot() == 0.0

    def test_overshoot_of_ringing(self):
        t = np.linspace(0, 10, 5000)
        w = Waveform(t, 1 - np.exp(-t) * np.cos(5 * t))
        assert w.overshoot() > 0.5

    def test_monotone_detection(self):
        assert exp_rise().is_monotone()
        t = np.linspace(0, 10, 500)
        bumpy = Waveform(t, np.exp(-t) * np.sin(t))
        assert not bumpy.is_monotone()

    def test_falling_delay(self):
        t = np.linspace(0, 10e-9, 2001)
        w = Waveform(t, 5 * np.exp(-t / 1e-9))
        assert w.delay_50(v_start=5.0, v_end=0.0) == pytest.approx(
            1e-9 * np.log(2), rel=1e-3
        )


class TestIntegrals:
    def test_integral(self):
        t = np.linspace(0, 1, 101)
        assert Waveform(t, 2 * np.ones(101)).integral() == pytest.approx(2.0)

    def test_settled_area_is_elmore_numerator(self):
        w = exp_rise(tau=1e-9, v=5.0, t_stop=30e-9, n=30001)
        # ∫ (v∞ − v) dt = v∞·τ.
        assert w.settled_area(5.0) == pytest.approx(5e-9, rel=1e-3)


class TestL2Error:
    def test_identical_waveforms(self):
        w = exp_rise()
        assert l2_error(w, w) == 0.0

    def test_known_error(self):
        # Reference e^{-t}, candidate 0: relative error 1.
        t = np.linspace(0, 40, 100001)
        ref = Waveform(t, np.exp(-t))
        cand = Waveform(t, np.zeros_like(t))
        assert l2_error(ref, cand) == pytest.approx(1.0, rel=1e-2)

    def test_absolute_mode(self):
        t = np.linspace(0, 40, 10001)
        ref = Waveform(t, np.exp(-t))
        cand = Waveform(t, np.zeros_like(t))
        assert l2_error(ref, cand, relative=False) == pytest.approx(
            np.sqrt(0.5), rel=1e-2
        )

    def test_disjoint_spans_rejected(self):
        a = Waveform(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        b = Waveform(np.array([2.0, 3.0]), np.array([0.0, 1.0]))
        with pytest.raises(AnalysisError):
            l2_error(a, b)


class TestSuperpose:
    def test_delayed_copies(self):
        t = np.linspace(0, 10, 1001)
        base = Waveform(t, np.ones_like(t))
        total = superpose([base, base.shifted(5.0)], t)
        assert total(2.0) == pytest.approx(1.0)
        assert total(7.0) == pytest.approx(2.0)


def _crossings_full(waveform, level, rising=None):
    """Every interval interpolated, then the crossing ones kept."""
    v = waveform.values - level
    a, b = v[:-1], v[1:]
    hit = a == 0.0
    through = ((a < 0) & (0 < b)) | ((b < 0) & (0 < a))
    if rising is not None:
        hit &= (b > 0) == rising
        through &= (b > a) == rising
    with np.errstate(all="ignore"):
        t_cross = waveform.times[:-1] + np.diff(waveform.times) * (-a) / (b - a)
    crossings = np.where(through, t_cross, waveform.times[:-1])[hit | through].tolist()
    if v[-1] == 0.0 and rising is None:
        crossings.append(float(waveform.times[-1]))
    return crossings


class TestCrossingsInterpolateOnlyCrossingIntervals:
    """``crossings`` interpolates the kept intervals only; the list must
    be bitwise the full-interpolation one."""

    @pytest.mark.parametrize("rising", [None, True, False])
    def test_random_scans(self, rising):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 400))
            times = np.cumsum(rng.uniform(0.1, 2.0, n))
            values = np.cumsum(rng.normal(0.0, 1.0, n))
            waveform = Waveform(times, values)
            for level in (0.0, float(values[n // 2]), float(values.mean())):
                got = waveform.crossings(level, rising)
                assert got == _crossings_full(waveform, level, rising)
                assert all(type(t) is float for t in got)

    @pytest.mark.parametrize("rising", [None, True, False])
    def test_exact_hits_at_inner_and_last_samples(self, rising):
        times = np.linspace(0.0, 4.0, 9)
        for values in ([0, 1, 2, 1, 2, 3, 2, 1, 2], [3, 2, 1, 2, 3, 2, 1, 0, 2],
                       [0, 1, 2, 3, 2, 1, 0, 1, 2], [2, 2, 2, 2, 2, 2, 2, 2, 2]):
            waveform = Waveform(times, np.array(values, dtype=float))
            for level in (0.0, 1.0, 2.0, 3.0, 1.5):
                assert waveform.crossings(level, rising) == _crossings_full(
                    waveform, level, rising)
