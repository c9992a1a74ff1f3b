"""Threshold crossings: the vectorized sampled scan and the AWE model's own
first crossing (paper Sec. 5.3 and Fig. 2).

:meth:`Waveform.crossings` must give, list for list, what the original
per-sample loop (kept below as the reference) gave.
:meth:`AweWaveform.threshold_delay` must find the first crossing of the
closed-form model in the requested direction, however early in the
window it falls, and keep first-crossing semantics on the paper's
nonmonotone responses.  :meth:`AweWaveform.first_crossings` reads several
levels from one scan and must give each level's one-level answer, which
it solves on the closed-form model inside the scan's bracket: as exact as
``brentq``, in a few model evaluations, with the scan's bracket rules.
"""

import re

import numpy as np
import pytest
from scipy.optimize import brentq

from repro import PWL, AweAnalyzer, Circuit, DC, Ramp, Step
from repro.core import model
from repro.errors import AnalysisError
from repro.papercircuits import fig16_stiff_rc_tree, fig25_rlc_ladder, random_rc_tree
from repro.timing import DelayReport, Receiver, Stage, measure_delay
from repro.waveform import Waveform


def reference_crossings(waveform, level, rising=None):
    """The per-sample loop ``Waveform.crossings`` was before it became a
    numpy scan."""
    v = waveform.values - level
    crossings = []
    for i in range(len(v) - 1):
        a, b = v[i], v[i + 1]
        if a == 0.0:
            direction = b > 0
            if rising is None or rising == direction:
                crossings.append(float(waveform.times[i]))
        if (a < 0 < b) or (b < 0 < a):
            t_cross = waveform.times[i] + (waveform.times[i + 1] - waveform.times[i]) * (-a) / (b - a)
            direction = b > a
            if rising is None or rising == direction:
                crossings.append(float(t_cross))
    if v[-1] == 0.0 and (rising is None):
        crossings.append(float(waveform.times[-1]))
    return crossings


class TestSampledScan:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_loop_list_for_list(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        times = np.cumsum(rng.uniform(0.1, 2.0, n))
        # Few distinct levels: exact-on-sample hits and flat runs are common.
        values = rng.integers(-2, 3, n).astype(float)
        if seed % 4 == 0:
            values += rng.normal(0.0, 0.3, n)
        if seed % 3 == 0:
            values[-1] = 0.0
        waveform = Waveform(times, values)
        for level in (0.0, 0.5, 1.0, float(values[0])):
            for rising in (None, True, False):
                assert waveform.crossings(level, rising) == reference_crossings(
                    waveform, level, rising
                ), (level, rising)

    def test_smooth_waveform_matches_the_loop(self):
        t = np.linspace(0.0, 20e-9, 4000)
        waveform = Waveform(t, 5.0 - 5.0 * np.exp(-t / 1e-9) * np.cos(2e9 * t))
        for level in (2.5, 5.0, 6.0):
            for rising in (None, True, False):
                assert waveform.crossings(level, rising) == reference_crossings(
                    waveform, level, rising
                )


def step_response(circuit, node, stimuli=None, order=None):
    stimuli = {"Vin": Step(0.0, 1.0)} if stimuli is None else stimuli
    return AweAnalyzer(circuit, stimuli).response(node, order=order)


class TestModelCrossing:
    def test_early_crossing_is_not_read_off_a_coarse_grid(self):
        # The window follows the slowest pole (~89 ns) while node 6 crosses
        # 10 % after ~1.2 ps: a 4000-point grid read 6.06 ps here.
        response = step_response(random_rc_tree(40, seed=15), "6")
        level = 0.1 * response.waveform.final_value()
        delay = response.delay(level)
        assert delay == pytest.approx(1.174e-12, rel=1e-3)
        root = brentq(lambda t: float(response.waveform.evaluate(t)) - level,
                      0.0, 1e-11, xtol=1e-27)
        assert delay == pytest.approx(root, rel=1e-6)

    def test_delay_50_is_the_half_swing_crossing(self, single_rc):
        response = step_response(single_rc, "1")
        assert response.delay_50() == pytest.approx(1e-9 * np.log(2), rel=1e-9)

    def test_never_crossing_raises(self, single_rc):
        response = step_response(single_rc, "1")
        with pytest.raises(AnalysisError, match="never crosses"):
            response.delay(2.0)
        with pytest.raises(AnalysisError, match="never crosses"):
            response.waveform.threshold_delay(0.5, rising=False)


def _nonmonotone_cases():
    shared = fig16_stiff_rc_tree(sharing_voltage=5.0)
    rlc = fig25_rlc_ladder()
    ramp = Ramp(0.0, 5.0, rise_time=1e-9)
    return {
        "fig20_redistribution": (shared, {"Vin": DC(0.0)}, "7", 2,
                                 (0.2, 0.4, 0.8)),
        "fig21_ramp_with_ic": (shared, {"Vin": ramp}, "7", 2,
                               (0.5, 0.85, 2.5)),
        "fig26_rlc_step": (rlc, {"Vin": Step(0.0, 5.0)}, "3", 4,
                           (2.5, 5.0, 6.0, 0.0)),
        "fig27_rlc_ramp": (rlc, {"Vin": ramp}, "3", 2, (2.5, 5.0, 6.0)),
    }


@pytest.mark.parametrize("case", sorted(_nonmonotone_cases()))
def test_first_crossing_against_a_dense_grid(case):
    """Charge sharing (Figs. 20–21) and RLC ringing (Figs. 26–27) cross
    most levels more than once; each direction's first crossing must
    agree with a 10⁶-point grid of the same model to one grid step."""
    circuit, stimuli, node, order, levels = _nonmonotone_cases()[case]
    waveform = AweAnalyzer(circuit, stimuli).response(node, order=order).waveform
    window = waveform.suggested_window()
    times = np.linspace(0.0, window, 10**6)
    dense = Waveform(times, waveform.evaluate(times))
    step = times[1]
    several = 0
    for level in levels:
        for rising in (None, True, False):
            expected = dense.crossings(level, rising)
            several += len(expected) > 1
            if not expected:
                with pytest.raises(AnalysisError):
                    waveform.threshold_delay(level, rising)
                continue
            got = waveform.threshold_delay(level, rising)
            assert abs(got - expected[0]) <= step, (level, rising)
    assert several > 0


def _old_measure_delay(waveform, threshold=None, v_final=None):
    """``measure_delay`` as it was before the levels shared one scan: a
    4000-sample read for the levels, then one crossing call per level."""
    sampled = waveform.to_waveform(samples=4000)
    v0 = sampled.initial
    v1 = sampled.final if v_final is None else v_final

    def crossing(level):
        return waveform.threshold_delay(level, rising=v1 > v0)

    return DelayReport(
        node=waveform.name, v_initial=v0, v_final=v1,
        delay_50=crossing(0.5 * (v0 + v1)),
        threshold_delay=None if threshold is None else crossing(threshold),
        slew_10_90=crossing(v0 + 0.9 * (v1 - v0)) - crossing(v0 + 0.1 * (v1 - v0)),
        monotone=sampled.is_monotone(tolerance=1e-6),
        overshoot=sampled.overshoot(),
    )


class TestOneScan:
    """Every level read from one scan equals its one-level call, bitwise."""

    @pytest.mark.parametrize("case", sorted(_nonmonotone_cases()))
    def test_multi_level_equals_one_level_calls(self, case):
        circuit, stimuli, node, order, levels = _nonmonotone_cases()[case]
        waveform = AweAnalyzer(circuit, stimuli).response(node, order=order).waveform
        directions = [None, True, False]
        pairs = [(level, rising) for level in levels for rising in directions]
        crossings = waveform.first_crossings(pairs)
        for (level, rising), crossing in zip(pairs, crossings):
            try:
                expected = waveform.threshold_delay(level, rising)
            except AnalysisError:
                assert crossing is None, (level, rising)
                continue
            assert crossing == expected, (level, rising)

    def test_early_crossing_from_a_shared_scan(self):
        waveform = step_response(random_rc_tree(40, seed=15), "6").waveform
        v1 = waveform.final_value()
        levels = [(0.1 * v1, True), (0.5 * v1, None), (0.9 * v1, True)]
        assert waveform.first_crossings(levels) == [
            waveform.threshold_delay(level, rising) for level, rising in levels]

    def test_default_grid_is_the_scan_grid(self, single_rc):
        waveform = step_response(single_rc, "1").waveform
        sampled = waveform.to_waveform()
        expected = np.linspace(0.0, waveform.suggested_window(), 4000)
        assert sampled.times.tobytes() == expected.tobytes()
        levels = [(0.25, True), (0.5, None), (0.75, False)]
        assert waveform.first_crossings(levels, scan=sampled) == \
            waveform.first_crossings(levels)

    @pytest.mark.parametrize("case", sorted(_nonmonotone_cases()))
    def test_measure_delay_is_unchanged(self, case):
        circuit, stimuli, node, order, levels = _nonmonotone_cases()[case]
        waveform = AweAnalyzer(circuit, stimuli).response(node, order=order).waveform
        for threshold in (None, *levels):
            try:
                expected = _old_measure_delay(waveform, threshold)
            except AnalysisError as exc:
                with pytest.raises(AnalysisError, match=re.escape(str(exc))):
                    measure_delay(waveform, threshold)
                continue
            assert measure_delay(waveform, threshold) == expected

    def test_stage_evaluate_is_unchanged(self):
        def net(ckt):
            ckt.add_resistor("Rw1", "drv", "a", 300.0)
            ckt.add_capacitor("Cw1", "a", "0", 40e-15)
            ckt.add_resistor("Rw2", "a", "s1", 200.0)
            ckt.add_resistor("Rw3", "a", "s2", 500.0)

        stage = Stage("g", 1e3, net, [Receiver("s1", 30e-15),
                                      Receiver("s2", 20e-15, 0.7)])
        for slew in (0.0, 80e-12):
            result = stage.evaluate(input_event_time=1e-10, input_slew=slew)
            for receiver in stage.sinks:
                waveform = result.responses[receiver.node].waveform
                threshold = 5.0 * receiver.threshold_fraction
                assert result.reports[receiver.node] == _old_measure_delay(
                    waveform, threshold, waveform.final_value())


def _rc_tree_crossings():
    """``(waveform, scan, level)`` on a few random RC trees: about five
    taps each, a step and a 20 ps ramp, 10/50/90 % of the final value."""
    for n, seed in ((6, 0), (12, 1), (20, 2), (40, 3)):
        circuit = random_rc_tree(n, seed=seed)
        for stimulus in (Step(0.0, 1.0), Ramp(0.0, 1.0, rise_time=20e-12)):
            analyzer = AweAnalyzer(circuit, {"Vin": stimulus})
            for node in range(1, n + 1, max(1, n // 5)):
                waveform = analyzer.response(str(node)).waveform
                scan = waveform.to_waveform()
                for fraction in (0.1, 0.5, 0.9):
                    yield waveform, scan, fraction * waveform.final_value()


class TestClosedFormPolish:
    """The bracketed crossing is solved on the closed-form model: Newton
    steps on its value and slope, with bisection as the safeguard."""

    def test_agrees_with_brentq_on_the_scan_bracket(self):
        worst, checked = 0.0, 0
        for waveform, scan, level in _rc_tree_crossings():
            (got,) = waveform.first_crossings([(level, None)], scan)
            crossing = scan.crossings(level)[0]
            i = int(np.searchsorted(scan.times, crossing, side="right")) - 1
            if scan.times[i] == crossing:
                assert got == crossing
                continue
            root = brentq(lambda t: float(waveform.evaluate(t)) - level,
                          scan.times[i], scan.times[i + 1],
                          xtol=1e-15 * scan.t_stop)
            worst = max(worst, abs(got - root) / root)
            checked += 1
        assert checked > 100
        assert worst <= 1e-10

    def test_a_few_model_evaluations_per_crossing(self, monkeypatch):
        calls = {"n": 0}
        evaluate = model._value_and_slope

        def counted(form, t):
            calls["n"] += 1
            return evaluate(form, t)

        monkeypatch.setattr(model, "_value_and_slope", counted)
        counts = []
        for waveform, scan, level in _rc_tree_crossings():
            calls["n"] = 0
            waveform.first_crossings([(level, None)], scan)
            counts.append(calls["n"])
        # Measured here: 2 for nearly every crossing, at most 3.  The two
        # 257-sample zooms this replaced sampled every model 514 times.
        assert np.median(counts) <= 2
        assert max(counts) <= 4

    def test_a_jump_inside_one_scan_interval(self):
        # "out" has no capacitor: it follows the PWL's ramp at a third to a
        # half of the input, the divider passes a third of the ideal step
        # at t_step (0.1-0.15 V to 0.33-0.38 V), and "out" settles at 0.5.
        # On both sides of the jump a Newton step overshoots the bracket.
        circuit = Circuit("resistive divider")
        circuit.add_voltage_source("Vin", "in", "0")
        circuit.add_resistor("R1", "in", "out", 1e3)
        circuit.add_resistor("R2", "out", "0", 1e3)
        circuit.add_resistor("R3", "out", "n", 1e3)
        circuit.add_capacitor("C1", "n", "0", 1e-12)
        t_step = 1.234e-9
        stimulus = PWL([(0.0, 0.0), (t_step, 0.3), (t_step, 1.0)])
        waveform = AweAnalyzer(circuit, {"Vin": stimulus}).response("out").waveform
        scan = waveform.to_waveform()
        i = int(np.searchsorted(scan.times, t_step)) - 1
        assert scan.times[i] < t_step < scan.times[i + 1]
        assert scan.values[i] < 0.25 < scan.values[i + 1]
        for rising in (True, None):
            (got,) = waveform.first_crossings([(0.25, rising)], scan)
            assert abs(got - t_step) <= model._CROSSING_TOLERANCE * scan.t_stop

    def test_an_exact_hit_returns_the_sample_time(self, single_rc):
        waveform = step_response(single_rc, "1").waveform
        scan = waveform.to_waveform()
        level = float(scan.values[100])
        assert scan.values[99] < level < scan.values[101]
        assert waveform.first_crossings([(level, True), (level, None)], scan) == \
            [scan.times[100]] * 2
