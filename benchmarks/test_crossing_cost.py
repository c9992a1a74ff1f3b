"""Extension benchmark — what one first crossing costs, and how exact it is.

A delay is a threshold crossing of the AWE model itself (paper Sec. 5.3,
Fig. 2).  :meth:`AweWaveform.first_crossings` brackets every level on
one 4000-sample scan of the model, then solves each crossing on the
closed-form model inside its bracket: Newton steps on the model's value
and slope, with bisection as the safeguard.  On random RC trees
(n ∈ {6, 12, 20, 40}, seeds 0–4) under a step and a 20 ps ramp, at the
10/50/90 % levels, this benchmark records:

* wall time per crossing, as a caller pays it: one ``first_crossings``
  call on the three levels, scan included, divided by three;
* scalar model evaluations per crossing (median and max);
* the relative error against a ``brentq`` root of the same model on the
  scan's bracket (median, p90, p99, max),

and asserts the 1e-10 accuracy floor.
"""

import time

import numpy as np
from scipy.optimize import brentq

from _bench_utils import record_bench, report
from repro import AweAnalyzer, Ramp, Step
from repro.core import model
from repro.papercircuits import random_rc_tree

SIZES, SEEDS, FRACTIONS = (6, 12, 20, 40), range(5), (0.1, 0.5, 0.9)
STIMULI = (Step(0.0, 1.0), Ramp(0.0, 1.0, rise_time=20e-12))
ERROR_FLOOR = 1e-10


def family():
    """The waveforms and levels: about five taps per tree."""
    for n in SIZES:
        for seed in SEEDS:
            circuit = random_rc_tree(n, seed=seed)
            for stimulus in STIMULI:
                analyzer = AweAnalyzer(circuit, {"Vin": stimulus})
                for node in range(1, n + 1, max(1, n // 5)):
                    waveform = analyzer.response(str(node)).waveform
                    v1 = waveform.final_value()
                    yield waveform, [(f * v1, None) for f in FRACTIONS]


def brentq_root(waveform, scan, level):
    """The first crossing's root on the scan bracket, or ``None`` for an
    exact hit on a sample."""
    crossing = scan.crossings(level)[0]
    i = int(np.searchsorted(scan.times, crossing, side="right")) - 1
    if scan.times[i] == crossing:
        return None
    return brentq(lambda t: float(waveform.evaluate(t)) - level,
                  scan.times[i], scan.times[i + 1], xtol=1e-15 * scan.t_stop)


def test_crossing_cost(benchmark, monkeypatch):
    cases = list(family())

    def all_crossings():
        return [waveform.first_crossings(levels) for waveform, levels in cases]

    benchmark.pedantic(all_crossings, rounds=1, iterations=1)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        all_crossings()
        best = min(best, time.perf_counter() - start)
    crossings = sum(len(levels) for _, levels in cases)

    calls = {"n": 0}
    evaluate = model._value_and_slope

    def counted(form, t):
        calls["n"] += 1
        return evaluate(form, t)

    monkeypatch.setattr(model, "_value_and_slope", counted)
    evaluations, errors = [], []
    for waveform, levels in cases:
        scan = waveform.to_waveform()
        for pair in levels:
            calls["n"] = 0
            (got,) = waveform.first_crossings([pair], scan)
            evaluations.append(calls["n"])
            root = brentq_root(waveform, scan, pair[0])
            errors.append(0.0 if root is None else abs(got - root) / root)
    evaluations, errors = np.array(evaluations), np.array(errors)

    figures = {
        "crossings": crossings,
        "per_crossing_s": best / crossings,
        "evaluations_median": float(np.median(evaluations)),
        "evaluations_max": int(evaluations.max()),
        "rel_error_median": float(np.median(errors)),
        "rel_error_p90": float(np.quantile(errors, 0.9)),
        "rel_error_p99": float(np.quantile(errors, 0.99)),
        "rel_error_max": float(errors.max()),
    }
    report("Extension — first-crossing cost on random RC trees", [
        ("crossings", "step + 20 ps ramp, 10/50/90 %", f"{crossings}"),
        ("wall time per crossing", "scan shared by 3 levels",
         f"{figures['per_crossing_s'] * 1e6:.1f} us"),
        ("model evaluations", "median / max",
         f"{figures['evaluations_median']:g} / {figures['evaluations_max']}"),
        ("error vs brentq", "median / p99 / max",
         f"{figures['rel_error_median']:.2g} / {figures['rel_error_p99']:.2g}"
         f" / {figures['rel_error_max']:.2g}"),
    ])
    record_bench("crossing_cost", figures)
    assert figures["rel_error_max"] <= ERROR_FLOOR
