"""What-if sweep amortisation: one factorization vs per-point re-analysis.

AWE's economy (Sec. 3.2) is one LU for all the moments; ``repro.sweep``
extends it across netlist deltas.  This benchmark asks the same 1000+
what-if questions of one 40-node RC tree two ways:

* **incremental** — one :class:`~repro.sweep.SweepEngine` (one base
  factorization, then first-order / Sherman–Morrison updates per point,
  exact re-stamp only where forced), and
* **per-point re-analysis** — :meth:`SweepEngine.direct_point` for every
  point: a fresh MNA stamp and factorization each time, the way a naive
  ECO loop would hammer ``/analyze``.

The acceptance claims:

* the incremental pass is at least 10x faster end to end (engine
  construction included),
* every exact-tier point (the deliberately fallback-forced near-open
  resistors) is **bit-identical** to its from-scratch reference,
* every incremental point stays within its tier's stated bound,
* building the engine and evaluating the plan performs exactly
  ``1 + exact`` LU factorizations (counted at scipy's ``lu_factor`` /
  ``splu``): the gradient's adjoint solves reuse the base LU.

Results land in ``BENCH_scaling.json`` under ``sweep_scaling``.
"""

import time

import scipy.linalg
import scipy.sparse.linalg

from _bench_utils import record_bench, report
from repro.analysis.sources import Step
from repro.circuit.elements import Capacitor, Resistor
from repro.papercircuits.generators import random_rc_tree
from repro.sweep import SweepEngine, SweepPlan, SweepPoint

NODES = 40
SEED = 11
POINTS = 1000
FORCED = 4  # near-open resistors that must demote to the exact tier
STIMULI = {"Vin": Step(0.0, 1.0)}

#: Alternating small (gradient-tier) and large (rank-1) perturbations.
_SMALL = (1.01, 1.02, 1.03, 0.98)
_LARGE = (0.5, 1.5, 2.0, 3.0)


def make_plan(circuit) -> SweepPlan:
    resistors = sorted(e.name for e in circuit if isinstance(e, Resistor))
    capacitors = sorted(e.name for e in circuit if isinstance(e, Capacitor))
    names = resistors + capacitors
    points = []
    for i in range(POINTS - FORCED):
        scales = _SMALL if (i // len(names)) % 2 == 0 else _LARGE
        points.append(SweepPoint(element=names[i % len(names)],
                                 scale=scales[i % len(scales)]))
    # Every tree resistor is a bridge: near-open drives the
    # Sherman-Morrison denominator degenerate, forcing the exact tier.
    points.extend(SweepPoint(element=resistors[i], scale=1e10,
                             label=f"force-open-{i}")
                  for i in range(FORCED))
    return SweepPlan(node=str(NODES), points=tuple(points))


def count_factorizations(monkeypatch) -> dict:
    """Count every dense or sparse LU factorization from here on."""
    calls = {"lu": 0}
    for module, name in ((scipy.linalg, "lu_factor"),
                         (scipy.sparse.linalg, "splu")):
        def counted(*args, _factor=getattr(module, name), **kwargs):
            calls["lu"] += 1
            return _factor(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def run_both(calls):
    circuit = random_rc_tree(NODES, seed=SEED)
    plan = make_plan(circuit)

    t0 = time.perf_counter()
    engine = SweepEngine(circuit, STIMULI)
    result = engine.evaluate(plan)
    incremental_s = time.perf_counter() - t0
    lu_total = calls["lu"]

    t0 = time.perf_counter()
    references = [engine.direct_point(point, plan.node)
                  for point in plan.points]
    direct_s = time.perf_counter() - t0
    return plan, result, references, incremental_s, direct_s, lu_total


def test_incremental_sweep_is_10x_faster_and_exact_points_bitwise(
        benchmark, monkeypatch):
    calls = count_factorizations(monkeypatch)
    plan, result, references, incremental_s, direct_s, lu_total = run_both(
        calls)
    speedup = direct_s / max(incremental_s, 1e-9)

    assert len(result.points) == POINTS
    assert result.stats["exact"] == FORCED
    assert result.stats["fallbacks"] == FORCED
    assert result.incremental_points == POINTS - FORCED
    assert lu_total == 1 + result.stats["exact"]

    bitwise = 0
    for got, want in zip(result.points, references):
        if got.mode == "exact":
            assert got.dc == want.dc
            assert got.m1 == want.m1
            assert got.elmore_delay == want.elmore_delay
            bitwise += 1
        else:
            bound = plan.error_bound if got.mode == "first_order" else 1e-9
            err = abs(got.elmore_delay - want.elmore_delay) / abs(want.elmore_delay)
            assert err <= bound, (got.label or got.element, got.mode, err)
    assert bitwise == FORCED

    # Steady-state number for the record: a warm engine re-evaluating
    # the full plan (the shape an ECO loop actually runs in).
    circuit = random_rc_tree(NODES, seed=SEED)
    engine = SweepEngine(circuit, STIMULI)
    engine.evaluate(plan)
    benchmark(lambda: engine.evaluate(plan))

    report(
        f"Incremental sweep — {POINTS} points on a {NODES}-node RC tree",
        [
            ("per-point re-analysis", f"{POINTS} stamp+factor", f"{direct_s:.3f} s"),
            ("incremental sweep", "1 factorization (+4 forced)", f"{incremental_s:.3f} s"),
            ("LU factorizations", f"1 + {FORCED}", str(lu_total)),
            ("speedup", ">= 10x", f"{speedup:.0f}x"),
            ("tier mix", "fo/r1/exact",
             f"{result.stats['first_order']}/{result.stats['rank1']}"
             f"/{result.stats['exact']}"),
            ("exact points", "bit-identical", "yes"),
        ],
    )
    record_bench(
        "sweep_scaling",
        {
            "circuit": f"random_rc_tree({NODES}, seed={SEED})",
            "node": plan.node,
            "points": POINTS,
            "incremental_s": incremental_s,
            "direct_s": direct_s,
            "speedup": speedup,
            "first_order": result.stats["first_order"],
            "rank1": result.stats["rank1"],
            "exact": result.stats["exact"],
            "fallbacks": result.stats["fallbacks"],
            "factorizations": result.stats["factorizations"],
            "lu_factorizations_total": lu_total,
            "exact_points_bitwise": bitwise == FORCED,
        },
    )
    assert speedup >= 10.0
