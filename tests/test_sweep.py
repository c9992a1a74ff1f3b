"""The incremental what-if sweep engine (`repro.sweep`).

The contract under test: one factorization serves thousands of
perturbation points.  Exact-mode points must equal a from-scratch
evaluation **bit for bit** (they share the stamping/solve code path);
rank-1 (Sherman–Morrison) points to roundoff (<= the stated 1e-9
relative bound, observed ~1e-15); first-order points within the plan's
error bound.  Invalid updates must *demote* — never silently return
wrong numbers — and say so in the trace.
"""

import pytest
import scipy.linalg
import scipy.sparse.linalg

from repro.circuit.elements import Capacitor, Resistor
from repro.analysis.sources import Step
from repro.papercircuits.generators import random_rc_tree
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.sweep import (
    MODES,
    SweepEngine,
    SweepPlan,
    SweepPoint,
    sweep,
)
from repro.trace import Tracer, iter_events


STIM = {"Vin": Step(0.0, 1.0)}


def tree(nodes=12, seed=7):
    return random_rc_tree(nodes=nodes, seed=seed)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


class TestPlanValidation:
    def test_point_needs_exactly_one_of_value_and_scale(self):
        with pytest.raises(AnalysisError, match="exactly one"):
            SweepPoint(element="R1")
        with pytest.raises(AnalysisError, match="exactly one"):
            SweepPoint(element="R1", value=1.0, scale=2.0)
        SweepPoint(element="R1", value=1.0)  # fine
        SweepPoint(element="R1", scale=2.0)  # fine

    def test_plan_rejects_unknown_mode_and_empty_points(self):
        point = SweepPoint(element="R1", scale=1.1)
        with pytest.raises(AnalysisError, match="mode"):
            SweepPlan(node="1", points=(point,), mode="magic")
        with pytest.raises(AnalysisError, match="at least one"):
            SweepPlan(node="1", points=())
        assert "auto" in MODES

    def test_payload_roundtrip(self):
        plan = SweepPlan(
            node="3",
            points=(SweepPoint(element="R1", scale=1.2, label="a"),
                    SweepPoint(element="C2", value=1e-12)),
            mode="rank1",
            first_order_threshold=0.1,
            error_bound=1e-4,
        )
        assert SweepPlan.from_payload(plan.to_payload()) == plan

    def test_unknown_element_and_nonphysical_value_are_refused(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        with pytest.raises(AnalysisError, match="unknown element"):
            engine.evaluate(SweepPlan(
                node="3", points=(SweepPoint(element="R999", scale=1.1),)))
        with pytest.raises(AnalysisError, match="non-physical"):
            engine.evaluate(SweepPlan(
                node="3", points=(SweepPoint(element="R1", value=-1.0),)))


def mixed_points(circuit):
    """Small and large R and C changes plus a source retune."""
    resistors = [e.name for e in circuit if isinstance(e, Resistor)]
    capacitors = [e.name for e in circuit if isinstance(e, Capacitor)]
    pts = []
    for name in resistors[:4]:
        pts.append(SweepPoint(element=name, scale=1.02))   # small: gradient
        pts.append(SweepPoint(element=name, scale=2.5))    # large: rank-1
    for name in capacitors[:4]:
        pts.append(SweepPoint(element=name, scale=1.03))
        pts.append(SweepPoint(element=name, scale=0.4))
    pts.append(SweepPoint(element="Vin", value=0.9))
    return tuple(pts)


class TestTierAccuracy:
    """Every tier vs the from-scratch `direct_point` reference."""

    def test_auto_mix_tracks_direct_within_plan_bound(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        plan = SweepPlan(node="5", points=mixed_points(circuit))
        result = engine.evaluate(plan)
        assert result.stats["first_order"] > 0
        assert result.stats["rank1"] > 0
        assert result.stats["factorizations"] == 0
        assert result.incremental_points == len(plan.points)
        for point, got in zip(plan.points, result.points):
            want = engine.direct_point(point, "5")
            bound = plan.error_bound if got.mode == "first_order" else 1e-9
            assert rel_err(got.elmore_delay, want.elmore_delay) <= bound, point
            assert rel_err(got.dc, want.dc) <= bound, point

    def test_exact_mode_is_bitwise_equal_to_direct(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        plan = SweepPlan(node="5", points=mixed_points(circuit), mode="exact")
        result = engine.evaluate(plan)
        assert result.stats["exact"] == len(plan.points)
        assert result.stats["factorizations"] == len(plan.points)
        for point, got in zip(plan.points, result.points):
            want = engine.direct_point(point, "5")
            assert got.dc == want.dc                     # bitwise, not approx
            assert got.m1 == want.m1
            assert got.elmore_delay == want.elmore_delay

    def test_rank1_mode_stays_within_stated_roundoff_bound(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        plan = SweepPlan(node="5", points=mixed_points(circuit), mode="rank1")
        result = engine.evaluate(plan)
        assert result.stats["rank1"] == len(plan.points)
        assert result.stats["factorizations"] == 0
        for point, got in zip(plan.points, result.points):
            want = engine.direct_point(point, "5")
            assert rel_err(got.elmore_delay, want.elmore_delay) <= 1e-9
            assert rel_err(got.m1, want.m1) <= 1e-9

    def test_capacitor_first_order_is_exact(self):
        # Elmore delay is *linear* in each capacitance, so the gradient
        # tier is not an approximation for C points — estimate 0.0.
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        name = next(e.name for e in circuit if isinstance(e, Capacitor))
        plan = SweepPlan(node="5", mode="first_order",
                         points=(SweepPoint(element=name, scale=3.0),))
        got = engine.evaluate(plan).points[0]
        want = engine.direct_point(plan.points[0], "5")
        assert got.error_estimate == 0.0
        assert rel_err(got.elmore_delay, want.elmore_delay) <= 1e-9

    def test_source_retune_is_exact_in_any_mode(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        for mode in ("auto", "first_order", "rank1"):
            plan = SweepPlan(node="5", mode=mode,
                             points=(SweepPoint(element="Vin", value=0.75),))
            got = engine.evaluate(plan).points[0]
            want = engine.direct_point(plan.points[0], "5")
            assert got.mode == "rank1"
            assert rel_err(got.dc, want.dc) <= 1e-12
            assert rel_err(got.elmore_delay, want.elmore_delay) <= 1e-12

    def test_large_resistor_change_escalates_past_first_order(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        name = next(e.name for e in circuit if isinstance(e, Resistor))
        plan = SweepPlan(node="5",
                         points=(SweepPoint(element=name, scale=2.5),))
        got = engine.evaluate(plan).points[0]
        assert got.mode == "rank1"  # auto policy skipped the gradient tier


class TestChangeSets:
    """`restamp` evaluates several element and source changes at once,
    exactly as a fresh engine on the changed circuit would."""

    def test_restamp_matches_a_fresh_engine_on_the_variant(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        changes = {"R1": 2.0 * circuit["R1"].resistance,
                   "C3": 0.5 * circuit["C3"].capacitance}
        variant = engine.variant(changes, title="changed")
        assert variant.title == "changed"
        assert variant["R1"].resistance == changes["R1"]
        assert circuit["R1"].resistance != changes["R1"]  # base untouched
        fresh = SweepEngine(variant, {"Vin": Step(0.0, 0.8)}).base_point("5")
        got = engine.restamp({**changes, "Vin": 0.8}, "5")
        assert got == (fresh.dc, fresh.m1, fresh.elmore_delay)  # bitwise
        assert engine.extra_factorizations == 1

    def test_restamp_refuses_what_it_cannot_restamp(self):
        engine = SweepEngine(tree(), STIM)
        with pytest.raises(AnalysisError, match="cannot re-stamp"):
            engine.restamp({"R999": 1.0}, "5")
        with pytest.raises(AnalysisError, match="cannot re-stamp"):
            engine.variant({"Vin": 1.0})


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


class TestOneFactorization:
    """Forward and adjoint solves all reuse the engine's base LU; only
    exact-tier points factor again."""

    @pytest.mark.parametrize("nodes", [40, 200])  # dense, sparse backend
    def test_lu_count_is_one_plus_exact_points(self, nodes, monkeypatch):
        calls = count_factorizations(monkeypatch)
        circuit = tree(nodes=nodes)
        engine = SweepEngine(circuit, STIM)
        assert engine.system.use_sparse == (nodes == 200)
        # A near-open bridge resistor forces one exact point per tap.
        points = mixed_points(circuit) + (
            SweepPoint(element="R1", scale=1e10),)
        exact = 0
        for node in ("5", str(nodes)):  # two new taps
            result = engine.evaluate(SweepPlan(node=node, points=points))
            assert result.stats["first_order"] > 0
            exact += result.stats["exact"]
        assert exact == 2
        assert calls["lu"] == 1 + exact
        assert engine.system.stats.as_dict()["lu_factorizations"] == 1


class TestFallback:
    def test_degenerate_rank1_denominator_falls_back_to_exact(self):
        # Scaling a tree resistor by 1e10 drives the Sherman–Morrison
        # denominator to ~1e-10 — below the validity floor, yet the
        # perturbed system is still (barely) factorizable.  The point
        # must demote to exact, flag the fallback, and *still* match the
        # from-scratch reference bit for bit.
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        tracer = Tracer("sweep-test")
        traced = SweepEngine(circuit, STIM, tracer=tracer)
        point = SweepPoint(element="R1", scale=1e10)
        plan = SweepPlan(node="5", points=(point,))
        result = traced.evaluate(plan)
        got = result.points[0]
        assert got.mode == "exact"
        assert got.fallback is True
        assert result.stats == {"first_order": 0, "rank1": 0, "exact": 1,
                                "fallbacks": 1, "factorizations": 1}
        want = engine.direct_point(point, "5")
        assert got.dc == want.dc
        assert got.m1 == want.m1
        assert got.elmore_delay == want.elmore_delay
        events = {e["name"]: e["data"]
                  for _, e in iter_events(tracer.to_record())}
        assert events["sweep_fallback"]["to_mode"] == "exact"
        assert "singular" in events["sweep_fallback"]["reason"]
        assert events["sweep_point"]["fallback"] is True

    def test_first_order_estimate_above_bound_demotes_to_rank1(self):
        circuit = tree()
        tracer = Tracer("sweep-test")
        engine = SweepEngine(circuit, STIM, tracer=tracer)
        # A 4 % R change is small enough for the gradient tier's auto
        # window, but a tiny error bound forces its estimate over.
        plan = SweepPlan(node="5", error_bound=1e-12,
                         points=(SweepPoint(element="R1", scale=1.04),))
        result = engine.evaluate(plan)
        got = result.points[0]
        assert got.mode == "rank1"
        assert got.fallback is True
        fallbacks = [e["data"] for _, e in iter_events(tracer.to_record())
                     if e["name"] == "sweep_fallback"]
        assert fallbacks and fallbacks[0]["to_mode"] == "rank1"
        assert "exceeds" in fallbacks[0]["reason"]


class TestTrace:
    def test_every_point_emits_a_sweep_point_event(self):
        circuit = tree()
        tracer = Tracer("sweep-test")
        engine = SweepEngine(circuit, STIM, tracer=tracer)
        plan = SweepPlan(node="5", points=(
            SweepPoint(element="R1", scale=1.01, label="r-small"),
            SweepPoint(element="C2", scale=2.0, label="c-big"),
        ))
        engine.evaluate(plan)
        record = tracer.to_record()
        spans = [span for span, _ in iter_events(record)]
        assert any(s == "sweep" for s in spans)
        points = [e["data"] for _, e in iter_events(record)
                  if e["name"] == "sweep_point"]
        assert [p["label"] for p in points] == ["r-small", "c-big"]
        assert all(p["mode"] in MODES for p in points)


class TestEngineScope:
    def test_rejects_inductors(self):
        circuit = tree()
        from repro.circuit.elements import Inductor

        circuit.add(Inductor("L1", "1", "2", 1e-9))
        with pytest.raises(AnalysisError, match="R/C/V/I"):
            SweepEngine(circuit, STIM)

    def test_one_shot_wrapper(self):
        circuit = tree()
        plan = SweepPlan(node="5",
                         points=(SweepPoint(element="R1", scale=1.01),))
        result = sweep(circuit, STIM, plan)
        assert result.node == "5"
        assert len(result.points) == 1
        payload = result.to_payload()
        assert payload["stats"]["fallbacks"] == 0
        assert payload["base"]["mode"] == "base"

    def test_factorization_stats_reset_per_evaluate(self):
        circuit = tree()
        engine = SweepEngine(circuit, STIM)
        plan = SweepPlan(node="5", mode="exact",
                         points=(SweepPoint(element="R1", scale=1.5),))
        assert engine.evaluate(plan).stats["factorizations"] == 1
        assert engine.evaluate(plan).stats["factorizations"] == 1  # not 2
