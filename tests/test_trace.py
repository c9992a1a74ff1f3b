"""Unit and integration tests for the ``repro.trace`` layer."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro import AweAnalyzer, AweJob, BatchEngine, Step
from repro.instrumentation import SolverStats
from repro.papercircuits import fig4_rc_tree, fig22_floating_cap
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    TraceSpan,
    Tracer,
    iter_events,
    phase_seconds,
)


class TestTracer:
    def test_nesting_and_record_shape(self):
        tracer = Tracer("root", purpose="test")
        with tracer.span("a"):
            with tracer.span("b", depth=2):
                pass
            with tracer.span("c"):
                pass
        record = tracer.to_record()
        assert record["name"] == "root"
        assert record["meta"] == {"purpose": "test"}
        (a,) = record["children"]
        assert [child["name"] for child in a["children"]] == ["b", "c"]
        assert a["children"][0]["meta"] == {"depth": 2}

    def test_durations_are_monotone(self):
        tracer = Tracer("root")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        record = tracer.to_record()
        outer = record["children"][0]
        inner = outer["children"][0]
        assert 0.0 <= inner["duration_s"] <= outer["duration_s"]
        assert outer["duration_s"] <= record["duration_s"]
        assert inner["t_start_s"] >= outer["t_start_s"]

    def test_counter_deltas(self):
        stats = SolverStats()
        stats.add("triangular_solves", 3)
        tracer = Tracer("root")
        with tracer.span("work", stats=stats):
            stats.add("triangular_solves", 2)
            stats.add("solve_columns", 8)
        record = tracer.to_record()
        counters = record["children"][0]["counters"]
        # Deltas, not totals — and untouched fields are omitted.
        assert counters == {"triangular_solves": 2, "solve_columns": 8}

    def test_events_attach_to_innermost_open_span(self):
        tracer = Tracer("root")
        tracer.event("at_root", n=0)
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("deep", n=1)
            tracer.event("shallow", n=2)
        record = tracer.to_record()
        flattened = [(span, e["name"]) for span, e in iter_events(record)]
        assert flattened == [("root", "at_root"), ("outer", "shallow"),
                             ("inner", "deep")]

    def test_exception_marks_span_and_unwinds_stack(self):
        tracer = Tracer("root")
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        with tracer.span("after"):
            pass
        record = tracer.to_record()
        doomed, after = record["children"]
        assert doomed["meta"] == {"error": "RuntimeError"}
        assert after["name"] == "after"  # nested under root, not under doomed

    def test_span_meta_mutable_inside_block(self):
        tracer = Tracer("root")
        with tracer.span("phase") as span:
            span.meta["orders"] = 5
        assert tracer.to_record()["children"][0]["meta"] == {"orders": 5}

    def test_payload_coercion(self):
        tracer = Tracer("root")
        tracer.event(
            "mixed",
            np_int=np.int64(4),
            np_float=np.float64(0.5),
            cplx=complex(1.0, -2.0),
            seq=(np.float32(1.0), 2),
            obj=object(),
        )
        record = tracer.to_record()
        data = record["events"][0]["data"]
        assert data["np_int"] == 4 and isinstance(data["np_int"], int)
        assert data["np_float"] == 0.5 and isinstance(data["np_float"], float)
        assert data["cplx"] == {"re": 1.0, "im": -2.0}
        assert data["seq"] == [1.0, 2]
        assert isinstance(data["obj"], str)
        json.dumps(record)  # everything JSON-safe

    def test_round_trip(self):
        tracer = Tracer("root", kind="round-trip")
        with tracer.span("a", stats=None, node="x"):
            tracer.event("e", value=1)
        record = tracer.to_record()
        rebuilt = TraceSpan.from_record(record)
        assert rebuilt.to_record() == record
        assert [s.name for s in rebuilt.walk()] == ["root", "a"]
        assert isinstance(rebuilt.children[0].events[0], TraceEvent)

    def test_record_is_picklable(self):
        tracer = Tracer("root")
        with tracer.span("a"):
            tracer.event("e", v=np.float64(1.5))
        record = tracer.to_record()
        assert pickle.loads(pickle.dumps(record)) == record


class TestNullTracer:
    def test_is_shared_and_inert(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False
        ctx_a = NULL_TRACER.span("a", stats=SolverStats(), meta=1)
        ctx_b = NULL_TRACER.span("b")
        assert ctx_a is ctx_b  # one preallocated context, no allocation
        with ctx_a as span:
            assert span is None
        assert NULL_TRACER.event("anything", x=1) is None
        assert NULL_TRACER.to_record() is None

    def test_helpers_tolerate_untraced_runs(self):
        assert phase_seconds(None) == {}
        assert list(iter_events(None)) == []


class TestPhaseSeconds:
    def _record(self):
        return {
            "name": "root", "duration_s": 10.0,
            "children": [
                {"name": "a", "duration_s": 6.0,
                 "children": [{"name": "b", "duration_s": 2.0}]},
                {"name": "b", "duration_s": 3.0},
            ],
        }

    def test_exclusive_self_time(self):
        phases = phase_seconds(self._record())
        assert phases == {"root": 1.0, "a": 4.0, "b": 5.0}
        assert sum(phases.values()) == pytest.approx(10.0)

    def test_inclusive(self):
        phases = phase_seconds(self._record(), exclusive=False)
        assert phases == {"root": 10.0, "a": 6.0, "b": 5.0}


class TestAnalyzerIntegration:
    def test_traced_analysis_has_expected_phases_and_events(self):
        tracer = Tracer("fig22")
        # leak_resistance=None keeps the C11/C12 group truly floating, so
        # the trapped-charge resolution path (and its event) must run.
        analyzer = AweAnalyzer(fig22_floating_cap(leak_resistance=None),
                               {"Vin": Step(0.0, 5.0)}, tracer=tracer)
        analyzer.response("7", error_target=0.01)
        record = tracer.to_record()
        phases = phase_seconds(record)
        for name in ("mna_assembly", "lu", "operating_points",
                     "moment_recursion", "response", "pade_escalation",
                     "pade", "residues", "waveform"):
            assert name in phases, name
        events = {e["name"] for _, e in iter_events(record)}
        assert "backend_selected" in events
        assert "trapped_charge_resolved" in events  # the floating C11/C12 group
        assert "order_accepted" in events

    def test_escalation_events_carry_error_estimates(self):
        tracer = Tracer("fig22")
        analyzer = AweAnalyzer(fig22_floating_cap(), {"Vin": Step(0.0, 5.0)},
                               tracer=tracer)
        analyzer.response("12", error_target=0.001)
        escalations = [e for _, e in iter_events(tracer.to_record())
                       if e["name"] == "order_escalation"]
        assert escalations
        for event in escalations:
            data = event["data"]
            assert set(data) >= {"subproblem", "node", "order", "reason",
                                 "error_estimate", "target"}
            assert data["node"] == "12"
        # At least one rejection must be a verified estimate-above-target.
        assert any(e["data"]["error_estimate"] is not None
                   for e in escalations)

    def test_use_tracer_swaps_mid_life(self):
        analyzer = AweAnalyzer(fig4_rc_tree(), {"Vin": Step(0.0, 5.0)})
        assert analyzer.tracer is NULL_TRACER
        analyzer.response("4", order=2)  # untraced warm-up, shared work done
        tracer = Tracer("second-job")
        analyzer.use_tracer(tracer)
        assert analyzer.system.tracer is tracer
        analyzer.response("2", order=2)
        record = tracer.to_record()
        phases = phase_seconds(record)
        # Only per-response work: the shared spans landed pre-swap (nowhere).
        assert "response" in phases and "mna_assembly" not in phases
        analyzer.use_tracer(None)
        assert analyzer.tracer is NULL_TRACER

    def test_identical_results_with_and_without_tracing(self):
        plain = AweAnalyzer(fig22_floating_cap(), {"Vin": Step(0.0, 5.0)})
        traced = AweAnalyzer(fig22_floating_cap(), {"Vin": Step(0.0, 5.0)},
                             tracer=Tracer("check"))
        a = plain.response("7", error_target=0.01)
        b = traced.response("7", error_target=0.01)
        assert a.order == b.order
        assert a.error_estimate == b.error_estimate
        np.testing.assert_array_equal(a.poles, b.poles)


class TestBatchTraces:
    def _jobs(self, n=4):
        return [
            AweJob(fig22_floating_cap(), ("7",), stimuli={"Vin": Step(0.0, 5.0)},
                   error_target=0.01, label=f"job-{i}")
            for i in range(n)
        ]

    def test_traces_off_by_default(self):
        results = BatchEngine().run(self._jobs(2))
        assert all(result.trace is None for result in results)

    def test_inline_traces(self):
        results = BatchEngine().run(self._jobs(3), trace=True)
        assert all(result.ok and result.trace is not None for result in results)
        # Reused analyzer: the first job of the circuit group carries the
        # shared spans, later jobs only their own response work.
        first, *rest = results
        assert "mna_assembly" in phase_seconds(first.trace)
        for result in rest:
            assert "response" in phase_seconds(result.trace)
        json.dumps([result.trace for result in results])

    def test_failed_job_still_traced(self):
        jobs = self._jobs(1) + [
            AweJob(fig22_floating_cap(), ("no_such_node",),
                   stimuli={"Vin": Step(0.0, 5.0)}, label="bad")
        ]
        results = BatchEngine().run(jobs, trace=True)
        assert results[0].ok and not results[1].ok
        assert results[1].trace is not None
        # The engine stamps a job_failed event so the trace explains the
        # death even when the exception fired outside any span.
        failures = [e for _, e in iter_events(results[1].trace)
                    if e["name"] == "job_failed"]
        assert failures and failures[0]["data"]["error_type"] == "CircuitError"
