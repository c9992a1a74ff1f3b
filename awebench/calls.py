"""The program's public pipelines, called the way a user calls them.

``e2e_*`` functions take request bytes and return ``(json_bytes, counts)``
through the same public calls the daemon makes, untraced.  ``Layers``
runs the same work one layer at a time, timing each public call from
outside and reading the counters the program exposes
(:class:`~repro.instrumentation.SolverStats`, the sweep tier counts, and
the :class:`~repro.trace.Tracer` that ``build_timing_graph`` accepts).

Import this module only after :func:`common.import_repro`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from repro import (AweAnalyzer, AweJob, BatchEngine, BatchResult, Corner,
                   SweepEngine, SweepPlan, Tracer, analyze, build_report,
                   build_sta_report, build_timing_graph, parse_netlist,
                   reduce_circuit, report_top_k_critical_paths, run_sta)
from repro.errors import ReproError
from repro.report.sweep import build_sweep_report
from repro.sta import Design, StaRun
from repro.sta.engine import CornerAnalysis

#: SolverStats fields every pipeline reports as work counts.
SOLVER_COUNTS = ("lu_factorizations", "triangular_solves", "solve_columns",
                 "order_escalations")

#: Sweep tier counters (``SweepResult.stats``).
SWEEP_COUNTS = ("first_order", "rank1", "exact", "fallbacks",
                "factorizations")


class JobFailed(Exception):
    """A batch job came back as a failure record."""

    def __init__(self, result, document):
        super().__init__(result.error)
        self.error_type = result.error_type
        self.document = document


def dumps(document) -> bytes:
    return json.dumps(document).encode()


# ----------------------------------------------------------------------
# end to end, untraced: request bytes in, JSON bytes out
# ----------------------------------------------------------------------


def e2e_analyze(body: bytes):
    """``/analyze`` semantics in process: parse, batch engine, report."""
    request = json.loads(body)
    deck = parse_netlist(request["deck"])
    job = AweJob(deck.circuit, tuple(request["nodes"]), stimuli=deck.stimuli,
                 label=deck.title or "deck", order=request.get("order"),
                 error_target=request.get("error_target", 0.01),
                 reduce=bool(request.get("reduce", False)))
    engine = BatchEngine(workers=1)
    results = engine.run([job])
    stats = engine.stats()
    document = build_report(results, engine_stats=stats)
    counts = {f"mna.{name}": int(stats[name]) for name in SOLVER_COUNTS}
    if not results[0].ok:
        raise JobFailed(results[0], document)
    return dumps(document), counts, document


def e2e_sweep(body: bytes):
    """A what-if request on one or more taps of one deck: one
    :class:`SweepEngine`, one evaluated plan and report per tap."""
    request = json.loads(body)
    deck = parse_netlist(request["deck"])
    engine = SweepEngine(deck.circuit, deck.stimuli)
    plans = request.get("plans") or [request]
    documents = []
    counts = dict.fromkeys((f"sweep.{name}" for name in SWEEP_COUNTS), 0)
    for payload in plans:
        result = engine.evaluate(SweepPlan.from_payload(payload))
        for name in SWEEP_COUNTS:
            counts[f"sweep.{name}"] += int(result.stats[name])
        documents.append(build_sweep_report(result))
    stats = engine.system.stats.as_dict()
    counts.update({f"mna.{name}": int(stats[name]) for name in SOLVER_COUNTS})
    document = documents if "plans" in request else documents[0]
    return dumps(document), counts, document


def sta_inputs(request: dict):
    design = Design.from_dict(request["design"])
    corners = tuple(Corner.from_dict(c) for c in request["corners"])
    return design, corners, request.get("k", 5), request.get(
        "interconnect", "awe")


def e2e_sta(body: bytes):
    """``/sta`` semantics in process: ``run_sta`` then the report."""
    design, corners, k, interconnect = sta_inputs(json.loads(body))
    run = run_sta(design, k=k, corners=corners, interconnect=interconnect)
    document = build_sta_report(run)
    return dumps(document), {}, document


E2E = {"/analyze": e2e_analyze, "/sweep": e2e_sweep, "/sta": e2e_sta}


# ----------------------------------------------------------------------
# the traced run: one public call per layer, timed from outside
# ----------------------------------------------------------------------


def _delay_50(response):
    """``delay_50`` as the report builder takes it: an unstable fixed-order
    fit simply has no delay."""
    try:
        return response.delay_50()
    except (ReproError, ValueError):
        return None


def _top_counter_spans(record: dict):
    """Spans carrying counter deltas, skipping any nested inside another
    one (their deltas are already part of the enclosing span's)."""
    if record.get("counters"):
        yield record
        return
    for child in record.get("children", ()):
        yield from _top_counter_spans(child)


def _walk(record: dict):
    yield record
    for child in record.get("children", ()):
        yield from _walk(child)


class Layers:
    """Per-layer self times (seconds) and work counts of a traced pass."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self.wall = 0.0

    def timed(self, layer: str, call, *args, **kwargs):
        start = time.perf_counter()
        value = call(*args, **kwargs)
        self.seconds[layer] += time.perf_counter() - start
        return value

    # -- analyze ---------------------------------------------------------

    def analyze(self, body: bytes) -> bytes:
        start = time.perf_counter()
        request = json.loads(body)
        taps = tuple(request["nodes"])
        deck = self.timed("circuit.parse_s", parse_netlist, request["deck"])
        circuit = deck.circuit
        if request.get("reduce"):
            reduction = self.timed("reduce.s", reduce_circuit, circuit,
                                   keep=tuple(sorted(taps)))
            self.samples["reduce.dim_ratio"].append(
                reduction.reduced_node_count / reduction.original_node_count)
            circuit = reduction.circuit
        analyzer = self.timed("mna.stamp_s", AweAnalyzer, circuit,
                              deck.stimuli)
        self.samples["mna.dimension"].append(analyzer.system.dimension)
        self.timed("mna.factor_s", analyzer.system.lu)
        self.timed("core.moments_s", analyzer.subproblems)
        responses = {}
        for tap in taps:
            response = self.timed(
                "core.pade_s", analyzer.response, tap,
                order=request.get("order"),
                error_target=request.get("error_target", 0.01))
            self.timed("core.waveform_s", _delay_50, response)
            self.samples["core.order"].append(response.order)
            responses[tap] = response
        stats = analyzer.stats()
        for name in SOLVER_COUNTS:
            self.counts[f"mna.{name}"] += int(stats[name])
        result = BatchResult(index=0, label=deck.title or "deck",
                             responses=responses)
        body_out = self.timed("report.serialize_s", lambda: dumps(
            build_report([result], engine_stats=stats)))
        self.samples["report.bytes"].append(len(body_out))
        self.wall += time.perf_counter() - start
        return body_out

    # -- sweep -----------------------------------------------------------

    def sweep(self, body: bytes) -> bytes:
        start = time.perf_counter()
        request = json.loads(body)
        deck = self.timed("circuit.parse_s", parse_netlist, request["deck"])
        engine = self.timed("sweep.setup_s", SweepEngine, deck.circuit,
                            deck.stimuli)
        documents = []
        for payload in request.get("plans") or [request]:
            plan = SweepPlan.from_payload(payload)
            first = SweepPlan(plan.node, plan.points[:1], plan.mode,
                              plan.first_order_threshold, plan.error_bound)
            rest = SweepPlan(plan.node, plan.points[1:], plan.mode,
                             plan.first_order_threshold, plan.error_bound)
            results = [self.timed("sweep.tap_setup_s", engine.evaluate, first)]
            if rest.points:
                t0 = time.perf_counter()
                results.append(engine.evaluate(rest))
                elapsed = time.perf_counter() - t0
                self.seconds["sweep.points_s"] += elapsed
                self.counts["sweep.timed_points"] += len(rest.points)
            for result in results:
                for name in SWEEP_COUNTS:
                    self.counts[f"sweep.{name}"] += int(result.stats[name])
            documents.extend(self.timed(
                "report.serialize_s", build_sweep_report, result)
                for result in results)
        stats = engine.system.stats.as_dict()
        for name in SOLVER_COUNTS:
            self.counts[f"mna.{name}"] += int(stats[name])
        body_out = self.timed("report.serialize_s", dumps, documents)
        self.samples["report.bytes"].append(len(body_out))
        self.wall += time.perf_counter() - start
        return body_out

    # -- sta ---------------------------------------------------------------

    def sta(self, body: bytes) -> bytes:
        start = time.perf_counter()
        design, corners, k, interconnect = self.timed(
            "sta.parse_s", sta_inputs, json.loads(body))
        tracer = Tracer("sta", design=design.name)
        analyses = []
        for corner in corners:
            built = self.timed("sta.build_s", build_timing_graph, design,
                               corner=corner, interconnect=interconnect,
                               tracer=tracer)
            result = self.timed("sta.analyze_s", analyze, built.graph,
                                built.arrivals, built.required)
            paths = self.timed("sta.paths_s", lambda: tuple(
                report_top_k_critical_paths(built.graph, built.arrivals,
                                            built.required, k)))
            analyses.append(CornerAnalysis(corner=corner, built=built,
                                           result=result, paths=paths))
        run = StaRun(design=design, interconnect=interconnect, k=k,
                     corners=tuple(analyses))
        record = tracer.to_record()
        self._absorb_trace(record)
        body_out = self.timed("report.serialize_s", lambda: dumps(
            build_sta_report(run)))
        self.samples["report.bytes"].append(len(body_out))
        self.wall += time.perf_counter() - start
        return body_out

    def _absorb_trace(self, record: dict) -> None:
        for span in _walk(record):
            if span is record:
                continue
            children = span.get("children", ())
            own = span["duration_s"] - sum(c["duration_s"] for c in children)
            self.seconds[f"trace.{span['name']}_s"] += max(own, 0.0)
            for event in span.get("events", ()):
                data = event.get("data", {})
                if event["name"] == "backend_selected":
                    self.samples["mna.dimension"].append(data["dimension"])
                elif event["name"] == "order_accepted":
                    self.samples["core.order"].append(data["order"])
        for span in _top_counter_spans(record):
            for name in SOLVER_COUNTS:
                self.counts[f"mna.{name}"] += int(span["counters"].get(name, 0))


TRACED = {"/analyze": Layers.analyze, "/sweep": Layers.sweep,
          "/sta": Layers.sta}
