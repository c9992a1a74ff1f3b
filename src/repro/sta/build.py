"""Design + library -> frozen timing DAG, with AWE-driven net delays.

This is where the STA layer meets the paper: every net becomes a small
driver + RC-wire circuit (exactly the Fig. 1 stage model in
:mod:`repro.timing.stage`) and its pin-to-pin interconnect delays come
from AWE waveforms.  The driver's own charging time is *excluded* — the
net delay is ``t50(sink) - t50(driver output)`` so the resistive part of
the gate's response stays in the cell table where the library put it,
and the net edge carries pure interconnect delay (with full resistive
shielding, which a lumped-C model would miss).

Two interconnect modes:

``"awe"``
    Per-sink delay and output slew measured on the AWE waveform.

``"elmore"``
    First-moment only: delay ``ln 2 * T_elmore``, slew degradation
    ``sqrt(slew_in^2 + (ln 9 * T_elmore)^2)``.  Fast, pessimism-free of
    AWE cost — the baseline the paper improves on.

In both modes the load each driver sees is the net's total
capacitance, scaled wire plus pins.  For these RC nets that is the
driving-point admittance moment y₁, which is also the total capacitance
of the O'Brien - Savarino pi-model fitted there, so no pi-model is
fitted.

A :class:`Corner` scales wire parasitics (``wire_r``, ``wire_c``) and
derates the cells (``cell`` multiplies delay/slew tables and drive
resistance), giving per-corner frozen graphs from one design.
"""

from __future__ import annotations

import dataclasses
import math

from repro.analysis.sources import Ramp, Step
from repro.circuit.netlist import Circuit
from repro.core.driver import AweAnalyzer
from repro.errors import AnalysisError, ReproError, StaError
from repro.rctree.elmore import elmore_delays
from repro.sta.design import ROOT, Design, Net, PortIn
from repro.sta.graph import TimingGraph
from repro.sta.library import CellLibrary, default_library
from repro.trace import NULL_TRACER

_LN2 = math.log(2.0)
_LN9 = math.log(9.0)

#: Recognised interconnect evaluation modes.
INTERCONNECT_MODES = ("awe", "elmore")


@dataclasses.dataclass(frozen=True)
class Corner:
    """One analysis corner: wire scaling + cell derating factors."""

    name: str = "nominal"
    wire_r: float = 1.0
    wire_c: float = 1.0
    cell: float = 1.0

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise StaError("corner needs a non-empty name")
        for field in ("wire_r", "wire_c", "cell"):
            value = getattr(self, field)
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise StaError(
                    f"corner {self.name!r} {field} must be a number, "
                    f"got {value!r}") from None
            if not math.isfinite(value) or value <= 0.0:
                raise StaError(
                    f"corner {self.name!r} {field} must be finite and > 0, "
                    f"got {value!r}")
            object.__setattr__(self, field, value)

    def to_dict(self) -> dict:
        return {"name": self.name, "wire_r": self.wire_r,
                "wire_c": self.wire_c, "cell": self.cell}

    @classmethod
    def from_dict(cls, payload: dict) -> "Corner":
        if not isinstance(payload, dict):
            raise StaError(f"corner must be an object, got {payload!r}")
        unknown = set(payload) - {"name", "wire_r", "wire_c", "cell"}
        if unknown:
            raise StaError(
                f"corner has unknown fields: {', '.join(sorted(unknown))}")
        return cls(name=payload.get("name", "nominal"),
                   wire_r=payload.get("wire_r", 1.0),
                   wire_c=payload.get("wire_c", 1.0),
                   cell=payload.get("cell", 1.0))


#: The default (unscaled) corner.
NOMINAL = Corner()


@dataclasses.dataclass(frozen=True)
class BuiltTiming:
    """A frozen per-corner timing problem, ready for :func:`analyze`."""

    design_name: str
    corner: Corner
    interconnect: str
    graph: TimingGraph
    arrivals: dict[str, float]
    required: dict[str, float]
    slews: dict[str, float]
    loads: dict[str, float]


@dataclasses.dataclass(frozen=True)
class _Sink:
    node: str        # timing-graph node (``inst.pin`` or output port)
    tap: str         # wire node where it connects
    capacitance: float


class _NetEval:
    """Per-sink interconnect timing of one evaluated net."""

    __slots__ = ("delays", "slews")

    def __init__(self):
        self.delays: dict[str, float] = {}
        self.slews: dict[str, float] = {}


def _net_load(net: Net, corner: Corner, sinks: list) -> float:
    """The load the net's driver sees: scaled wire plus pin capacitance
    (y₁ of the driving-point admittance; just the pins on an ideal wire)."""
    load = sum(seg.capacitance * corner.wire_c for seg in net.segments)
    return load + sum(sink.capacitance for sink in sinks)


def _wire_circuit(net: Net, corner: Corner, drive_resistance: float,
                  sinks: list) -> Circuit:
    """Driver + scaled wire + sink loads as one linear circuit.

    With a zero drive resistance the source sits directly on the
    driver node; otherwise the stage's ``in -> Rdrv -> drv`` ladder is
    used, mirroring :class:`repro.timing.stage.Stage`.
    """
    ckt = Circuit(f"net {net.name}")
    if drive_resistance > 0.0:
        ckt.add_voltage_source("Vdrv", "in", "0")
        ckt.add_resistor("Rdrv", "in", "drv", drive_resistance)
    else:
        ckt.add_voltage_source("Vdrv", "drv", "0")
    for i, seg in enumerate(net.segments):
        a = "drv" if seg.a == ROOT else seg.a
        b = "drv" if seg.b == ROOT else seg.b
        ckt.add_resistor(f"Rw{i}", a, b, seg.resistance * corner.wire_r)
        cap = seg.capacitance * corner.wire_c
        if cap > 0.0:
            ckt.add_capacitor(f"Cw{i}", b, "0", cap)
    for sink in sinks:
        tap = "drv" if sink.tap == ROOT else sink.tap
        if not ckt.has_node(tap):
            raise StaError(
                f"net {net.name!r} wire never reaches sink tap {sink.tap!r}")
        if sink.capacitance > 0.0:
            ckt.add_capacitor(f"Cs_{sink.node}", tap, "0", sink.capacitance)
    return ckt


def _evaluate_net_awe(net: Net, corner: Corner, drive_resistance: float,
                      input_slew: float, sinks: list, tracer) -> _NetEval:
    circuit = _wire_circuit(net, corner, drive_resistance, sinks)
    stimulus = (Step(0.0, 1.0) if input_slew <= 0.0
                else Ramp(0.0, 1.0, rise_time=input_slew))
    try:
        analyzer = AweAnalyzer(circuit, {"Vdrv": stimulus}, tracer=tracer)
        if drive_resistance > 0.0:
            response = analyzer.response("drv")
            with tracer.span("crossings", node="drv", levels=1):
                t50_drv = response.delay_50()
        else:
            # Source node: the ramp itself crosses 50 % at slew/2.
            t50_drv = 0.5 * input_slew if input_slew > 0.0 else 0.0
        result = _NetEval()
        for sink in sinks:
            tap = "drv" if sink.tap == ROOT else sink.tap
            waveform = analyzer.response(tap).waveform
            v1 = waveform.final_value()
            v0 = float(waveform.evaluate(0.0))
            with tracer.span("crossings", node=sink.node, levels=3):
                crossings = waveform.first_crossings(
                    [(0.5 * (v0 + v1), v1 > v0), (0.1 * v1, None), (0.9 * v1, None)])
            if None in crossings:
                raise AnalysisError(
                    f"sink {sink.node!r} never crosses its 10/50/90 % levels")
            t50, t10, t90 = crossings
            result.delays[sink.node] = max(0.0, t50 - t50_drv)
            result.slews[sink.node] = max(0.0, t90 - t10)
        return result
    except ReproError as exc:
        raise StaError(
            f"AWE evaluation of net {net.name!r} failed: {exc}") from exc


def _evaluate_net_elmore(net: Net, corner: Corner, drive_resistance: float,
                         input_slew: float, sinks: list) -> _NetEval:
    circuit = _wire_circuit(net, corner, drive_resistance, sinks)
    try:
        delays = elmore_delays(circuit)
    except ReproError as exc:
        raise StaError(
            f"Elmore evaluation of net {net.name!r} failed (the wire must "
            f"be an RC tree; use interconnect='awe' otherwise): {exc}"
        ) from exc
    result = _NetEval()
    t_drv = delays.get("drv", 0.0)
    for sink in sinks:
        tap = "drv" if sink.tap == ROOT else sink.tap
        t_wire = max(0.0, delays[tap] - t_drv)
        result.delays[sink.node] = _LN2 * t_wire
        result.slews[sink.node] = math.hypot(input_slew, _LN9 * t_wire)
    return result


def _evaluate_net(net: Net, corner: Corner, drive_resistance: float,
                  input_slew: float, sinks: list, interconnect: str,
                  tracer) -> _NetEval:
    if not net.segments:
        # Ideal wire: zero interconnect delay, the slew passes through.
        result = _NetEval()
        for sink in sinks:
            result.delays[sink.node] = 0.0
            result.slews[sink.node] = input_slew
        return result
    if interconnect == "awe":
        return _evaluate_net_awe(net, corner, drive_resistance, input_slew,
                                 sinks, tracer)
    return _evaluate_net_elmore(net, corner, drive_resistance, input_slew,
                                sinks)


def build_timing_graph(
    design: Design,
    library: CellLibrary | None = None,
    corner: Corner = NOMINAL,
    interconnect: str = "awe",
    tracer=None,
) -> BuiltTiming:
    """Freeze ``design`` into a delay-annotated timing DAG at ``corner``.

    One forward pass over the structural topological order computes, at
    every node, the worst arrival and the slew of the edge that set it;
    each net is AWE-evaluated exactly once, when its driver's slew is
    known.  The returned :class:`BuiltTiming` carries the frozen graph
    plus the arrival/required boundary conditions for
    :func:`repro.sta.graph.analyze`.
    """
    if interconnect not in INTERCONNECT_MODES:
        raise StaError(
            f"unknown interconnect mode {interconnect!r}; "
            f"expected one of {', '.join(INTERCONNECT_MODES)}")
    if not isinstance(corner, Corner):
        raise StaError(f"corner must be a Corner, got {corner!r}")
    library = default_library() if library is None else library
    tracer = NULL_TRACER if tracer is None else tracer
    design.validate(library)

    structural = design.structural_graph(library)
    order = structural.topological_order()

    # Index the netlist around the structural node names.
    port_in: dict[str, PortIn] = {p.name: p for p in design.inputs}
    required = {p.name: float(p.required) for p in design.outputs}
    arrivals = {p.name: float(p.arrival) for p in design.inputs}
    instance_of: dict[str, tuple] = {}
    for inst in design.instances:
        cell = library[inst.cell]
        for pin in cell.input_pins:
            instance_of[inst.pin_node(pin)] = (inst, cell, pin, "in")
        for pin in cell.output_pins:
            instance_of[inst.pin_node(pin)] = (inst, cell, pin, "out")

    net_sinks: dict[str, list] = {net.name: [] for net in design.nets}
    for port in design.outputs:
        net = design.net(port.net)
        tap = port.name if net.segments else ROOT
        net_sinks[port.net].append(_Sink(port.name, tap, float(port.load)))
    for inst in design.instances:
        cell = library[inst.cell]
        for pin in cell.input_pins:
            node = inst.pin_node(pin)
            net = design.net(inst.connections[pin])
            tap = node if net.segments else ROOT
            net_sinks[inst.connections[pin]].append(
                _Sink(node, tap, float(cell.input_capacitance[pin])))

    net_load = {net.name: _net_load(net, corner, net_sinks[net.name])
                for net in design.nets}

    graph = TimingGraph(name=f"{design.name} @ {corner.name}")
    for node in order:
        graph.add_node(node)

    arrival_at: dict[str, float] = {}
    slew_at: dict[str, float] = {}
    loads: dict[str, float] = {}

    def incoming_worst(node: str) -> tuple[float, float]:
        """(arrival, slew) carried by the worst in-edge of ``node``."""
        best_arrival = arrivals.get(node, -math.inf)
        best_slew = slew_at.get(node, 0.0)
        found = best_arrival > -math.inf
        for edge in graph.in_edges(node):
            candidate = arrival_at[edge.src] + edge.delay
            if not found or candidate > best_arrival:
                best_arrival = candidate
                best_slew = edge_slew[(edge.src, edge.dst)]
                found = True
        return best_arrival, best_slew

    edge_slew: dict[tuple, float] = {}

    def freeze_net(net_name: str, driver_node: str, drive_resistance: float,
                   input_slew: float) -> None:
        net = design.net(net_name)
        sinks = net_sinks[net_name]
        evaluation = _evaluate_net(net, corner, drive_resistance, input_slew,
                                   sinks, interconnect, tracer)
        loads[driver_node] = net_load[net_name]
        tracer.event("sta_net", net=net_name, driver=driver_node,
                     mode="ideal" if not net.segments else interconnect,
                     load_f=net_load[net_name], sinks=len(sinks))
        for sink in sinks:
            graph.add_edge(driver_node, sink.node,
                           evaluation.delays[sink.node], kind="net",
                           label=net_name)
            edge_slew[(driver_node, sink.node)] = evaluation.slews[sink.node]

    with tracer.span("sta_build", design=design.name, corner=corner.name,
                     interconnect=interconnect):
        for node in order:
            if node in port_in:
                port = port_in[node]
                arrival_at[node] = float(port.arrival)
                slew_at[node] = float(port.slew)
                freeze_net(port.net, node, float(port.drive_resistance),
                           slew_at[node])
                continue
            info = instance_of.get(node)
            if info is None:
                # Output port: a pure endpoint.
                arrival_at[node], slew_at[node] = incoming_worst(node)
                continue
            inst, cell, pin, role = info
            if role == "in":
                arrival_at[node], slew_at[node] = incoming_worst(node)
                continue
            # Instance output pin: the driven net's load gates the cell
            # arcs, so freeze the arcs first, then the net.
            net_name = inst.connections[pin]
            load = net_load[net_name]
            for arc in cell.arcs_to(pin):
                src = inst.pin_node(arc.input)
                in_slew = slew_at[src]
                delay = arc.delay.lookup(in_slew, load) * corner.cell
                out_slew = arc.output_slew.lookup(in_slew, load) * corner.cell
                graph.add_edge(src, node, delay, kind="cell",
                               label=f"{inst.cell}:{arc.input}->{arc.output}")
                edge_slew[(src, node)] = out_slew
            arrival_at[node], slew_at[node] = incoming_worst(node)
            freeze_net(net_name, node, cell.drive_resistance[pin] * corner.cell,
                       slew_at[node])
        tracer.event("sta_frozen", design=design.name, corner=corner.name,
                     nodes=graph.node_count, edges=graph.edge_count)

    return BuiltTiming(
        design_name=design.name,
        corner=corner,
        interconnect=interconnect,
        graph=graph,
        arrivals=arrivals,
        required=required,
        slews=dict(slew_at),
        loads=dict(loads),
    )
