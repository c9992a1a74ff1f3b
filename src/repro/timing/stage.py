"""The stage model: a switching gate driving an interconnect net (Fig. 1).

Following the RC-tree timing analyzers the paper builds on (Crystal, TV
[1], [3]), a gate is modelled as a switched voltage source behind an
effective resistance, and each receiver as a load capacitance at its input
node.  A :class:`Stage` assembles the full linear circuit — driver +
user-supplied net + receiver loads — and evaluates it with AWE.

The net is described with a small builder callback so arbitrary RLC
interconnect (trees, coupled lines, PCB ladders) plugs in::

    def my_net(ckt):                 # wire from "drv" to sinks "s1", "s2"
        ckt.add_resistor("Rw1", "drv", "s1", 200.0)
        ...

    stage = Stage("inv1", driver_resistance=1e3, net=my_net,
                  sinks=[Receiver("s1", 20e-15), Receiver("s2", 15e-15)])
    result = stage.evaluate(input_event_time=0.0, input_slew=50e-12)
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.analysis.sources import Ramp, Step, Stimulus
from repro.circuit.netlist import Circuit
from repro.core.driver import AweAnalyzer, AweResponse
from repro.errors import AnalysisError
from repro.timing.delay import DelayReport, measure_delay

#: Node names the stage wires itself to.
DRIVER_OUTPUT = "drv"


@dataclasses.dataclass(frozen=True)
class Receiver:
    """A gate input loading the net: node name + input capacitance and the
    logic threshold (as a fraction of the swing) that defines its delay."""

    node: str
    capacitance: float
    threshold_fraction: float = 0.5


@dataclasses.dataclass(frozen=True)
class StageResult:
    """Per-receiver timing of one evaluated stage."""

    stage_name: str
    reports: dict[str, DelayReport]
    responses: dict[str, AweResponse]

    def delay(self, node: str) -> float:
        """Threshold-crossing delay at one receiver (absolute time)."""
        report = self.reports[node]
        if report.threshold_delay is None:
            raise AnalysisError(f"no threshold recorded for {node!r}")
        return report.threshold_delay

    @property
    def worst_delay(self) -> float:
        """The latest receiver threshold crossing — the stage's delay."""
        return max(
            report.threshold_delay
            for report in self.reports.values()
            if report.threshold_delay is not None
        )


@dataclasses.dataclass
class Stage:
    """One gate-output + interconnect stage.

    Parameters
    ----------
    name:
        Identifier used in reports.
    driver_resistance:
        Effective switching resistance of the driving gate.
    net:
        Callback that adds the interconnect elements to a circuit; it must
        connect node ``"drv"`` (the driver output) to every receiver node.
    sinks:
        The receivers loading the net.
    v_low, v_high:
        Supply rails of the transition (default 0 → 5 V, the paper's
        examples).
    rising:
        Direction of the output transition this stage models.
    order:
        AWE order (None = automatic escalation to ``error_target``).
    """

    name: str
    driver_resistance: float
    net: Callable[[Circuit], None]
    sinks: list[Receiver]
    v_low: float = 0.0
    v_high: float = 5.0
    rising: bool = True
    order: int | None = None
    error_target: float = 0.01

    def build_circuit(self) -> Circuit:
        """Assemble driver + net + receiver loads into one circuit."""
        if not self.sinks:
            raise AnalysisError(f"stage {self.name!r} has no receivers")
        ckt = Circuit(f"stage {self.name}")
        ckt.add_voltage_source("Vdrv", "in", "0")
        ckt.add_resistor("Rdrv", "in", DRIVER_OUTPUT, self.driver_resistance)
        self.net(ckt)
        for receiver in self.sinks:
            if not ckt.has_node(receiver.node):
                raise AnalysisError(
                    f"net of stage {self.name!r} never connects receiver "
                    f"node {receiver.node!r}"
                )
            ckt.add_capacitor(f"Cin_{receiver.node}", receiver.node, "0",
                              receiver.capacitance)
        return ckt

    def stimulus(self, event_time: float, input_slew: float) -> Stimulus:
        """The driver-output swing as seen through the switching gate: a
        ramp whose rise time is the (10–90 %-derived) input slew, or an
        ideal step for zero slew."""
        v0, v1 = (self.v_low, self.v_high) if self.rising else (self.v_high, self.v_low)
        if input_slew <= 0.0:
            return Step(v0=v0, v1=v1, delay=event_time)
        return Ramp(v0=v0, v1=v1, rise_time=input_slew, delay=event_time)

    def evaluate(self, input_event_time: float = 0.0, input_slew: float = 0.0) -> StageResult:
        """AWE-evaluate every receiver waveform and measure its timing."""
        circuit = self.build_circuit()
        stimulus = self.stimulus(input_event_time, input_slew)
        analyzer = AweAnalyzer(circuit, {"Vdrv": stimulus})
        reports: dict[str, DelayReport] = {}
        responses: dict[str, AweResponse] = {}
        for receiver in self.sinks:
            response = analyzer.response(
                receiver.node, order=self.order, error_target=self.error_target
            )
            v0, v1 = (self.v_low, self.v_high) if self.rising else (self.v_high, self.v_low)
            threshold = v0 + receiver.threshold_fraction * (v1 - v0)
            reports[receiver.node] = measure_delay(
                response.waveform, threshold, response.waveform.final_value())
            responses[receiver.node] = response
        return StageResult(self.name, reports, responses)
