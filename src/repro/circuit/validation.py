"""Global structural validation of circuits before analysis.

The element and netlist layers enforce local sanity (positive values, no
self-loops, unique names); this module checks the whole-circuit properties
the analyses assume:

* every controlled source's controlling element exists and (for CCCS/CCVS)
  carries a branch current,
* no loop consisting purely of voltage-defining branches (voltage sources,
  VCVS/CCVS outputs, and — at DC — inductors), which would make the DC
  system singular,
* no node whose connections are exclusively current sources (a
  current-source cutset), which has no DC solution,
* the circuit has a ground reference somewhere.

Capacitive-only ("floating") nodes are deliberately *not* rejected — the
paper's Sec. III handles them by charge conservation and so does
:class:`repro.analysis.mna.MnaSystem`.
"""

from __future__ import annotations

import networkx as nx

from repro.circuit.elements import (
    CCCS,
    CCVS,
    GROUND,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.errors import (
    AnalysisError,
    CircuitError,
    SingularCircuitError,
    TopologyError,
)


def validate_for_analysis(circuit: Circuit) -> None:
    """Run every structural check; raises on the first violation."""
    if len(circuit) == 0:
        raise CircuitError("circuit is empty")
    _check_ground_reference(circuit)
    _check_controlled_sources(circuit)
    _check_voltage_loops(circuit)
    _check_current_source_cutsets(circuit)


def require_rcvi(circuit: Circuit, what: str) -> None:
    """Raise :class:`~repro.errors.AnalysisError` naming the first element
    that is not a resistor, capacitor or independent source; ``what``
    names the analysis that needs an R/C/V/I circuit."""
    for element in circuit:
        if not isinstance(
            element, (Resistor, Capacitor, VoltageSource, CurrentSource)
        ):
            raise AnalysisError(
                f"{what} support R/C/V/I circuits; got "
                f"{type(element).__name__} {element.name!r}"
            )


def _check_ground_reference(circuit: Circuit) -> None:
    if not any(GROUND in element.nodes for element in circuit):
        raise TopologyError(
            "no element connects to ground; node voltages are undefined"
        )


def _check_controlled_sources(circuit: Circuit) -> None:
    for element in circuit:
        control = getattr(element, "control_element", None)
        if control is None:
            continue
        if control not in circuit:
            raise CircuitError(
                f"{element.name!r} controlled by nonexistent element {control!r}"
            )
        controller = circuit[control]
        if not controller.needs_current_variable:
            raise CircuitError(
                f"{element.name!r} must be controlled by a branch that carries "
                f"a current (voltage source or inductor), not "
                f"{type(controller).__name__} {control!r}"
            )
        if isinstance(element, (CCCS, CCVS)) and control == element.name:
            raise CircuitError(f"{element.name!r} cannot control itself")


def _check_voltage_loops(circuit: Circuit) -> None:
    """Loops of voltage-defining branches make the DC system singular
    (the paper's capacitance-voltage-source-loop caveat, Sec. 3.2)."""
    graph = nx.MultiGraph()
    for element in circuit:
        if isinstance(element, (VoltageSource, VCVS, CCVS, Inductor)):
            graph.add_edge(element.positive, element.negative, name=element.name)
    try:
        cycle = nx.find_cycle(graph)
    except nx.NetworkXNoCycle:
        return
    names = sorted({graph.edges[edge]["name"] for edge in cycle})
    raise SingularCircuitError(
        "voltage-defining branches form a loop (no unique DC solution): "
        + ", ".join(names)
    )


def _check_current_source_cutsets(circuit: Circuit) -> None:
    """A node fed only by current sources has no DC solution."""
    touched_by_other: set[str] = {GROUND}
    touched_at_all: set[str] = set()
    for element in circuit:
        for node in element.nodes:
            touched_at_all.add(node)
            if not isinstance(element, CurrentSource):
                touched_by_other.add(node)
    isolated = sorted(touched_at_all - touched_by_other)
    if isolated:
        raise SingularCircuitError(
            f"node(s) {isolated} connect only to current sources; "
            "KCL cannot be satisfied at DC"
        )
