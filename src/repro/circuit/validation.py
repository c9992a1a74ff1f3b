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

from operator import itemgetter

from repro.circuit.elements import (
    CCCS,
    CCVS,
    VCVS,
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.graph import DisjointSets, tree_path
from repro.circuit.netlist import Circuit
from repro.errors import (
    AnalysisError,
    CircuitError,
    SingularCircuitError,
    TopologyError,
)


def validate_for_analysis(circuit: Circuit) -> None:
    """Run every structural check; raises on the first violation.

    A circuit that passes is not checked again until one of its mutators
    changes it (the pass is kept against :attr:`Circuit.version`); a
    failing circuit raises on every call."""
    circuit.cached("validated", _validate)


def _validate(circuit: Circuit) -> bool:
    if len(circuit) == 0:
        raise CircuitError("circuit is empty")
    _check_ground_reference(circuit)
    _check_controlled_sources(circuit)
    _check_voltage_loops(circuit)
    _check_current_source_cutsets(circuit)
    return True


def require_rcvi(circuit: Circuit, what: str) -> None:
    """Raise :class:`~repro.errors.AnalysisError` naming the first element
    that is not a resistor, capacitor or independent source; ``what``
    names the analysis that needs an R/C/V/I circuit."""
    others = [column for column in circuit.columns() if not issubclass(
        column.kind, (Resistor, Capacitor, VoltageSource, CurrentSource))]
    if others:
        element = min(others, key=lambda column: column.ordinal[0]).elements[0]
        raise AnalysisError(
            f"{what} support R/C/V/I circuits; got "
            f"{type(element).__name__} {element.name!r}"
        )


def edges(circuit: Circuit, *types: type) -> list[tuple[int, int, Element]]:
    """``(positive, negative, element)`` of every element whose type is one
    of ``types``, in circuit order, with the node indices of the circuit's
    columns (ground is ``-1``)."""
    columns = circuit.columns(*types)
    rows = [
        row for column in columns
        for row in zip(column.ordinal, column.positive, column.negative, column.elements)
    ]
    if len(columns) > 1:
        rows.sort(key=itemgetter(0))
    return [row[1:] for row in rows]


def _check_ground_reference(circuit: Circuit) -> None:
    if not any(-1 in column.positive or -1 in column.negative
               for column in circuit.columns()):
        raise TopologyError(
            "no element connects to ground; node voltages are undefined"
        )


def _check_controlled_sources(circuit: Circuit) -> None:
    for element in circuit.elements_of_type(CCCS, CCVS):
        control = element.control_element
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
        if control == element.name:
            raise CircuitError(f"{element.name!r} cannot control itself")


def _check_voltage_loops(circuit: Circuit) -> None:
    """Loops of voltage-defining branches make the DC system singular
    (the paper's capacitance-voltage-source-loop caveat, Sec. 3.2).  The
    branches join a union-find in circuit order; the first one whose
    terminals are already joined closes a loop with the forest path
    between them."""
    forest = DisjointSets(circuit.node_count + 1)  # ground last, as -1
    tree: dict[int, list[tuple[int, str]]] = {}
    for p, n, element in edges(circuit, VoltageSource, VCVS, CCVS, Inductor):
        if forest.union(p, n):
            tree.setdefault(p, []).append((n, element.name))
            tree.setdefault(n, []).append((p, element.name))
            continue
        names = sorted({name for _, _, name in tree_path(tree, p, n)} | {element.name})
        raise SingularCircuitError(
            "voltage-defining branches form a loop (no unique DC solution): "
            + ", ".join(names)
        )


def _check_current_source_cutsets(circuit: Circuit) -> None:
    """A node fed only by current sources has no DC solution."""
    sources = circuit.columns(CurrentSource)
    if not sources:
        return
    touched_by_other = {-1}  # ground
    for column in circuit.columns():
        if not issubclass(column.kind, CurrentSource):
            touched_by_other.update(column.positive)
            touched_by_other.update(column.negative)
    nodes = circuit.nodes
    isolated = sorted({
        nodes[node]
        for column in sources
        for node in column.positive + column.negative
        if node not in touched_by_other
    })
    if isolated:
        raise SingularCircuitError(
            f"node(s) {isolated} connect only to current sources; "
            "KCL cannot be satisfied at DC"
        )
