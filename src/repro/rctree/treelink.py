"""Tree/link analysis (paper Sec. IV).

The paper computes moments not from assembled matrices but by *tree/link*
partitioning [28–30]: choose a spanning tree of the circuit graph from the
voltage sources and resistors; the capacitors become links, which — once
replaced by current sources (Fig. 5) — makes every moment a dc solve that
reduces to walks over the tree (eq. 53):

.. math::

    v_l = -F^T R F\\, I + F^T V_s

For a true RC tree every link is a capacitor and the solve is explicit
(Fig. 6); a grounded resistor forces one resistor into the links (Fig. 10)
and costs one extra scalar equation per resistive link (eq. 61) — still
O(n) overall, which is the section's point.

This module implements exactly that machinery for R/C/V/I circuits.  It is
deliberately independent of the MNA engine: the test suite checks that the
two produce identical steady states, moments, and Elmore delays, which is
the reproduction of the paper's Sec. IV equivalence claims (eqs. 50 vs 56).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.elements import (
    GROUND,
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
)
from repro.circuit.graph import DisjointSets, bfs_parents
from repro.circuit.netlist import Circuit
from repro.circuit.validation import edges
from repro.errors import AnalysisError, TopologyError


@dataclasses.dataclass(frozen=True)
class _LoopStep:
    """One tree branch traversed by a fundamental loop: +1 when the loop
    follows the branch's positive→negative orientation."""

    branch: str
    sign: float


class TreeLinkAnalysis:
    """Tree/link solver for R/C/V/I circuits.

    On construction the circuit graph is split into a spanning tree
    (voltage sources first, then resistors — so capacitors become links
    whenever possible) and links; the fundamental loop of each link is
    recorded as tree-branch traversals.  Every subsequent solve is linear
    in circuit size plus one dense solve of dimension = number of
    *resistive* links (zero for RC trees, per the paper).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        for element in circuit:
            if not isinstance(element, (Resistor, Capacitor, VoltageSource, CurrentSource)):
                raise TopologyError(
                    f"tree/link analysis supports R/C/V/I only, got "
                    f"{type(element).__name__} {element.name!r}"
                )
        self._build()

    # -- construction ----------------------------------------------------

    def _build(self) -> None:
        names = self.circuit.nodes + [GROUND]  # by node index; ground last, as -1
        forest = DisjointSets(len(names))
        adjacency: dict[str, list[tuple[str, str]]] = {}
        tree_elements: dict[str, object] = {}
        links: list = []
        # Priority: voltage sources, then resistors, into the tree.
        for bucket in (VoltageSource, Resistor):
            for p, n, element in edges(self.circuit, bucket):
                if not forest.union(p, n):
                    links.append(element)
                    continue
                adjacency.setdefault(names[p], []).append((names[n], element.name))
                adjacency.setdefault(names[n], []).append((names[p], element.name))
                tree_elements[element.name] = element
        links.extend(self.circuit.elements_of_type(Capacitor, CurrentSource))

        # Every node must be reachable through the tree for the port solves
        # to be defined (capacitor-only nodes are out of scope here — the
        # paper handles them with charge conservation in the general AWE
        # formulation, not in the tree/link walk).
        grounded = forest.find(-1)
        for node, name in enumerate(names[:-1]):
            if forest.find(node) != grounded:
                raise TopologyError(
                    f"node {name!r} is not reachable through tree branches; "
                    "tree/link analysis needs a conductive spanning tree"
                )

        # The tree rooted at ground: each node's parent, branch and depth.
        self._parent = bfs_parents(adjacency, GROUND)
        self._depth = {GROUND: 0}
        for node, (parent, _) in self._parent.items():
            self._depth[node] = self._depth[parent] + 1
        self.tree_elements = tree_elements
        self.links = links
        self.resistive_links = [l for l in links if isinstance(l, Resistor)]
        self.capacitor_links = [l for l in links if isinstance(l, Capacitor)]
        self.current_source_links = [l for l in links if isinstance(l, CurrentSource)]
        self._loops = {link.name: self._fundamental_loop(link) for link in links}
        self._resistive_matrix = self._build_resistive_matrix()

    def _fundamental_loop(self, link) -> list[_LoopStep]:
        """Tree path from the link's negative node back to its positive
        node — the return path of the loop current."""
        down: list[tuple[str, str, str]] = []
        up: list[tuple[str, str, str]] = []
        a, b = link.negative, link.positive
        while a != b:  # climb from the deeper end until the two meet
            if self._depth[a] >= self._depth[b]:
                parent, branch = self._parent[a]
                up.append((a, parent, branch))
                a = parent
            else:
                parent, branch = self._parent[b]
                down.append((parent, b, branch))
                b = parent
        steps: list[_LoopStep] = []
        for node_from, _, branch in up + down[::-1]:
            element = self.tree_elements[branch]
            # Traversing node_from→node_to follows the branch orientation
            # when node_from is the branch's positive terminal.
            sign = 1.0 if element.positive == node_from else -1.0
            steps.append(_LoopStep(element.name, sign))
        return steps

    def _build_resistive_matrix(self) -> np.ndarray | None:
        """(I + G·FᵀRF) for the resistive-link unknowns (paper eq. 61)."""
        n = len(self.resistive_links)
        if n == 0:
            return None
        A = np.eye(n)
        for j, source_link in enumerate(self.resistive_links):
            # Voltage seen by every resistive link when this one carries
            # unit current and all other injections are zero.
            voltages = self._link_voltages({source_link.name: 1.0}, {})
            for i, target_link in enumerate(self.resistive_links):
                A[i, j] -= voltages[target_link.name] / target_link.resistance
        return A

    # -- elementary solves -------------------------------------------------

    def _branch_currents(self, link_currents: dict[str, float]) -> dict[str, float]:
        """Tree branch currents from the link currents (loop superposition)."""
        currents = {name: 0.0 for name in self.tree_elements}
        for link_name, current in link_currents.items():
            if current == 0.0:
                continue
            for step in self._loops[link_name]:
                currents[step.branch] += step.sign * current
        return currents

    def _link_voltages(
        self, link_currents: dict[str, float], source_values: dict[str, float]
    ) -> dict[str, float]:
        """Voltage across every link (positive minus negative terminal).

        The drop along the loop return path is accumulated from branch
        voltages: ``R·i`` for tree resistors, the source value for tree
        voltage sources.
        """
        branch_currents = self._branch_currents(link_currents)
        branch_voltage: dict[str, float] = {}
        for name, element in self.tree_elements.items():
            if isinstance(element, Resistor):
                branch_voltage[name] = element.resistance * branch_currents[name]
            else:
                branch_voltage[name] = source_values.get(name, 0.0)

        voltages: dict[str, float] = {}
        for link in self.links:
            # v(link) = v(positive) − v(negative) = +Σ drops along the
            # tree path negative→positive, against each branch orientation.
            total = 0.0
            for step in self._loops[link.name]:
                total += step.sign * branch_voltage[step.branch]
            # The path runs negative→positive, so the accumulated drop is
            # v(negative) − v(positive); negate.
            voltages[link.name] = -total
        return voltages

    def port_solve(
        self,
        capacitor_currents: dict[str, float],
        source_values: dict[str, float],
    ) -> dict[str, float]:
        """One dc solve: capacitors replaced by the given current sources.

        ``capacitor_currents[name]`` is the current *injected through the
        capacitor port* from its positive to its negative terminal (the
        ``I`` of the paper's Fig. 5).  Returns the voltage across every
        capacitor link.  Independent current sources in the circuit
        contribute their ``source_values`` entry (default 0).
        """
        injections = {}
        for cap in self.capacitor_links:
            injections[cap.name] = capacitor_currents.get(cap.name, 0.0)
        for isrc in self.current_source_links:
            injections[isrc.name] = source_values.get(isrc.name, 0.0)

        if self.resistive_links:
            # Solve eq. 61 for the resistive-link currents first.
            base = self._link_voltages(injections, source_values)
            rhs = np.array(
                [base[l.name] / l.resistance for l in self.resistive_links]
            )
            currents = np.linalg.solve(self._resistive_matrix, rhs)
            for link, current in zip(self.resistive_links, currents):
                injections[link.name] = float(current)

        voltages = self._link_voltages(injections, source_values)
        return {cap.name: voltages[cap.name] for cap in self.capacitor_links}


def treelink_steady_state(
    circuit: Circuit, source_values: dict[str, float]
) -> dict[str, float]:
    """DC steady state of every capacitor voltage (caps open) by tree/link."""
    analysis = TreeLinkAnalysis(circuit)
    return analysis.port_solve({}, source_values)


def treelink_moments(
    circuit: Circuit, source_values: dict[str, float], count: int
) -> dict[str, np.ndarray]:
    """Moments of the zero-IC step response's homogeneous part, per capacitor.

    Returns ``{cap: [m₋₁, m₀, …, m_{count−1}]}`` where ``m₋₁ = −v_ss`` (the
    homogeneous initial value for a circuit starting at rest) and each
    subsequent moment is one more port solve with the previous moment
    scaled by the capacitances as the injected current — the "succession
    of dc solutions" of paper Sec. IV.
    """
    analysis = TreeLinkAnalysis(circuit)
    v_ss = analysis.port_solve({}, source_values)
    caps = {cap.name: cap.capacitance for cap in analysis.capacitor_links}

    previous = {name: -v for name, v in v_ss.items()}  # m₋₁ = y(0) = −v_ss
    sequences = {name: [previous[name]] for name in caps}
    for k in range(count):
        # m₀ = G⁻¹C·y₀ but m_{k+1} = −G⁻¹C·m_k (paper eq. 34): through the
        # port-solve orientation this flips the injected-current sign after
        # the first step.
        sign = -1.0 if k == 0 else 1.0
        injection = {name: sign * caps[name] * previous[name] for name in caps}
        current = analysis.port_solve(injection, {})
        for name in caps:
            sequences[name].append(current[name])
        previous = current
    return {name: np.array(values) for name, values in sequences.items()}


def treelink_elmore_delays(circuit: Circuit, v_supply: float) -> dict[str, float]:
    """Elmore delays via tree/link moments (the paper's eq. 56 route):
    ``T_D = −m₀ / v_ss`` per capacitor, for a 0→``v_supply`` step on every
    voltage source."""
    source_values = {src.name: v_supply for src in circuit.voltage_sources}
    analysis = TreeLinkAnalysis(circuit)
    v_ss = analysis.port_solve({}, source_values)
    moments = treelink_moments(circuit, source_values, 1)
    delays = {}
    for name, sequence in moments.items():
        steady = v_ss[name]
        if steady == 0.0:
            raise AnalysisError(f"capacitor {name!r} sees no steady-state swing")
        delays[name] = -float(sequence[1]) / steady
    return delays
