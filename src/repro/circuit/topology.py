"""Topology queries: RC-tree recognition, spanning trees, tree/link partition.

The classical delay methods of the paper's Sec. II are only defined on
*RC trees*: "RC circuits with capacitors from all nodes to ground, no
floating capacitors, no resistor loops, and no resistors to ground"
(with the driving source at the root).  :func:`analyze_rc_tree` checks the
definition and, when it holds, returns the rooted tree structure the
Elmore tree-walk needs.

:func:`tree_link_partition` implements the general tree/link split of the
paper's Sec. IV: a spanning tree of the circuit graph is chosen preferring
voltage sources, then resistors, then inductors (so capacitors — the
current-source-like branches — become links whenever possible, which is
what makes the RC-tree moment solution explicit, Fig. 6).  Elements that
do not fit in the tree become links; a resistor forced into the links
(e.g. the grounded resistor of Fig. 9/10) signals that the DC solution is
not explicit and a small linear solve is required.
"""

from __future__ import annotations

import dataclasses

from repro.circuit.elements import (
    GROUND,
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    VoltageSource,
)
from repro.circuit.graph import DisjointSets, bfs_parents
from repro.circuit.netlist import Circuit
from repro.errors import TopologyError


@dataclasses.dataclass(frozen=True)
class RcTree:
    """A validated RC tree rooted at the driving source.

    ``parent[node]`` gives (parent_node, resistor) walking toward the
    root; ``children[node]`` the inverse adjacency; ``capacitance[node]``
    the grounded capacitance at each node (0.0 where none); ``root`` the
    node driven by the source resistance path.
    """

    root: str
    source_name: str
    parent: dict[str, tuple[str, Resistor]]
    children: dict[str, tuple[str, ...]]
    capacitance: dict[str, float]

    @property
    def nodes(self) -> list[str]:
        """All tree nodes in breadth-first order from the root."""
        order = [self.root]
        frontier = [self.root]
        while frontier:
            node = frontier.pop(0)
            for child in self.children.get(node, ()):
                order.append(child)
                frontier.append(child)
        return order

    def path_to_root(self, node: str) -> list[tuple[str, Resistor]]:
        """The resistor chain from ``node`` up to the root."""
        path = []
        current = node
        while current != self.root:
            parent, resistor = self.parent[current]
            path.append((current, resistor))
            current = parent
        return path

    def path_resistance(self, node_a: str, node_b: str) -> float:
        """Total resistance of the shared path to the root, ``R_{ab}`` in
        the Penfield–Rubinstein/Elmore formulas: the resistance common to
        the root→a and root→b paths."""
        ancestors_a = {}
        total = 0.0
        current = node_a
        chain = []
        while current != self.root:
            parent, resistor = self.parent[current]
            chain.append((current, resistor))
            current = parent
        resistance_to_root = {}
        running = 0.0
        for node, resistor in reversed(chain):
            running += resistor.resistance
            resistance_to_root[node] = running
        # Walk b's path; the deepest node also on a's path closes the shared part.
        current = node_b
        shared = 0.0
        while current != self.root:
            if current in resistance_to_root:
                shared = resistance_to_root[current]
                break
            parent, _ = self.parent[current]
            current = parent
        return shared if current != self.root else shared

    def path_nodes(self, node: str) -> list[str]:
        """Nodes from the root down to ``node`` inclusive."""
        chain = [node]
        current = node
        while current != self.root:
            parent, _ = self.parent[current]
            chain.append(parent)
            current = parent
        return list(reversed(chain))


def analyze_rc_tree(circuit: Circuit) -> RcTree:
    """Validate the RC-tree restrictions and build the rooted structure.

    Requirements (paper Sec. II): exactly one voltage source whose negative
    terminal is ground; resistors form a tree rooted at the source's
    positive node; every capacitor is grounded; no other element types.
    """
    sources = circuit.voltage_sources
    if len(sources) != 1:
        raise TopologyError(f"an RC tree needs exactly one source, found {len(sources)}")
    source = sources[0]
    if source.negative != GROUND:
        raise TopologyError("the RC-tree source must return to ground")
    root = source.positive

    for element in circuit:
        if isinstance(element, (VoltageSource, Resistor)):
            continue
        if isinstance(element, Capacitor):
            if element.is_floating:
                raise TopologyError(
                    f"floating capacitor {element.name!r}: not an RC tree "
                    "(use AWE, paper Sec. 5.3)"
                )
            continue
        raise TopologyError(
            f"{type(element).__name__} {element.name!r} is not admissible in an RC tree"
        )

    # The resistor graph as adjacency lists: nodes in order of first
    # appearance, each node's neighbours in resistor order.
    adjacency: dict[str, list[tuple[str, Resistor]]] = {}
    pairs: set[frozenset] = set()
    for resistor in circuit.resistors:
        if GROUND in resistor.nodes:
            raise TopologyError(
                f"resistor {resistor.name!r} to ground: not an RC tree "
                "(use the grounded-resistor extension, paper Sec. 2.2)"
            )
        pair = frozenset(resistor.nodes)
        if pair in pairs:
            raise TopologyError("parallel resistors form a loop; not an RC tree")
        pairs.add(pair)
        adjacency.setdefault(resistor.positive, []).append((resistor.negative, resistor))
        adjacency.setdefault(resistor.negative, []).append((resistor.positive, resistor))
    if root not in adjacency:
        raise TopologyError(f"no resistor connects to the driving node {root!r}")
    parent = bfs_parents(adjacency, root)
    if len(pairs) != len(adjacency) - 1 or len(parent) != len(pairs):
        raise TopologyError("resistors form loops or a disconnected graph; not an RC tree")

    children: dict[str, list[str]] = {node: [] for node in adjacency}
    for node_to, (node_from, _) in parent.items():
        children[node_from].append(node_to)

    capacitance = {node: 0.0 for node in adjacency}
    for cap in circuit.capacitors:
        node = cap.positive if cap.negative == GROUND else cap.negative
        if node not in capacitance:
            raise TopologyError(
                f"capacitor {cap.name!r} hangs on node {node!r} outside the resistor tree"
            )
        capacitance[node] += cap.capacitance

    return RcTree(
        root=root,
        source_name=source.name,
        parent=parent,
        children={node: tuple(kids) for node, kids in children.items()},
        capacitance=capacitance,
    )


def is_rc_tree(circuit: Circuit) -> bool:
    """True when :func:`analyze_rc_tree` accepts the circuit."""
    try:
        analyze_rc_tree(circuit)
    except TopologyError:
        return False
    return True


@dataclasses.dataclass(frozen=True)
class TreeLinkPartition:
    """A spanning-tree / link split of the circuit graph (paper Sec. IV).

    ``tree`` holds the spanning-tree elements; ``links`` the rest.  When
    ``explicit_dc`` is true, every link is a capacitor or current source
    and the DC/moment solutions are explicit (solvable by one tree walk,
    paper Figs. 6/8); otherwise resistive links (Fig. 10) force a reduced
    linear solve of one equation per resistive link.
    """

    tree: tuple[Element, ...]
    links: tuple[Element, ...]

    @property
    def explicit_dc(self) -> bool:
        return all(
            isinstance(link, (Capacitor, CurrentSource)) for link in self.links
        )


#: Spanning-tree preference order: voltage-defining branches first so that
#: capacitors land in the links (paper Sec. IV).
_TREE_PRIORITY = {VoltageSource: 0, Resistor: 1, Inductor: 2, Capacitor: 3, CurrentSource: 4}


def tree_link_partition(circuit: Circuit) -> TreeLinkPartition:
    """Partition elements into a spanning tree and links.

    Elements are offered to a union-find in priority order (sources,
    resistors, inductors, then capacitors, then current sources); an
    element joining two already-connected nodes becomes a link.  Controlled
    sources are always links.
    """
    index = {name: number for number, name in enumerate(circuit.nodes)}
    index[GROUND] = -1
    forest = DisjointSets(circuit.node_count + 1)  # ground last, as -1
    ordered = sorted(
        circuit,
        key=lambda e: _TREE_PRIORITY.get(type(e), 9),
    )
    tree: list[Element] = []
    links: list[Element] = []
    for element in ordered:
        if _TREE_PRIORITY.get(type(element), 9) > 4:
            links.append(element)
            continue
        if forest.union(index[element.positive], index[element.negative]):
            tree.append(element)
        else:
            links.append(element)
    return TreeLinkPartition(tuple(tree), tuple(links))


# ----------------------------------------------------------------------
# Series RC chain detection (the topology side of repro.reduce)
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SeriesRcChain:
    """A maximal run of collapsible degree-2 series RC nodes.

    ``anchor_a``/``anchor_b`` are the retained end nodes (either may be
    ground); ``interior`` lists the removable nodes in walking order from
    ``anchor_a``; ``resistors`` the ``len(interior) + 1`` series
    resistors in the same order; ``capacitors`` one tuple per interior
    node holding that node's grounded capacitors (possibly empty).
    """

    anchor_a: str
    anchor_b: str
    interior: tuple[str, ...]
    resistors: tuple[Resistor, ...]
    capacitors: tuple[tuple[Capacitor, ...], ...]

    @property
    def total_resistance(self) -> float:
        return sum(r.resistance for r in self.resistors)

    @property
    def total_capacitance(self) -> float:
        return sum(c.capacitance for caps in self.capacitors for c in caps)


def series_rc_chains(circuit: Circuit, keep: tuple = ()) -> tuple[SeriesRcChain, ...]:
    """Maximal series RC chains whose interior nodes can be collapsed.

    An interior node is *removable* when its entire connection to the
    circuit is exactly two series resistors plus (optionally) grounded
    capacitors with no initial condition, and it is neither ground, a
    ``keep`` node (analysis tap), nor touched by any source, inductor,
    controlled source, control port, or floating capacitor.  Chains whose
    two anchors coincide (a loop hanging off one node) are not reported:
    collapsing them would create a self-loop element.

    Detection is purely topological; the collapse arithmetic lives in
    :mod:`repro.reduce`.
    """
    from repro.circuit.elements import canonical_node

    kept = {canonical_node(node) for node in keep}
    resistor_adjacency: dict[str, list[Resistor]] = {}
    grounded_caps: dict[str, list[Capacitor]] = {}
    blocked: set[str] = set(kept)

    def block(*names):
        for name in names:
            if name is not None and name != GROUND:
                blocked.add(name)

    for element in circuit:
        if isinstance(element, Resistor):
            for end in (element.positive, element.negative):
                if end != GROUND:
                    resistor_adjacency.setdefault(end, []).append(element)
        elif isinstance(element, Capacitor):
            if element.is_grounded and element.initial_voltage is None:
                node = (element.positive
                        if element.positive != GROUND else element.negative)
                grounded_caps.setdefault(node, []).append(element)
            else:
                block(element.positive, element.negative)
        else:
            block(element.positive, element.negative)
            block(getattr(element, "ctrl_positive", None),
                  getattr(element, "ctrl_negative", None))

    removable = set()
    for node in circuit.nodes:
        if node in blocked:
            continue
        incident = resistor_adjacency.get(node, ())
        if len(incident) != 2:
            continue
        removable.add(node)

    def other_end(resistor: Resistor, node: str) -> str:
        return resistor.negative if resistor.positive == node else resistor.positive

    chains: list[SeriesRcChain] = []
    visited: set[str] = set()
    for seed in circuit.nodes:
        if seed not in removable or seed in visited:
            continue
        first, second = resistor_adjacency[seed]
        # Walk outward in both directions until a non-removable anchor.
        # ``walked`` detects a ring in O(1) per step; the lists keep order.
        walked = {seed}
        left: list[str] = []
        left_resistors: list[Resistor] = []
        is_cycle = False
        node, res = seed, first
        while True:
            nxt = other_end(res, node)
            left_resistors.append(res)
            if nxt not in removable:
                anchor_a = nxt
                break
            if nxt in walked:
                is_cycle = True
                break
            walked.add(nxt)
            left.append(nxt)
            a, b = resistor_adjacency[nxt]
            node, res = nxt, (b if a is res else a)
        right: list[str] = []
        right_resistors: list[Resistor] = []
        if not is_cycle:
            node, res = seed, second
            while True:
                nxt = other_end(res, node)
                right_resistors.append(res)
                if nxt not in removable:
                    anchor_b = nxt
                    break
                if nxt in walked:
                    is_cycle = True
                    break
                walked.add(nxt)
                right.append(nxt)
                a, b = resistor_adjacency[nxt]
                node, res = nxt, (b if a is res else a)
        interior = list(reversed(left)) + [seed] + right
        visited.update(interior)
        if is_cycle or anchor_a == anchor_b:
            continue
        ordered_resistors = list(reversed(left_resistors)) + right_resistors
        chains.append(SeriesRcChain(
            anchor_a=anchor_a,
            anchor_b=anchor_b,
            interior=tuple(interior),
            resistors=tuple(ordered_resistors),
            capacitors=tuple(
                tuple(grounded_caps.get(node, ())) for node in interior
            ),
        ))
    return tuple(chains)
