"""The ingest path against its element-by-element references.

Deck text becomes a circuit through the split tokenizer and the comment
strip, the circuit's element columns become ``G``, ``C`` and ``B``
through one vectorized stamp, and the structural checks run as
union-finds over node indices.  Each is held here against the simple
form it replaces, kept in this file as an oracle: the character-loop
tokenizer and ``re.split`` comment strip, a per-element stamper, and
breadth-first searches over the circuit graph.
"""

from __future__ import annotations

import json
import pathlib
import random
import re
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.mna as mna
import repro.circuit.validation as validation
from repro import Circuit, MnaSystem, parse_netlist
from repro.circuit import (
    CCCS,
    CCVS,
    GROUND,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Inductor,
    Resistor,
    VoltageSource,
    analyze_rc_tree,
)
from repro.circuit.parser import _physical_to_logical, _tokenize
from repro.circuit.validation import validate_for_analysis
from repro.conformance.generate import generate_case
from repro.errors import NetlistParseError, ReproError, TopologyError
from repro.papercircuits import (
    clock_h_tree,
    coupled_rc_lines,
    fig4_rc_tree,
    fig9_grounded_resistor,
    fig16_stiff_rc_tree,
    fig22_floating_cap,
    fig25_rlc_ladder,
    magnetically_coupled_lines,
    random_rc_tree,
    rc_ladder,
    rc_mesh,
    rlc_transmission_ladder,
)
from repro.rctree.treelink import TreeLinkAnalysis

ROOT = pathlib.Path(__file__).resolve().parent.parent

# ----------------------------------------------------------------------
# Tokenizer and comment strip
# ----------------------------------------------------------------------


def _tokenize_oracle(line: str, number: int) -> list[str]:
    """The character loop, applied to every card."""
    spaced = re.sub(r"\(\s*", "(", line)
    tokens: list[str] = []
    depth = 0
    current = ""
    for ch in spaced:
        if ch == "(":
            depth += 1
            current += ch
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise NetlistParseError("unbalanced parentheses", number)
            current += ch
        elif ch.isspace() and depth == 0:
            if current:
                tokens.append(current)
                current = ""
        else:
            current += ch
    if depth != 0:
        raise NetlistParseError("unbalanced parentheses", number)
    if current:
        tokens.append(current)
    return tokens


def _logical_oracle(text: str) -> list[tuple[int, str]]:
    """Comment strip by ``re.split``, blank and ``*`` lines dropped, ``+``
    continuations folded."""
    logical: list[tuple[int, str]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"[;$]", raw, maxsplit=1)[0].rstrip().strip()
        if not stripped or stripped.startswith("*"):
            continue
        if stripped.startswith("+"):
            if not logical:
                raise NetlistParseError("continuation with nothing to continue", number)
            prev_number, prev = logical[-1]
            logical[-1] = (prev_number, prev + " " + stripped[1:].strip())
        else:
            logical.append((number, stripped))
    return logical


def _outcome(function, *args):
    try:
        return ("ok", function(*args))
    except NetlistParseError as exc:
        return ("error", str(exc))


#: Whitespace the two splitters must agree on: ASCII, tab, vertical tab,
#: form feed, unit separator, no-break, em and ideographic spaces.
_SPACES = " \t\x0b\x0c\x1f  　"

_words = st.text(alphabet="RCLVIGEFHKrc0123456789.-_=nkpfu", min_size=1, max_size=6)
_space = st.text(alphabet=_SPACES, min_size=1, max_size=3)
_group = st.builds(
    lambda func, spaces, args: f"{func}({spaces}{' '.join(args)})",
    st.sampled_from(["PWL", "pulse", "STEP", "Dc"]),
    st.text(alphabet=_SPACES, max_size=2),
    st.lists(_words, max_size=4),
)
_token = st.one_of(_words, _words, _group, st.sampled_from(["(", ")", "((", "a)b", "x(y"]))
_card = st.builds(
    lambda tokens, spaces, lead, tail: lead + "".join(
        token + space for token, space in zip(tokens, spaces)) + tail,
    st.lists(_token, min_size=1, max_size=6),
    st.lists(_space, min_size=6, max_size=6),
    st.text(alphabet=_SPACES, max_size=2),
    st.sampled_from(["", " ; comment", "$ note (", ";", "  $", "\t; a $ b"]),
)
_line = st.one_of(
    _card,
    _card.map(lambda card: "+" + card),
    _card.map(lambda card: " + " + card),
    st.sampled_from(["", "*", "* comment ; $", "   ", "\t", ".end", ".ic v(1)=2"]),
    st.text(alphabet="abc ()$;+*\t ", max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_line, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]))
def test_logical_lines_match_the_regex_strip(lines, newline):
    text = newline.join(lines)
    assert _outcome(_physical_to_logical, text) == _outcome(_logical_oracle, text)


@settings(max_examples=500, deadline=None)
@given(_card)
def test_split_tokenizer_matches_the_character_loop(card):
    for line in (card, card.strip()):
        assert _outcome(_tokenize, line, 7) == _outcome(_tokenize_oracle, line, 7)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="RC01 \t  ()x;$", max_size=20))
def test_tokenizers_agree_on_arbitrary_text(line):
    assert _outcome(_tokenize, line, 3) == _outcome(_tokenize_oracle, line, 3)


# ----------------------------------------------------------------------
# Stamping against a per-element reference
# ----------------------------------------------------------------------


def _reference_stamp(circuit, index, sparse=False):
    """``G``, ``C``, ``B`` stamped one element at a time, each entry
    appended to a triplet list in element order."""
    triplets = {"G": ([], [], []), "C": ([], [], []), "B": ([], [], [])}

    def add(matrix, i, j, value):
        rows, cols, vals = triplets[matrix]
        rows.append(i)
        cols.append(j)
        vals.append(value)

    def node(name):
        return None if name == GROUND else index.node(name)

    def pair(matrix, i, j, value):
        if i is not None:
            add(matrix, i, i, value)
            if j is not None:
                add(matrix, i, j, -value)
        if j is not None:
            add(matrix, j, j, value)
            if i is not None:
                add(matrix, j, i, -value)

    def branch(p, n, j):
        if p is not None:
            add("G", p, j, 1.0)
        if n is not None:
            add("G", n, j, -1.0)
        if p is not None:
            add("G", j, p, 1.0)
        if n is not None:
            add("G", j, n, -1.0)

    for element in circuit:
        p, n = node(element.positive), node(element.negative)
        if isinstance(element, Resistor):
            pair("G", p, n, element.conductance)
        elif isinstance(element, Capacitor):
            pair("C", p, n, element.capacitance)
        elif isinstance(element, Inductor):
            j = index.current(element.name)
            branch(p, n, j)
            add("C", j, j, -element.inductance)
        elif isinstance(element, VoltageSource):
            j = index.current(element.name)
            branch(p, n, j)
            add("B", j, index.source(element.name), 1.0)
        elif isinstance(element, CurrentSource):
            k = index.source(element.name)
            if p is not None:
                add("B", p, k, -1.0)
            if n is not None:
                add("B", n, k, 1.0)
        elif isinstance(element, VCCS):
            cp, cn = node(element.ctrl_positive), node(element.ctrl_negative)
            for row, sign in ((p, 1.0), (n, -1.0)):
                if row is None:
                    continue
                if cp is not None:
                    add("G", row, cp, sign * element.gain)
                if cn is not None:
                    add("G", row, cn, -sign * element.gain)
        elif isinstance(element, VCVS):
            j = index.current(element.name)
            branch(p, n, j)
            cp, cn = node(element.ctrl_positive), node(element.ctrl_negative)
            if cp is not None:
                add("G", j, cp, -element.gain)
            if cn is not None:
                add("G", j, cn, element.gain)
        elif isinstance(element, CCCS):
            jc = index.current(element.control_element)
            if p is not None:
                add("G", p, jc, element.gain)
            if n is not None:
                add("G", n, jc, -element.gain)
        else:
            j = index.current(element.name)
            branch(p, n, j)
            add("G", j, index.current(element.control_element), -element.gain)
    for coupling in circuit.mutual_inductances:
        j1, j2 = index.current(coupling.inductor_a), index.current(coupling.inductor_b)
        mutual = coupling.mutual(circuit[coupling.inductor_a].inductance,
                                 circuit[coupling.inductor_b].inductance)
        add("C", j1, j2, -mutual)
        add("C", j2, j1, -mutual)

    dim = index.dimension
    built = []
    for matrix, shape in (("G", (dim, dim)), ("C", (dim, dim)),
                          ("B", (dim, index.source_count))):
        rows, cols, vals = triplets[matrix]
        if sparse:
            built.append(scipy.sparse.coo_matrix(
                (vals, (rows, cols)), shape=shape, dtype=float).tocsr())
            continue
        dense = np.zeros(shape)
        if rows:
            np.add.at(dense, (np.asarray(rows), np.asarray(cols)),
                      np.asarray(vals, dtype=float))
        built.append(dense)
    return tuple(built)


def _reference_floating_groups(circuit):
    """Connected components of the conductive graph without ground, by
    breadth-first search over node names."""
    adjacency = {name: [] for name in [GROUND] + circuit.nodes}
    for element in circuit:
        if isinstance(element, (Resistor, Inductor, VoltageSource, VCVS, CCVS)):
            adjacency[element.positive].append(element.negative)
            adjacency[element.negative].append(element.positive)
    seen, groups = set(), []
    for start in adjacency:
        if start in seen:
            continue
        component, queue = {start}, deque([start])
        while queue:
            for neighbour in adjacency[queue.popleft()]:
                if neighbour not in component:
                    component.add(neighbour)
                    queue.append(neighbour)
        seen |= component
        if GROUND not in component:
            groups.append(tuple(sorted(circuit.node_index(name) for name in component)))
    return tuple(sorted(groups))


def _controlled_circuit() -> Circuit:
    """Every element kind, interleaved: controlled sources whose stamps
    share cells with resistors and with their controllers' KCL columns,
    two inductors coupled twice, a floating capacitive pair, parallel
    resistors and a current source."""
    c = Circuit("every kind")
    c.add_voltage_source("V1", "in", "0", 1.0)
    c.add_resistor("R1", "in", "a", 10.0)
    c.add_vccs("G1", "b", "0", "a", "0", 2e-3)
    c.add_resistor("R2", "b", "0", 1e3)
    c.add_vcvs("E1", "c", "0", "b", "a", 3.0)
    c.add_resistor("R3", "c", "d", 5.0)
    c.add_cccs("F1", "d", "0", "V1", 0.5)
    c.add_ccvs("H1", "e", "d", "V1", 7.0)
    c.add_resistor("R4", "e", "0", 50.0)
    c.add_capacitor("C1", "a", "b", 1e-12)
    c.add_inductor("L1", "c", "f", 1e-9)
    c.add_inductor("L2", "f", "0", 2e-9)
    c.add_mutual_inductance("K1", "L1", "L2", 0.3)
    c.add_mutual_inductance("K2", "L2", "L1", -0.2)
    c.add_capacitor("C2", "g", "h", 1e-12)
    c.add_capacitor("C3", "h", "0", 1e-12)
    c.add_current_source("I1", "0", "g", 1e-3)
    c.add_vccs("G3", "b", "a", "c", "c", 1.5)
    c.add_vcvs("E2", "k", "0", "a", "a", 0.0)
    c.add_resistor("R5", "a", "0", 11.0)
    c.add_resistor("R6", "a", "0", 12.0)
    c.add_cccs("F2", "a", "b", "L1", 0.25)
    c.add_resistor("R7", "k", "a", 3.0)
    c.add_resistor("R8", "b", "a", 4.0)
    return c


def _retyped_circuit() -> Circuit:
    """A circuit whose columns were rebuilt: ``replace`` swapped a
    resistor for a capacitor and a capacitor for a resistor in place."""
    c = rc_ladder(6)
    c.replace(Capacitor("R3", "2", "3", 2e-13))
    c.replace(Resistor("C5", "5", "0", 40.0))
    c.set_initial_voltage("C2", 0.25)
    return c


def _stamp_corpus() -> list[tuple[str, Circuit]]:
    circuits = [("every kind", _controlled_circuit()), ("retyped", _retyped_circuit())]
    for path in sorted((ROOT / "tests" / "corpus").glob("*.json")):
        entry = json.loads(path.read_text())
        if "netlist" in entry:
            circuits.append((path.name, parse_netlist(entry["netlist"]).circuit))
    for path in sorted((ROOT / "examples" / "decks").glob("*.sp")):
        circuits.append((path.name, parse_netlist(path.read_text()).circuit))
    for build in (fig4_rc_tree, fig9_grounded_resistor, fig16_stiff_rc_tree,
                  fig22_floating_cap, fig25_rlc_ladder):
        built = build()
        circuits.append((build.__name__, built if isinstance(built, Circuit) else built[0]))
    for name, built in (("random_rc_tree", random_rc_tree(60, seed=3)),
                        ("rc_ladder", rc_ladder(250)), ("rc_mesh", rc_mesh(5, 6)),
                        ("coupled_rc_lines", coupled_rc_lines(8)),
                        ("magnetically_coupled_lines", magnetically_coupled_lines(6)),
                        ("rlc_transmission_ladder", rlc_transmission_ladder(20)),
                        ("clock_h_tree", clock_h_tree(3))):
        circuits.append((name, built if isinstance(built, Circuit) else built[0]))
    for seed in range(0, 240, 3):
        case = generate_case(seed)
        if getattr(case, "circuit", None) is not None:
            circuits.append((f"fuzz seed {seed}", case.circuit))
    return circuits


def _same(a, b) -> bool:
    """Bitwise equality of two dense arrays or two CSR/CSC matrices."""
    if scipy.sparse.issparse(a):
        return (scipy.sparse.issparse(b) and a.format == b.format and a.shape == b.shape
                and a.data.tobytes() == b.data.tobytes()
                and np.array_equal(a.indices, b.indices)
                and np.array_equal(a.indptr, b.indptr))
    return (not scipy.sparse.issparse(b) and a.shape == b.shape
            and a.dtype == b.dtype and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_stamp_is_bitwise_the_per_element_reference(sparse, monkeypatch):
    circuits = _stamp_corpus()
    assert len(circuits) > 80
    for name, circuit in circuits:
        system = MnaSystem(circuit, sparse=sparse)
        with monkeypatch.context() as patch:
            patch.setattr(mna, "_stamp", _reference_stamp)
            patch.setattr(mna, "find_floating_groups", _reference_floating_groups)
            reference = MnaSystem(circuit, sparse=sparse)
        for field in ("G", "C", "B", "G_aug"):
            assert _same(getattr(system, field), getattr(reference, field)), (name, field)
        assert system.floating_groups == reference.floating_groups, name
        assert system.index == reference.index, name


def test_stamp_refuses_what_the_reference_refuses():
    bad = Circuit("bad control")
    bad.add_voltage_source("V1", "a", "0", 1.0)
    bad.add_resistor("R1", "a", "0", 1.0)
    bad.add_cccs("F1", "a", "0", "R1", 2.0)
    bad.add_cccs("F2", "a", "0", "nowhere", 2.0)
    with pytest.raises(ReproError, match="'R1' carries no branch-current"):
        MnaSystem(bad)
    missing = Circuit("missing control")
    missing.add_voltage_source("V1", "a", "0", 1.0)
    missing.add_ccvs("H1", "b", "0", "nowhere", 2.0)
    with pytest.raises(ReproError, match="'nowhere' does not exist"):
        MnaSystem(missing)


# ----------------------------------------------------------------------
# Union-find checks against breadth-first references
# ----------------------------------------------------------------------

_KINDS = ("R", "C", "L", "V", "I", "E", "H")


def _random_circuit(rng: random.Random) -> Circuit:
    """A random graph of R/C/L/V/I/VCVS/CCVS branches over a few nodes."""
    circuit = Circuit("random graph")
    nodes = [GROUND] + [f"n{i}" for i in range(rng.randint(1, 9))]
    for number in range(rng.randint(1, 14)):
        a, b = rng.sample(nodes, 2)
        kind = rng.choice(_KINDS)
        name = f"{kind}{number}"
        if kind == "R":
            circuit.add_resistor(name, a, b, rng.uniform(1, 10))
        elif kind == "C":
            circuit.add_capacitor(name, a, b, 1e-12)
        elif kind == "L":
            circuit.add_inductor(name, a, b, 1e-9)
        elif kind == "V":
            circuit.add_voltage_source(name, a, b, 1.0)
        elif kind == "I":
            circuit.add_current_source(name, a, b, 1e-3)
        elif kind == "E":
            circuit.add_vcvs(name, a, b, rng.choice(nodes), rng.choice(nodes), 2.0)
        else:
            circuit.add_ccvs(name, a, b, name, 2.0)
    return circuit


def _reference_voltage_loop(circuit):
    """The first voltage-defining branch, in circuit order, whose ends the
    earlier ones already join, with the path between them; ``None`` when
    they form a forest."""
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for element in circuit:
        if not isinstance(element, (VoltageSource, VCVS, CCVS, Inductor)):
            continue
        parents = {element.positive: None}
        queue = deque([element.positive])
        while queue:
            node = queue.popleft()
            for neighbour, name in adjacency.get(node, ()):
                if neighbour not in parents:
                    parents[neighbour] = (node, name)
                    queue.append(neighbour)
        if element.negative in parents:
            names, node = {element.name}, element.negative
            while parents[node] is not None:
                node, name = parents[node]
                names.add(name)
            return sorted(names)
        adjacency.setdefault(element.positive, []).append((element.negative, element.name))
        adjacency.setdefault(element.negative, []).append((element.positive, element.name))
    return None


def test_floating_groups_and_voltage_loops_match_bfs():
    rng = random.Random(2024)
    loops = 0
    for _ in range(400):
        circuit = _random_circuit(rng)
        assert MnaSystem(circuit).floating_groups == _reference_floating_groups(circuit)
        loop = _reference_voltage_loop(circuit)
        try:
            validation._check_voltage_loops(circuit)
        except ReproError as exc:
            assert loop is not None
            assert str(exc).endswith(": " + ", ".join(loop))
            loops += 1
        else:
            assert loop is None
    assert loops > 50


def _random_rc_graph(rng: random.Random) -> Circuit:
    """A driven RC net whose resistors may or may not form a tree."""
    circuit = Circuit("rc graph")
    count = rng.randint(1, 8)
    nodes = [f"n{i}" for i in range(count)]
    circuit.add_voltage_source("Vin", nodes[0], "0", 1.0)
    for i in range(1, count):
        circuit.add_resistor(f"R{i}", rng.choice(nodes[:i]), nodes[i], rng.uniform(1, 5))
    for extra in range(rng.choice([0, 0, 1, 2])):
        a, b = rng.sample(nodes + ["x"], 2) if count > 1 else (nodes[0], "x")
        circuit.add_resistor(f"Rx{extra}", a, b, 2.0)
    for i, node in enumerate(circuit.nodes):
        circuit.add_capacitor(f"C{i}", node, "0", 1e-12)
    return circuit


def _reference_rc_tree(circuit):
    """(parent map, children lists, capacitance) by breadth-first search
    from the driven node, or the TopologyError message."""
    root = circuit.voltage_sources[0].positive
    adjacency: dict[str, list] = {}
    pairs = set()
    for r in circuit.resistors:
        if frozenset(r.nodes) in pairs:
            return "parallel resistors form a loop; not an RC tree"
        pairs.add(frozenset(r.nodes))
        adjacency.setdefault(r.positive, []).append((r.negative, r))
        adjacency.setdefault(r.negative, []).append((r.positive, r))
    if root not in adjacency:
        return f"no resistor connects to the driving node {root!r}"
    parent, queue = {}, deque([root])
    while queue:
        node = queue.popleft()
        for neighbour, r in adjacency[node]:
            if neighbour != root and neighbour not in parent:
                parent[neighbour] = (node, r)
                queue.append(neighbour)
    if len(parent) != len(adjacency) - 1 or len(pairs) != len(parent):
        return "resistors form loops or a disconnected graph; not an RC tree"
    children = {node: [] for node in adjacency}
    for node, (above, _) in parent.items():
        children[above].append(node)
    return parent, {node: tuple(kids) for node, kids in children.items()}


def test_rc_tree_check_matches_bfs():
    rng = random.Random(7)
    trees = 0
    for _ in range(300):
        circuit = _random_rc_graph(rng)
        expected = _reference_rc_tree(circuit)
        try:
            tree = analyze_rc_tree(circuit)
        except TopologyError as exc:
            assert str(exc) == expected
        else:
            assert (tree.parent, tree.children) == expected
            assert list(tree.children) == list(expected[1])
            trees += 1
    assert 50 < trees < 300


def _random_treelink_circuit(rng: random.Random) -> Circuit:
    """A connected R/V/C/I circuit: a random resistor tree plus extra
    resistors, sources and capacitors that close loops."""
    circuit = Circuit("tree/link")
    count = rng.randint(2, 9)
    nodes = ["0"] + [f"n{i}" for i in range(1, count)]
    circuit.add_voltage_source("V0", nodes[1], "0", 1.0)
    for i in range(2, count):
        circuit.add_resistor(f"R{i}", rng.choice(nodes[:i]), nodes[i], rng.uniform(1, 5))
    for extra in range(rng.randint(0, 4)):
        a, b = rng.sample(nodes, 2)
        kind = rng.choice("RCVI")
        if kind == "R":
            circuit.add_resistor(f"Rx{extra}", a, b, 3.0)
        elif kind == "C":
            circuit.add_capacitor(f"Cx{extra}", a, b, 1e-12)
        elif kind == "I":
            circuit.add_current_source(f"Ix{extra}", a, b, 1e-3)
    for i in range(1, count):
        circuit.add_capacitor(f"C{i}", nodes[i], "0", 1e-12)
    return circuit


def test_treelink_loops_match_bfs():
    rng = random.Random(11)
    for _ in range(200):
        circuit = _random_treelink_circuit(rng)
        analysis = TreeLinkAnalysis(circuit)
        adjacency: dict[str, list] = {}
        for name, element in analysis.tree_elements.items():
            adjacency.setdefault(element.positive, []).append((element.negative, name))
            adjacency.setdefault(element.negative, []).append((element.positive, name))
        for link in analysis.links:
            parents = {link.negative: None}
            queue = deque([link.negative])
            while queue:
                node = queue.popleft()
                for neighbour, name in adjacency.get(node, ()):
                    if neighbour not in parents:
                        parents[neighbour] = (node, name)
                        queue.append(neighbour)
            steps, node = [], link.positive
            while parents[node] is not None:
                previous, name = parents[node]
                element = analysis.tree_elements[name]
                steps.append((name, 1.0 if element.positive == previous else -1.0))
                node = previous
            assert [(s.branch, s.sign) for s in analysis._loops[link.name]] == steps[::-1]


# ----------------------------------------------------------------------
# Once per state; no networkx
# ----------------------------------------------------------------------


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(circuit):
        calls.append(circuit)
        return original(circuit)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_check_runs_once_per_state(monkeypatch):
    from repro.service import answer

    validated = _counting(monkeypatch, validation, "_validate")
    grouped = _counting(monkeypatch, mna, "_floating_groups")
    deck = (ROOT / "examples" / "decks" / "bus_segment.sp").read_text()
    answer("sweep", {"deck": deck, "node": "a3",
                     "points": [{"element": "Ra1", "scale": 1.2}]})
    assert (len(validated), len(grouped)) == (1, 1)

    circuit = rc_ladder(3)
    for _ in range(3):
        validate_for_analysis(circuit)
        MnaSystem(circuit)
    assert (len(validated), len(grouped)) == (2, 2)
    circuit.add_capacitor("Cx", "1", "2", 1e-15)
    validate_for_analysis(circuit)
    MnaSystem(circuit)
    assert (len(validated), len(grouped)) == (3, 3)
    circuit.replace(Resistor("R2", "1", "2", 7.0))
    validate_for_analysis(circuit)
    validate_for_analysis(circuit)
    circuit.set_initial_voltage("C1", 0.5)
    validate_for_analysis(circuit)
    assert len(validated) == 5

    looped = rc_ladder(2)
    looped.add_voltage_source("V2", "in", "0", 1.0)
    for attempt in range(3):
        with pytest.raises(ReproError, match="form a loop"):
            validate_for_analysis(looped)
    assert len(validated) == 8


def test_a_full_analysis_leaves_networkx_unimported():
    code = (
        "import sys\n"
        "import repro\n"
        "from repro import AweAnalyzer, SweepEngine, parse_netlist\n"
        "from repro.circuit import analyze_rc_tree, validate_for_analysis\n"
        "from repro.papercircuits import fig4_rc_tree\n"
        "from repro.rctree.treelink import treelink_elmore_delays\n"
        f"deck = parse_netlist(open({str(ROOT / 'examples/decks/pcb_trace.sp')!r}).read())\n"
        "AweAnalyzer(deck.circuit, deck.stimuli).response('t6').delay_50()\n"
        "tree = fig4_rc_tree()\n"
        "analyze_rc_tree(tree); treelink_elmore_delays(tree, 5.0)\n"
        "SweepEngine(tree).evaluate\n"
        "print('networkx' in sys.modules)\n"
    )
    output = subprocess.run([sys.executable, "-c", code], check=True,
                            capture_output=True, text=True,
                            env={"PYTHONPATH": str(ROOT / "src")}).stdout
    assert output.strip() == "False"


def _parse_value_oracle(text: str) -> float:
    """The value pattern alone, without the plain-number fast path."""
    from repro.circuit.units import _SUFFIX_SCALE, _VALUE_RE

    match = _VALUE_RE.match(text)
    if match is None:
        raise NetlistParseError(f"cannot parse value {text!r}")
    number = float(match.group("number"))
    suffix = match.group("suffix").lower()
    if not suffix:
        return number
    if suffix.startswith("meg"):
        return number * _SUFFIX_SCALE["meg"]
    scale = _SUFFIX_SCALE.get(suffix[0])
    return number if scale is None else number * scale


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet="0123456789.eE+-_ kKmMgGfFpPnNuU\t²١x", max_size=10),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.builds(lambda a, b, c: f"{a}{b}{c}", st.sampled_from(["", " ", "+", "-"]),
              st.floats(min_value=0, max_value=1e30).map(repr),
              st.sampled_from(["", " ", "k", "meg", "pF", "1"])),
))
def test_parse_value_matches_the_pattern(text):
    from repro.circuit.units import parse_value

    def outcome(function):
        try:
            return ("ok", repr(function(text)))
        except NetlistParseError as exc:
            return ("error", str(exc))

    assert outcome(parse_value) == outcome(_parse_value_oracle)
