"""Seeded input generators owned by the benchmark.

Every input the program sees is produced here from the workload seed and
handed over as bytes: SPICE deck text, design JSON, sweep plans and the
``serve`` request schedule.  Nothing here imports ``repro``, so a change
to the program's own generators (``repro.papercircuits``, the load
generator, the test strategies) cannot move the yardstick.

Only the standard library's ``random.Random`` is used, so one seed gives
the same bytes on every platform and Python release the benchmark runs on.
"""

from __future__ import annotations

import dataclasses
import json
import random

#: Internal nodes of one ``bignet`` net.
BIGNET_NODES = 10_000

#: Nets per ``bignet`` seed, in request order: chain-dominated ladders are
#: analysed with ``reduce`` on, branchy trees with it off.
BIGNET_KINDS = ("ladder", "tree")

#: Output taps per ``bignet`` net.
BIGNET_TAPS = 4

#: AWE order of ``bignet`` analyze requests, by net kind.  Automatic
#: escalation is measured by ``sta``; here a fixed order keeps every
#: request answerable: order 2 on ladders, and order 1 (the
#: Penfield-Rubinstein model, paper Sec. IV) on branchy trees, whose
#: order-2 fits can put a pole in the right half-plane.
BIGNET_ORDER = {"ladder": 2, "tree": 1}

#: Taps per ``bignet`` what-if request, and sweep points per tap.
BIGNET_SWEEP_TAPS = 2
BIGNET_SWEEP_POINTS = 8


def _num(value: float) -> str:
    return f"{value:.6g}"


@dataclasses.dataclass(frozen=True)
class TreeNet:
    """An RC tree as the generator built it, plus its deck text.

    ``parent[i]`` is the parent of node ``n{i}`` (``-1`` for ``n0``, which
    hangs off the driver resistor), ``r[i]`` the resistor into ``n{i}`` and
    ``c[i]`` its grounded capacitor.  The arrays let the correctness gate
    compute Elmore delays and Penfield-Rubinstein bounds by its own tree
    walk, independently of the program.
    """

    name: str
    kind: str
    deck: str
    taps: tuple[str, ...]
    parent: tuple[int, ...]
    r: tuple[float, ...]
    c: tuple[float, ...]
    r_drive: float
    swing: float
    reduce: bool
    sweep_elements: tuple[str, ...]


def _ladder_topology(rng: random.Random, n: int):
    """A long main chain with a few short side stubs near its far end
    (extracted-wire shape): one unbroken run holds about 90 % of the
    nodes, which is what the reduction pre-pass collapses."""
    parent = [-1]
    stubs = 8
    stub_len = max(1, n // 100)
    main = n - stubs * stub_len
    for i in range(1, main):
        parent.append(i - 1)
    ends = []
    for s in range(stubs):
        parent.append(rng.randrange(main - main // 20, main))
        for _ in range(stub_len - 1):
            parent.append(len(parent) - 1)
        ends.append(len(parent) - 1)
    taps = [main - 1, main // 2] + ends[: BIGNET_TAPS - 2]
    return parent, taps


def _tree_topology(rng: random.Random, n: int):
    """A branchy extracted tree: wire branches of 100 nodes, each starting
    at a random node of the tree grown so far.  Equal branch lengths keep
    the work per net nearly independent of the seed."""
    parent = [-1]
    while len(parent) < n:
        length = min(100, n - len(parent))
        parent.append(rng.randrange(0, len(parent)))
        for _ in range(length - 1):
            parent.append(len(parent) - 1)
    # Taps at a few of the deepest leaves and one mid-depth node.
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    has_child = [False] * n
    for i in range(1, n):
        has_child[parent[i]] = True
    leaves = sorted((i for i in range(n) if not has_child[i]),
                    key=lambda i: (-depth[i], i))
    taps = leaves[: BIGNET_TAPS - 1] + [
        min(range(n), key=lambda i: (abs(depth[i] - depth[leaves[0]] // 2), i))]
    return parent, taps


def bignet_net(seed: int, index: int) -> TreeNet:
    """One large RC net of :data:`BIGNET_NODES` nodes for ``seed``."""
    kind = BIGNET_KINDS[index % len(BIGNET_KINDS)]
    rng = random.Random(f"bignet/{seed}/{index}")
    n = BIGNET_NODES
    if kind == "ladder":
        parent, taps = _ladder_topology(rng, n)
        r = [rng.uniform(0.5, 2.0) for _ in range(n)]
        c = [rng.uniform(0.5e-15, 2e-15) for _ in range(n)]
    else:
        parent, taps = _tree_topology(rng, n)
        r = [rng.uniform(1.0, 20.0) for _ in range(n)]
        c = [rng.uniform(0.5e-15, 3e-15) for _ in range(n)]
    r_drive = rng.uniform(50.0, 200.0)
    swing = 1.0
    name = f"bignet {kind} seed={seed} net={index}"
    lines = [name, f"Vin in 0 STEP(0 {_num(swing)})",
             f"Rdrv in n0 {_num(r_drive)}"]
    for i in range(n):
        if i > 0:
            lines.append(f"R{i} n{parent[i]} n{i} {_num(r[i])}")
        lines.append(f"C{i} n{i} 0 {_num(c[i])}")
    lines.append(".end")
    # n0's own resistor is Rdrv; keep r[0] = r_drive so the tree walk and
    # the deck agree on every path resistance.
    r[0] = float(_num(r_drive))
    r = [float(_num(v)) for v in r]
    c = [float(_num(v)) for v in c]
    elements = [f"R{rng.randrange(1, n)}" for _ in range(4)]
    elements += [f"C{rng.randrange(0, n)}" for _ in range(3)]
    return TreeNet(
        name=name, kind=kind, deck="\n".join(lines) + "\n",
        taps=tuple(f"n{t}" for t in taps), parent=tuple(parent),
        r=tuple(r), c=tuple(c), r_drive=float(_num(r_drive)), swing=swing,
        reduce=kind == "ladder", sweep_elements=tuple(elements),
    )


def sweep_points(rng: random.Random, elements, count: int) -> list[dict]:
    """A mix of small (gradient-tier), large (rank-1) and source points."""
    points = []
    for k in range(count):
        element = elements[k % len(elements)]
        if k % 5 == 4:
            points.append({"element": "Vin", "value": rng.choice((0.9, 1.1)),
                           "scale": None, "label": f"p{k}"})
        elif k % 2 == 0:
            points.append({"element": element,
                           "scale": round(rng.uniform(0.985, 1.015), 6),
                           "value": None, "label": f"p{k}"})
        else:
            points.append({"element": element,
                           "scale": round(rng.uniform(1.3, 2.5), 6),
                           "value": None, "label": f"p{k}"})
    return points


def bignet_sweep_plans(net: TreeNet, seed: int, index: int) -> list[dict]:
    """One ``SweepPlan`` payload per tap of ``net``."""
    rng = random.Random(f"bignet-sweep/{seed}/{index}")
    return [
        {"node": tap, "mode": "auto", "first_order_threshold": 0.05,
         "error_bound": 1e-3,
         "points": sweep_points(rng, net.sweep_elements, BIGNET_SWEEP_POINTS)}
        for tap in net.taps[:BIGNET_SWEEP_TAPS]
    ]


# ----------------------------------------------------------------------
# sta: small gate-level designs with RC-wired nets
# ----------------------------------------------------------------------

#: Net counts of the stratified blocks of ``sta`` designs, used in turn:
#: every block holds each of its sizes once, in a seeded order, and both
#: blocks average 42.5 nets, so the size mix of a run does not depend on
#: the seed.
STA_BLOCKS = ((25, 40, 45, 60), (30, 35, 50, 55))

#: Cells of the program's built-in demo library, by input pins.
STA_CELLS = (("INV_X1", ("A",)), ("INV_X4", ("A",)), ("BUF_X2", ("A",)),
             ("NAND2_X1", ("A", "B")), ("NOR2_X1", ("A", "B")))

#: The two analysis corners every ``sta`` design is run at.
STA_CORNERS = (
    {"name": "slow", "wire_r": 1.25, "wire_c": 1.1, "cell": 1.15},
    {"name": "fast", "wire_r": 0.85, "wire_c": 0.9, "cell": 0.9},
)

#: Critical paths reported per corner.
STA_K = 3

#: Plain wire nodes per net (inclusive range), for daisy-chain wiring and
#: for branchy RC-tree wiring.
STA_INTERIOR = {False: (0, 0), True: (1, 6)}

#: Most sinks (instance pins and output ports) on one net.  A daisy-chain
#: net then has at most three capacitive nodes, so the escalation's
#: highest reference fit is order 3, which resolves three real poles.
#: Fits of order 4 and up on longer chains resolve poles that carry next
#: to no charge; their roots can come out as a complex pair whose energy
#: integral keeps a roundoff imaginary part, and the program raises
#: ArithmeticError (seen in about 1 of 250 designs with unbounded fanout).
#: That failure is measured by the probe, not by the timed workload.
STA_FANOUT = 3


def _segment(rng: random.Random, a: str, b: str) -> dict:
    return {"a": a, "b": b,
            "resistance": round(rng.uniform(20.0, 300.0), 3),
            "capacitance": round(rng.uniform(2e-15, 20e-15), 18)}


def _wire(rng: random.Random, sinks: list[str], net: str, interior: int,
          branchy: bool) -> list[dict]:
    """RC wiring from ``root`` that taps every sink endpoint.

    The default is a daisy chain: an unbranched RC line through the
    sinks with ``interior`` plain wire nodes spread between them.  With
    ``branchy`` each node instead hangs off a random earlier node, a
    random RC tree.
    """
    stops = [f"{net}_w{j}" for j in range(interior)] + list(sinks)
    rng.shuffle(stops)
    nodes = ["root"]
    segments = []
    for stop in stops:
        anchor = rng.choice(nodes) if branchy else nodes[-1]
        segments.append(_segment(rng, anchor, stop))
        nodes.append(stop)
    return segments


def sta_design(seed: int, index: int, nets: int,
               branchy: bool = False) -> dict:
    """A random levelised design with exactly ``nets`` nets.

    Inputs drive the first nets; every instance output drives one new
    net; instance inputs read earlier nets with fewer than
    :data:`STA_FANOUT` sinks, so the timing graph is acyclic.  Nets left
    without a sink feed output ports.  Wires are daisy chains unless
    ``branchy`` (see :func:`_wire`).
    """
    rng = random.Random(f"sta/{seed}/{index}/{nets}")
    n_inputs = max(2, nets // 8)
    inputs = [{"name": f"i{k}", "net": f"x{k}",
               "arrival": round(rng.uniform(0.0, 20e-12), 15),
               "slew": round(rng.uniform(5e-12, 40e-12), 15),
               "drive_resistance": round(rng.uniform(50.0, 400.0), 3)}
              for k in range(n_inputs)]
    net_names = [f"x{k}" for k in range(n_inputs)]
    sinks: dict[str, list[str]] = {name: [] for name in net_names}
    instances = []
    for k in range(nets - n_inputs):
        cell, pins = rng.choice(STA_CELLS)
        inst = f"u{k}"
        out = f"y{k}"
        connections = {"Y": out}
        # Prefer recent nets (deep paths) but reach back occasionally.
        # Every instance adds a free net and takes at most two slots, so
        # some net always has room.
        for pin in pins:
            open_nets = [name for name in net_names
                         if len(sinks[name]) < STA_FANOUT]
            pool = open_nets[-6:] if rng.random() < 0.8 else open_nets
            source = rng.choice(pool)
            connections[pin] = source
            sinks[source].append(f"{inst}.{pin}")
        instances.append({"name": inst, "cell": cell,
                          "connections": connections})
        net_names.append(out)
        sinks[out] = []
    outputs = []
    for name in net_names:
        if not sinks[name] or (name.startswith("y") and rng.random() < 0.1
                               and len(sinks[name]) < STA_FANOUT):
            port = f"o{len(outputs)}"
            outputs.append({"name": port, "net": name,
                            "required": round(rng.uniform(150e-12, 600e-12), 15),
                            "load": round(rng.uniform(2e-15, 10e-15), 18)})
            sinks[name].append(port)
    net_list = [{"name": name,
                 "segments": _wire(rng, sinks[name], name,
                                   rng.randint(*STA_INTERIOR[branchy]),
                                   branchy)}
                for name in net_names]
    return {"name": f"sta_s{seed}_d{index}", "inputs": inputs,
            "outputs": outputs, "instances": instances, "nets": net_list}


def sta_request(design: dict, k: int = STA_K, corners=STA_CORNERS) -> dict:
    """The ``/sta`` request body for one design."""
    return {"design": design, "k": k, "corners": [dict(c) for c in corners],
            "interconnect": "awe"}


def sta_block_sizes(seed: int, block: int) -> list[int]:
    """The net counts of one block of designs, in a seeded order.  The
    run's first design, the one ``setup_s`` includes, always has 40 nets."""
    sizes = list(STA_BLOCKS[block % len(STA_BLOCKS)])
    random.Random(f"sta-block/{seed}/{block}").shuffle(sizes)
    if block == 0:
        sizes.remove(40)
        sizes.insert(0, 40)
    return sizes


# ----------------------------------------------------------------------
# serve: the request schedule
# ----------------------------------------------------------------------

#: Chance that a small deck's next node continues the current run rather
#: than branching off an earlier one.
BRANCH_KEEP = 0.9


def small_tree_deck(rng: random.Random, label: str, nodes: int) -> tuple[str, list[str]]:
    """A small RC tree deck with a PWL driver and its three deepest taps."""
    parent = [-1]
    for i in range(1, nodes):
        parent.append(i - 1 if rng.random() < BRANCH_KEEP
                      else rng.randrange(max(0, i - 6), i))
    depth = [0] * nodes
    for i in range(1, nodes):
        depth[i] = depth[parent[i]] + 1
    rise = rng.uniform(20e-12, 100e-12)
    lines = [f"serve {label}", f"Vin in 0 PWL(0 0 {_num(rise)} 1)",
             f"Rdrv in n0 {_num(rng.uniform(50.0, 300.0))}"]
    for i in range(nodes):
        if i > 0:
            lines.append(f"R{i} n{parent[i]} n{i} {_num(rng.uniform(10.0, 200.0))}")
        lines.append(f"C{i} n{i} 0 {_num(rng.uniform(5e-15, 60e-15))}")
    lines.append(".end")
    taps = sorted(range(nodes), key=lambda i: (-depth[i], i))[:3]
    return "\n".join(lines) + "\n", [f"n{t}" for t in taps]


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One scheduled request: endpoint, body bytes, and its mix class."""

    path: str
    body: bytes
    kind: str       # "fresh", "hot", "sta" or "sweep"


def _analyze_body(deck: str, taps: list[str]) -> bytes:
    # Order 2 is the paper's usual RC-net order; the fixed order keeps
    # this workload off the escalation path, whose cost belongs to sta.
    return json.dumps({"deck": deck, "nodes": taps, "order": 2},
                      sort_keys=True).encode()


#: Requests per round: the connection count of the ``serve`` workload.
SERVE_ROUND = 2

#: One block of the ``serve`` mix, in rounds.  The ``/analyze`` stream
#: has the shape of the program's own ``mixed`` load (``repro loadgen``):
#: a round of distinct fresh keys alternates with a hot round, copies of
#: one new key sent back to back, each round as wide as the connection
#: count.  The first copy of a hot key computes; the others coalesce with
#: it or hit the cache.  The two sibling endpoints, ``/sweep`` and
#: ``/sta``, get one request each per such pair of rounds, so every
#: endpoint of the service is in every block.  Shares: 1/3 fresh, 1/3
#: hot, 1/6 ``/sweep``, 1/6 ``/sta``.  Every block holds exactly these,
#: in a seeded order, so the mix of a run does not depend on the seed.
SERVE_BLOCK = (("fresh",) * SERVE_ROUND, ("hot",) * SERVE_ROUND,
               ("sweep",), ("sta",))

#: Requests per block.
SERVE_BLOCK_SIZE = sum(len(unit) for unit in SERVE_BLOCK)

#: Node counts of the ``/analyze`` decks, fresh and hot alike, used in
#: turn so that every run sends the same sizes whatever its seed.
SERVE_ANALYZE_NODES = (20, 24, 28, 32, 36, 40)


def serve_schedule(seed: int, count: int) -> list[ServeRequest]:
    """``count`` requests in blocks of :data:`SERVE_BLOCK`.  Only the
    copies of a hot round repeat a body; every other body is new."""
    rng = random.Random(f"serve/{seed}")
    schedule: list[ServeRequest] = []
    decks = 0
    while len(schedule) < count:
        block = list(SERVE_BLOCK)
        rng.shuffle(block)
        for unit in block:
            kind = unit[0]
            label = f"{kind}{seed}-{len(schedule)}"
            if kind == "sta":
                design = sta_design(seed, 1_000_000 + len(schedule), 3)
                body = sta_request(design, k=1, corners=STA_CORNERS[:1])
                schedule.append(ServeRequest(
                    "/sta", json.dumps(body, sort_keys=True).encode(), kind))
            elif kind == "sweep":
                deck, taps = small_tree_deck(rng, label, 30)
                elements = [f"R{rng.randrange(1, 30)}" for _ in range(3)]
                elements += [f"C{rng.randrange(0, 30)}" for _ in range(2)]
                body = {"deck": deck, "node": taps[0], "mode": "auto",
                        "first_order_threshold": 0.05, "error_bound": 1e-3,
                        "points": sweep_points(rng, elements, 6)}
                schedule.append(ServeRequest(
                    "/sweep", json.dumps(body, sort_keys=True).encode(), kind))
            else:
                # A hot round sends one deck len(unit) times; a fresh
                # round sends len(unit) decks once each.
                for _ in range(1 if kind == "hot" else len(unit)):
                    nodes = SERVE_ANALYZE_NODES[decks % len(SERVE_ANALYZE_NODES)]
                    decks += 1
                    body = _analyze_body(*small_tree_deck(
                        rng, f"{label}-{decks}", nodes))
                    copies = len(unit) if kind == "hot" else 1
                    schedule.extend([ServeRequest("/analyze", body, kind)]
                                    * copies)
    return schedule[:count]
