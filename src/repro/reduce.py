"""Topology-level RC-chain pre-reduction.

Long series RC runs — the dominant structure of extracted interconnect
(and the entire circuit for a transmission-line model) — carry far more
nodes than dynamics.  This module collapses every maximal degree-2
series RC chain (found by
:func:`repro.circuit.topology.series_rc_chains`) into one equivalent
compact section *before* MNA stamping, shrinking the system the sparse
solver factorises without touching any node an analysis can observe.

The collapse and what it preserves
----------------------------------
A chain between retained anchors ``A`` and ``B`` with series resistors
``R₁ … R_{m+1}`` and grounded caps ``C₁ … C_m`` at its interior nodes is
replaced by a single resistor ``R_total = Σ Rᵢ`` from ``A`` to ``B``
plus the classic pi split of the chain's capacitance:

.. math::

    C_A = \\sum_j C_j\\,(1 - r_j/R_\\text{total}), \\qquad
    C_B = \\sum_j C_j\\,r_j/R_\\text{total}

where ``r_j`` is the chain resistance from ``A`` to interior node ``j``.
This is exact for:

* **total resistance and total capacitance** (``C_A + C_B = Σ C_j``) —
  except that a cap re-homed onto an anchor whose voltage is pinned by
  an ideal source (V/VCVS/CCVS terminal) is dropped: it is electrically
  inert for every node response there, and keeping it would put a
  capacitor in parallel with the source and make the bordered t = 0⁺
  system singular.  (Driving-point admittance moments seen *by that
  source* are therefore not preserved; node responses are.)
* **the first moment (Elmore delay) at every retained node.**  An
  interior cap ``C_j`` contributes ``C_j · R_shared(j, n)`` to the
  Elmore delay of any retained node ``n``, where the shared resistance
  from the driving source splits through the chain linearly in ``r_j``
  — so re-homing its charge to the anchors with weights
  ``(1 − r_j/R_total, r_j/R_total)`` reproduces every such term exactly
  (the superposition the paper's Sec. 4 Elmore discussion is built on).

Higher moments are approximated — the chain's internal diffusion is
replaced by a single lumped section — so reduced poles and delays agree
with the unreduced circuit only to a bound, which the conformance
family ``long_chain`` (check ``reduction_equivalence``) enforces.

Interior nodes are only collapsed when *nothing* else observes them: no
sources, inductors, controlled sources or control ports, no floating or
initial-condition-carrying capacitors, and no ``keep`` (tap) node.
Chains *anchored* at a node that touches an IC-carrying or floating
capacitor are also left alone: re-homing a cap there would close a
capacitive loop whose implied t = 0⁺ voltage contradicts the new cap's
implicit 0 V initial condition.
A circuit with no collapsible chain is returned unchanged, as the same
object, so ``Reduction.circuit is circuit`` (and hence every content
hash) is preserved exactly for no-op reductions.
"""

from __future__ import annotations

import dataclasses

from repro.circuit.elements import (
    CCVS,
    GROUND,
    VCVS,
    Capacitor,
    Resistor,
    VoltageSource,
)
from repro.circuit.netlist import Circuit
from repro.circuit.topology import SeriesRcChain, series_rc_chains

#: Maximum interior nodes collapsed into one compact section.  A single
#: pi section lumps a length-m chain's internal diffusion entirely and
#: mis-states the 50 % delay by up to ~9 % (the classic lumped-line
#: limit); the error falls roughly as 1/k² in the section count, so 8
#: interior nodes per section keeps reduced delays within ~0.1 % of the
#: unreduced circuit while still shrinking long chains ~9x.
_SECTION_NODES = 8


@dataclasses.dataclass(frozen=True)
class Reduction:
    """The outcome of :func:`reduce_circuit`.

    ``circuit`` is the reduced circuit — the *original object* when
    nothing was collapsible.  ``removed_nodes`` lists every collapsed
    interior node; ``chains`` the collapsed runs themselves.
    """

    circuit: Circuit
    removed_nodes: tuple[str, ...]
    chains: tuple[SeriesRcChain, ...]
    original_node_count: int
    reduced_node_count: int

    @property
    def reduced(self) -> bool:
        """True when at least one chain was collapsed."""
        return bool(self.removed_nodes)


def reduce_circuit(
    circuit: Circuit, keep: tuple = (), max_section: int = _SECTION_NODES
) -> Reduction:
    """Collapse every maximal series RC chain not observed by ``keep``.

    Parameters
    ----------
    circuit:
        The circuit to reduce; never mutated.
    keep:
        Nodes that must survive (analysis taps).  Ground, source nodes,
        inductor/controlled-source terminals, control ports and floating
        capacitor nodes are always kept.
    max_section:
        Most interior nodes lumped into one compact section; longer
        chains are split at evenly spaced retained nodes first, bounding
        the higher-moment approximation error (see module docs).

    Returns
    -------
    Reduction
        With ``circuit is`` the input object when nothing collapsed.
    """
    if max_section < 1:
        raise ValueError(f"max_section must be >= 1, got {max_section}")
    chains = tuple(
        sub
        for chain in series_rc_chains(circuit, keep=tuple(keep))
        for sub in _split_chain(chain, max_section)
    )
    chains = tuple(chain for chain in chains if chain.interior)
    if not chains:
        count = circuit.node_count
        return Reduction(circuit, (), (), count, count)

    removed_elements: set[str] = set()
    removed_nodes: list[str] = []
    # The replacement elements are emitted where the chain's first
    # removed element sat, so reduction keeps element locality (and is
    # deterministic for any input order).
    insertion_order = {e.name: i for i, e in enumerate(circuit)}
    # Anchors whose voltage is pinned by an ideal source: a cap re-homed
    # there would be electrically inert for every node response (zero
    # shared resistance with any observation path) yet make the bordered
    # t = 0⁺ system singular, so it is dropped instead.
    pinned = {
        end
        for element in circuit
        if isinstance(element, (VoltageSource, VCVS, CCVS))
        for end in (element.positive, element.negative)
    }
    # Anchors already touching an IC-carrying or floating capacitor must
    # not receive a re-homed cap: the new grounded cap would close a
    # capacitive loop through the existing one, and its implicit 0 V
    # initial condition contradicts the loop's implied voltage at t = 0⁺.
    # Dropping the cap instead would break first-moment exactness, so the
    # whole chain is left uncollapsed.
    sensitive = {
        end
        for element in circuit
        if isinstance(element, Capacitor)
        and (element.initial_voltage is not None or not element.is_grounded)
        for end in (element.positive, element.negative)
    }

    def hazardous(anchor: str) -> bool:
        return anchor in sensitive and anchor != GROUND and anchor not in pinned

    chains = tuple(
        chain for chain in chains
        if not (hazardous(chain.anchor_a) or hazardous(chain.anchor_b))
    )
    if not chains:
        count = circuit.node_count
        return Reduction(circuit, (), (), count, count)
    replacements: dict[str, list] = {}
    for chain in chains:
        names = [r.name for r in chain.resistors]
        names += [c.name for caps in chain.capacitors for c in caps]
        removed_elements.update(names)
        removed_nodes.extend(chain.interior)
        trigger = min(names, key=insertion_order.__getitem__)
        replacements[trigger] = _collapse(circuit, chain, pinned)

    reduced = Circuit(circuit.title)
    for element in circuit:
        if element.name in replacements:
            reduced.extend(replacements[element.name])
        elif element.name not in removed_elements:
            reduced.add(element)
    for coupling in circuit.mutual_inductances:
        reduced.add_mutual_inductance(
            coupling.name, coupling.inductor_a, coupling.inductor_b,
            coupling.coupling,
        )
    return Reduction(
        reduced,
        tuple(removed_nodes),
        chains,
        circuit.node_count,
        reduced.node_count,
    )


def _split_chain(chain: SeriesRcChain, max_section: int) -> list[SeriesRcChain]:
    """Split a long chain at evenly spaced interior nodes.

    The separators become retained anchors (their own caps survive as
    original elements); each piece then lumps at most ``max_section``
    interior nodes, which bounds the single-section approximation error.
    """
    m = len(chain.interior)
    if m <= max_section:
        return [chain]
    k = -(-m // max_section)  # ceil
    boundaries = [-1] + [(j * m) // k for j in range(1, k)] + [m]
    pieces = []
    for p, q in zip(boundaries[:-1], boundaries[1:]):
        pieces.append(SeriesRcChain(
            anchor_a=chain.anchor_a if p == -1 else chain.interior[p],
            anchor_b=chain.anchor_b if q == m else chain.interior[q],
            interior=chain.interior[p + 1:q],
            resistors=chain.resistors[p + 1:q + 1],
            capacitors=chain.capacitors[p + 1:q],
        ))
    return pieces


def _collapse(circuit: Circuit, chain: SeriesRcChain, pinned: set) -> list:
    """The compact equivalent section for one chain (see module docs)."""
    r_total = chain.total_resistance
    c_a = 0.0
    c_b = 0.0
    r_cumulative = 0.0
    for resistor, caps in zip(chain.resistors, chain.capacitors):
        r_cumulative += resistor.resistance
        weight = r_cumulative / r_total
        for cap in caps:
            c_a += cap.capacitance * (1.0 - weight)
            c_b += cap.capacitance * weight
    elements: list = [
        Resistor(chain.resistors[0].name, chain.anchor_a, chain.anchor_b,
                 r_total)
    ]
    cap_names = [c.name for caps in chain.capacitors for c in caps]
    used: set[str] = set()

    def cap_name(preferred: str) -> str:
        name = preferred
        while name in circuit and name not in cap_names or name in used:
            name += "_r"
        used.add(name)
        return name

    if c_a > 0.0 and chain.anchor_a != GROUND and chain.anchor_a not in pinned:
        elements.append(
            Capacitor(cap_name(cap_names[0]), chain.anchor_a, GROUND, c_a)
        )
    if c_b > 0.0 and chain.anchor_b != GROUND and chain.anchor_b not in pinned:
        elements.append(
            Capacitor(cap_name(cap_names[-1]), chain.anchor_b, GROUND, c_b)
        )
    return elements


def reduction_summary(reduction: Reduction) -> dict:
    """A JSON-friendly description (used by traces, the CLI and docs)."""
    return {
        "reduced": reduction.reduced,
        "original_nodes": reduction.original_node_count,
        "reduced_nodes": reduction.reduced_node_count,
        "removed_nodes": len(reduction.removed_nodes),
        "chains": len(reduction.chains),
    }


__all__ = ["Reduction", "reduce_circuit", "reduction_summary"]
