"""The :class:`Circuit` container: a named collection of elements and nodes.

A circuit is built either programmatically (``ckt.add_resistor("R1", "1",
"2", 100.0)``) or by parsing a SPICE-style deck
(:func:`repro.circuit.parser.parse_netlist`).  The container assigns a
stable integer index to every non-ground node in insertion order, tracks
which elements carry MNA branch-current unknowns, and offers convenience
queries used throughout the analysis layers.

The container itself performs only local validation (duplicate names,
self-loops via the element constructors); global structural checks live in
:mod:`repro.circuit.validation` and are run by the analysis entry points.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.circuit.elements import (
    CCCS,
    CCVS,
    GROUND,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    Resistor,
    VoltageSource,
    canonical_node,
)
from repro.errors import CircuitError


class Circuit:
    """An ordered collection of linear circuit elements.

    Parameters
    ----------
    title:
        Free-form description used in reports and benchmark output.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self._elements: dict[str, Element] = {}
        self._node_index: dict[str, int] = {}
        self._couplings: dict[str, "MutualInductance"] = {}

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise KeyError(f"no element named {name!r} in circuit {self.title!r}") from None

    def __repr__(self) -> str:
        return (
            f"Circuit({self.title!r}, {len(self._elements)} elements, "
            f"{self.node_count} nodes)"
        )

    # ------------------------------------------------------------------
    # Element insertion
    # ------------------------------------------------------------------

    def add(self, element: Element) -> Element:
        """Add a pre-built element; returns it for chaining.

        Raises :class:`~repro.errors.CircuitError` on a duplicate name.
        """
        if element.name in self._elements:
            raise CircuitError(f"duplicate element name {element.name!r}")
        self._register_node(element.positive)
        self._register_node(element.negative)
        for attr in ("ctrl_positive", "ctrl_negative"):
            node = getattr(element, attr, None)
            if node is not None:
                self._register_node(node)
        self._elements[element.name] = element
        return element

    def extend(self, elements: Iterable[Element]) -> None:
        """Add several elements in order."""
        for element in elements:
            self.add(element)

    def _register_node(self, name: str) -> None:
        if name != GROUND and name not in self._node_index:
            self._node_index[name] = len(self._node_index)

    # Convenience constructors ------------------------------------------------

    def add_resistor(self, name: str, positive, negative, resistance: float) -> Resistor:
        """Add a resistor of ``resistance`` ohms between two nodes."""
        return self.add(Resistor(name, positive, negative, resistance))

    def add_capacitor(
        self,
        name: str,
        positive,
        negative,
        capacitance: float,
        initial_voltage: float | None = None,
    ) -> Capacitor:
        """Add a capacitor of ``capacitance`` farads; optionally set its
        t = 0 voltage for nonequilibrium (charge-sharing) analyses."""
        return self.add(Capacitor(name, positive, negative, capacitance, initial_voltage))

    def add_inductor(
        self,
        name: str,
        positive,
        negative,
        inductance: float,
        initial_current: float | None = None,
    ) -> Inductor:
        """Add an inductor of ``inductance`` henries."""
        return self.add(Inductor(name, positive, negative, inductance, initial_current))

    def add_voltage_source(
        self, name: str, positive, negative, dc: float = 0.0, dc0: float = 0.0
    ) -> VoltageSource:
        """Add an independent voltage source (``dc`` = value for t >= 0,
        ``dc0`` = value before switching, for the pre-transition state)."""
        return self.add(VoltageSource(name, positive, negative, dc, dc0))

    def add_current_source(
        self, name: str, positive, negative, dc: float = 0.0, dc0: float = 0.0
    ) -> CurrentSource:
        """Add an independent current source."""
        return self.add(CurrentSource(name, positive, negative, dc, dc0))

    def add_vccs(self, name, positive, negative, ctrl_positive, ctrl_negative, gain) -> VCCS:
        """Add a voltage-controlled current source with transconductance ``gain``."""
        return self.add(VCCS(name, positive, negative, gain, ctrl_positive, ctrl_negative))

    def add_vcvs(self, name, positive, negative, ctrl_positive, ctrl_negative, gain) -> VCVS:
        """Add a voltage-controlled voltage source with voltage gain ``gain``."""
        return self.add(VCVS(name, positive, negative, gain, ctrl_positive, ctrl_negative))

    def add_cccs(self, name, positive, negative, control_element, gain) -> CCCS:
        """Add a current-controlled current source (control element must carry
        a branch current: a voltage source or inductor)."""
        return self.add(CCCS(name, positive, negative, gain, control_element))

    def add_ccvs(self, name, positive, negative, control_element, gain) -> CCVS:
        """Add a current-controlled voltage source (transresistance ``gain``)."""
        return self.add(CCVS(name, positive, negative, gain, control_element))

    def add_mutual_inductance(
        self, name: str, inductor_a: str, inductor_b: str, coupling: float
    ) -> "MutualInductance":
        """Magnetically couple two inductors with coefficient ``coupling``
        (|k| < 1; M = k·√(L_a·L_b))."""
        from repro.circuit.elements import Inductor, MutualInductance

        if name in self._elements or name in self._couplings:
            raise CircuitError(f"duplicate element name {name!r}")
        for inductor_name in (inductor_a, inductor_b):
            if inductor_name not in self._elements or not isinstance(
                self._elements[inductor_name], Inductor
            ):
                raise CircuitError(
                    f"mutual inductance {name!r}: {inductor_name!r} is not an "
                    "inductor in this circuit"
                )
        coupling_element = MutualInductance(name, inductor_a, inductor_b, coupling)
        self._couplings[name] = coupling_element
        return coupling_element

    @property
    def mutual_inductances(self) -> list["MutualInductance"]:
        """The magnetic couplings (not part of the element iteration)."""
        return list(self._couplings.values())

    # ------------------------------------------------------------------
    # Node bookkeeping
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of non-ground nodes."""
        return len(self._node_index)

    @property
    def nodes(self) -> list[str]:
        """Non-ground node names in index order."""
        return sorted(self._node_index, key=self._node_index.__getitem__)

    def node_index(self, name: str | int) -> int:
        """Index of a non-ground node in the MNA vector ordering."""
        canonical = canonical_node(name)
        if canonical == GROUND:
            raise CircuitError("the ground node has no index")
        try:
            return self._node_index[canonical]
        except KeyError:
            raise CircuitError(f"unknown node {name!r}") from None

    def has_node(self, name: str | int) -> bool:
        """True if the node appears in the circuit (ground always does)."""
        canonical = canonical_node(name)
        return canonical == GROUND or canonical in self._node_index

    # ------------------------------------------------------------------
    # Typed element views
    # ------------------------------------------------------------------

    def elements_of_type(self, *types: type) -> list[Element]:
        """All elements whose type is one of ``types``, in insertion order."""
        return [e for e in self._elements.values() if isinstance(e, types)]

    @property
    def resistors(self) -> list[Resistor]:
        return self.elements_of_type(Resistor)

    @property
    def capacitors(self) -> list[Capacitor]:
        return self.elements_of_type(Capacitor)

    @property
    def inductors(self) -> list[Inductor]:
        return self.elements_of_type(Inductor)

    @property
    def voltage_sources(self) -> list[VoltageSource]:
        return self.elements_of_type(VoltageSource)

    @property
    def current_sources(self) -> list[CurrentSource]:
        return self.elements_of_type(CurrentSource)

    @property
    def storage_elements(self) -> list[Element]:
        """Capacitors and inductors — the state-defining elements."""
        return self.elements_of_type(Capacitor, Inductor)

    @property
    def state_count(self) -> int:
        """Dimension of the circuit's natural state (caps + inductors)."""
        return len(self.storage_elements)

    def current_variable_elements(self) -> list[Element]:
        """Elements carrying an MNA branch-current unknown, in insertion
        order.  This ordering defines the tail of the MNA unknown vector."""
        return [e for e in self._elements.values() if e.needs_current_variable]

    # ------------------------------------------------------------------
    # Mutation helpers used by experiments
    # ------------------------------------------------------------------

    def replace(self, element: Element) -> None:
        """Replace the same-named element in place (order preserved)."""
        if element.name not in self._elements:
            raise CircuitError(f"cannot replace unknown element {element.name!r}")
        old = self._elements[element.name]
        if old.nodes != element.nodes:
            raise CircuitError(
                f"replace() may not rewire {element.name!r}; remove and re-add instead"
            )
        self._elements[element.name] = element

    def set_initial_voltage(self, capacitor_name: str, voltage: float | None) -> None:
        """Set the t = 0 voltage of a capacitor (charge-sharing setups)."""
        element = self[capacitor_name]
        if not isinstance(element, Capacitor):
            raise CircuitError(f"{capacitor_name!r} is not a capacitor")
        self.replace(element.with_initial_voltage(voltage))

    def set_initial_current(self, inductor_name: str, current: float | None) -> None:
        """Set the t = 0 current of an inductor."""
        element = self[inductor_name]
        if not isinstance(element, Inductor):
            raise CircuitError(f"{inductor_name!r} is not an inductor")
        self.replace(element.with_initial_current(current))

    def copy(self, title: str | None = None) -> "Circuit":
        """A shallow copy (elements are immutable, so sharing them is safe)."""
        duplicate = Circuit(self.title if title is None else title)
        duplicate.extend(self._elements.values())
        duplicate._couplings = dict(self._couplings)
        return duplicate

    def canonical_key(self, stimuli=None) -> str:
        """Content hash of the circuit (and optional source stimuli).

        SHA-256 over the canonical deck serialisation
        (:func:`repro.circuit.writer.write_netlist` with
        ``canonical=True`` and the title blanked), so the key depends
        only on the element set — not on title, comments, whitespace,
        insertion order, or how values were spelled in a source deck
        (``1000`` vs ``1k``).  Any change to an element value, node, or
        the topology produces a different key.  This is the identity the
        service result cache (:mod:`repro.service`) is addressed by.
        """
        import hashlib

        from repro.circuit.writer import write_netlist

        text = write_netlist(self, stimuli, title="", canonical=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def has_initial_conditions(self) -> bool:
        """True when any storage element carries an explicit t = 0 value."""
        for element in self.storage_elements:
            if isinstance(element, Capacitor) and element.initial_voltage is not None:
                return True
            if isinstance(element, Inductor) and element.initial_current is not None:
                return True
        return False
