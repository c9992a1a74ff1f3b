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

Beside the elements, the container keeps one :class:`ElementColumns` per
element type, kept current by its own mutators: the MNA stamp, the
structural checks and the typed views read these columns instead of
testing every element's type.
"""

from __future__ import annotations

import functools
import math
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

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

#: Per element kind, the fields read into the ``value`` and ``initial``
#: columns (``None``: the kind has no initial condition).
_FIELDS = (
    (Resistor, "resistance", None),
    (Capacitor, "capacitance", "initial_voltage"),
    (Inductor, "inductance", "initial_current"),
    (VoltageSource, "dc", None),
    (CurrentSource, "dc", None),
    (VCCS, "gain", None),
    (VCVS, "gain", None),
    (CCCS, "gain", None),
    (CCVS, "gain", None),
)


class ElementColumns:
    """The elements of one type, in insertion order, as parallel columns.

    ``ordinal`` is each element's position among all of the circuit's
    elements and ``positive``/``negative`` its terminal node indices,
    ``-1`` for ground; the owning :class:`Circuit` appends to them.
    ``value`` (resistance, capacitance, inductance, a source's ``dc``, a
    controlled source's gain; NaN for an unknown kind) and ``initial``
    (the initial condition, NaN when none) are read from the elements on
    access.  A read-only view.
    """

    __slots__ = ("kind", "elements", "ordinal", "positive", "negative",
                 "controlled", "_value_field", "_initial_field")

    def __init__(self, kind: type):
        self.kind = kind
        self.elements: list[Element] = []
        self.ordinal: list[int] = []
        self.positive: list[int] = []
        self.negative: list[int] = []
        self._value_field, self._initial_field, self.controlled = _kind_spec(kind)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def value(self) -> list[float]:
        if self._value_field is None:
            return [math.nan] * len(self.elements)
        return list(map(attrgetter(self._value_field), self.elements))

    @property
    def initial(self) -> list[float]:
        if self._initial_field is None:
            return [math.nan] * len(self.elements)
        return [math.nan if initial is None else initial
                for initial in map(attrgetter(self._initial_field), self.elements)]

    def copy(self) -> "ElementColumns":
        duplicate = ElementColumns(self.kind)
        for field in ("elements", "ordinal", "positive", "negative"):
            setattr(duplicate, field, getattr(self, field).copy())
        return duplicate


@functools.cache
def _kind_spec(kind: type) -> tuple[str | None, str | None, bool]:
    """``(value field, initial-condition field, has a control port)`` of
    an element type."""
    value_field = initial_field = None
    for base, value, initial in _FIELDS:
        if issubclass(kind, base):
            value_field, initial_field = value, initial
    return value_field, initial_field, hasattr(kind, "ctrl_positive")


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
        self._columns: dict[type, ElementColumns] = {}
        # Element name -> row in its columns, built by the first replace().
        self._position: dict[str, int] | None = None
        self._edits = 0  # mutations that keep the element count
        self._cache: dict[str, tuple[int, object]] = {}

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
        name = element.name
        if name in self._elements:
            raise CircuitError(f"duplicate element name {name!r}")
        kind = type(element)
        column = self._columns.get(kind)
        if column is None:
            column = self._columns[kind] = ElementColumns(kind)
        nodes = self._node_index
        positive, negative = element.positive, element.negative
        p = -1 if positive == GROUND else nodes.get(positive)
        if p is None:
            p = nodes[positive] = len(nodes)
        n = -1 if negative == GROUND else nodes.get(negative)
        if n is None:
            n = nodes[negative] = len(nodes)
        if column.controlled:
            for node in (element.ctrl_positive, element.ctrl_negative):
                if node != GROUND and node not in nodes:
                    nodes[node] = len(nodes)
        if self._position is not None:
            self._position[name] = len(column.elements)
        column.elements.append(element)
        column.ordinal.append(len(self._elements))
        column.positive.append(p)
        column.negative.append(n)
        self._elements[name] = element
        return element

    def extend(self, elements: Iterable[Element]) -> None:
        """Add several elements in order."""
        for element in elements:
            self.add(element)

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
        self._edits += 1
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
        return list(self._node_index)  # indices are handed out in insertion order

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

    def columns(self, *types: type) -> list[ElementColumns]:
        """The :class:`ElementColumns` of every element type that is a
        subclass of one of ``types`` (every type when none is given), in
        the order each type first appeared."""
        if not types:
            return list(self._columns.values())
        return [column for kind, column in self._columns.items() if issubclass(kind, types)]

    def elements_of_type(self, *types: type) -> list[Element]:
        """All elements whose type is one of ``types``, in insertion order."""
        columns = self.columns(*types)
        if len(columns) == 1:
            return list(columns[0].elements)
        elements = [element for column in columns for element in column.elements]
        if len(columns) > 1:
            ordinals = np.concatenate([column.ordinal for column in columns])
            elements = [elements[i] for i in np.argsort(ordinals, kind="stable")]
        return elements

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
        return sum(len(column) for column in self.columns(Capacitor, Inductor))

    def current_variable_elements(self) -> list[Element]:
        """Elements carrying an MNA branch-current unknown, in insertion
        order.  This ordering defines the tail of the MNA unknown vector."""
        kinds = [kind for kind in self._columns if kind.needs_current_variable]
        return self.elements_of_type(*kinds) if kinds else []

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
        self._edits += 1
        if type(old) is not type(element):
            self._rebuild_columns()
            return
        if self._position is None:
            self._position = {
                e.name: row for column in self._columns.values()
                for row, e in enumerate(column.elements)}
        self._columns[type(old)].elements[self._position[element.name]] = element

    def _rebuild_columns(self) -> None:
        """Rebuild every column from the elements (a replacement changed
        an element's type)."""
        elements = list(self._elements.values())
        self._elements.clear()
        self._columns.clear()
        self._position = None
        self.extend(elements)

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
        duplicate._elements = dict(self._elements)
        duplicate._node_index = dict(self._node_index)
        duplicate._columns = {kind: column.copy() for kind, column in self._columns.items()}
        duplicate._couplings = dict(self._couplings)
        return duplicate

    # ------------------------------------------------------------------
    # Per-state results
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """The circuit's state number: every mutator (``add``,
        ``replace``, the initial-condition setters, a new coupling)
        raises it."""
        return len(self._elements) + self._edits

    def cached(self, key: str, compute: Callable[["Circuit"], object]):
        """``compute(self)``, computed once per :attr:`version` and kept
        under ``key``; an exception is not kept, so a failing
        computation raises on every call."""
        version = len(self._elements) + self._edits
        hit = self._cache.get(key)
        if hit is not None and hit[0] == version:
            return hit[1]
        value = compute(self)
        self._cache[key] = (version, value)
        return value

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
        return any(
            not math.isnan(initial)
            for column in self.columns(Capacitor, Inductor)
            for initial in column.initial
        )
