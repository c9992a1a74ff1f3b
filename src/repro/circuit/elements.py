"""Circuit element definitions.

Every element the paper's RLC interconnect models need is represented here:
resistors, capacitors (grounded or floating), inductors, independent voltage
and current sources, and the four linear controlled-source types that
Sec. III admits ("may contain ... even linear controlled sources").

Elements are lightweight frozen dataclasses holding node *names*; numeric
node indices are assigned by :class:`repro.circuit.netlist.Circuit` when the
element is added.  Each element knows how to report the MNA resources it
needs (whether it introduces an extra branch-current unknown) but the actual
matrix stamping lives in :mod:`repro.analysis.mna` so that the element layer
stays a pure description.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import CircuitError

#: Name of the reference node.  Both SPICE spellings are accepted on input;
#: internally everything is normalised to "0".
GROUND = "0"

_GROUND_ALIASES = {"0", "gnd", "GND", "Gnd"}


def canonical_node(name: str | int) -> str:
    """Normalise a node name: ints become strings, ground aliases become "0"."""
    text = str(name).strip()
    if not text:
        raise CircuitError("node name must be non-empty")
    if text in _GROUND_ALIASES:
        return GROUND
    return text


def _require_positive(value: float, what: str, name: str) -> None:
    if not value > 0:
        raise CircuitError(f"{what} {name!r} must have a positive value, got {value!r}")


def _require_finite(value: float, what: str, name: str) -> None:
    if not math.isfinite(value):
        raise CircuitError(f"{what} {name!r} must have a finite value, got {value!r}")


@dataclass(frozen=True)
class Element:
    """Common base: a named element connected to two nodes.

    ``positive``/``negative`` follow the SPICE convention: for sources the
    voltage/current is directed from ``positive`` to ``negative``; for
    passive elements the orientation only fixes current-sign bookkeeping.
    """

    name: str
    positive: str
    negative: str

    def __post_init__(self):
        if not self.name:
            raise CircuitError("element name must be non-empty")
        object.__setattr__(self, "positive", canonical_node(self.positive))
        object.__setattr__(self, "negative", canonical_node(self.negative))
        if self.positive == self.negative:
            raise CircuitError(
                f"element {self.name!r} connects node {self.positive!r} to itself"
            )

    @property
    def nodes(self) -> tuple[str, str]:
        """The two terminal node names, positive first."""
        return (self.positive, self.negative)

    #: True when the element adds a branch-current unknown to the MNA system.
    needs_current_variable: ClassVar[bool] = False

    def renamed(self, new_name: str) -> "Element":
        """A copy of this element with a different name."""
        return dataclasses.replace(self, name=new_name)


@dataclass(frozen=True)
class Resistor(Element):
    """Linear resistor, value in ohms."""

    resistance: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        _require_positive(self.resistance, "resistor", self.name)
        _require_finite(self.resistance, "resistor", self.name)

    @property
    def conductance(self) -> float:
        """1 / R, the value actually stamped into the MNA G matrix."""
        return 1.0 / self.resistance


@dataclass(frozen=True)
class Capacitor(Element):
    """Linear capacitor, value in farads.

    ``initial_voltage`` is the voltage across the capacitor (positive node
    minus negative node) at t = 0; ``None`` means "take the DC steady state
    of the unexcited circuit", i.e. equilibrium initial conditions.  The
    nonequilibrium charge-sharing experiments (paper Sec. 5.2) set this
    explicitly.
    """

    capacitance: float = 0.0
    initial_voltage: float | None = None

    def __post_init__(self):
        super().__post_init__()
        _require_positive(self.capacitance, "capacitor", self.name)
        _require_finite(self.capacitance, "capacitor", self.name)
        if self.initial_voltage is not None:
            _require_finite(self.initial_voltage, "capacitor IC of", self.name)

    @property
    def is_grounded(self) -> bool:
        """True when one terminal is the reference node (an "RC tree" cap)."""
        return GROUND in self.nodes

    @property
    def is_floating(self) -> bool:
        """True for a coupling capacitor between two non-ground nodes."""
        return not self.is_grounded

    def with_initial_voltage(self, voltage: float | None) -> "Capacitor":
        """A copy with a different initial condition."""
        return dataclasses.replace(self, initial_voltage=voltage)


@dataclass(frozen=True)
class Inductor(Element):
    """Linear inductor, value in henries.

    ``initial_current`` is the branch current flowing from ``positive`` to
    ``negative`` at t = 0 (``None`` = equilibrium).  Inductors always carry
    a branch-current unknown in the MNA formulation.
    """

    inductance: float = 0.0
    initial_current: float | None = None
    needs_current_variable = True

    def __post_init__(self):
        super().__post_init__()
        _require_positive(self.inductance, "inductor", self.name)
        _require_finite(self.inductance, "inductor", self.name)
        if self.initial_current is not None:
            _require_finite(self.initial_current, "inductor IC of", self.name)

    def with_initial_current(self, current: float | None) -> "Inductor":
        """A copy with a different initial condition."""
        return dataclasses.replace(self, initial_current=current)


@dataclass(frozen=True)
class VoltageSource(Element):
    """Independent voltage source.

    ``dc`` is the source value at and after t = 0 (the input signal shape —
    step, ramp, PWL — is supplied separately at analysis time and scales /
    replaces this value; see :mod:`repro.analysis.sources`).  ``dc0`` is the
    value for t < 0 used when computing the pre-switching steady state.
    """

    dc: float = 0.0
    dc0: float = 0.0
    needs_current_variable = True

    def __post_init__(self):
        super().__post_init__()
        _require_finite(self.dc, "voltage source", self.name)
        _require_finite(self.dc0, "voltage source", self.name)


@dataclass(frozen=True)
class CurrentSource(Element):
    """Independent current source; current flows from ``positive`` terminal
    through the source to ``negative`` (SPICE convention).
    """

    dc: float = 0.0
    dc0: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        _require_finite(self.dc, "current source", self.name)
        _require_finite(self.dc0, "current source", self.name)


@dataclass(frozen=True)
class ControlledSource(Element):
    """Base for the four linear controlled sources."""

    gain: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        _require_finite(self.gain, "controlled source", self.name)


@dataclass(frozen=True)
class VCCS(ControlledSource):
    """Voltage-controlled current source (SPICE G element).

    Output current ``gain * (V(ctrl_positive) - V(ctrl_negative))`` flows
    from ``positive`` through the source to ``negative``.
    """

    ctrl_positive: str = GROUND
    ctrl_negative: str = GROUND

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "ctrl_positive", canonical_node(self.ctrl_positive))
        object.__setattr__(self, "ctrl_negative", canonical_node(self.ctrl_negative))


@dataclass(frozen=True)
class VCVS(ControlledSource):
    """Voltage-controlled voltage source (SPICE E element)."""

    ctrl_positive: str = GROUND
    ctrl_negative: str = GROUND
    needs_current_variable = True

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "ctrl_positive", canonical_node(self.ctrl_positive))
        object.__setattr__(self, "ctrl_negative", canonical_node(self.ctrl_negative))


@dataclass(frozen=True)
class CCCS(ControlledSource):
    """Current-controlled current source (SPICE F element).

    The controlling current is the branch current of the named element,
    which must itself carry a current variable (a voltage source or an
    inductor).
    """

    control_element: str = ""

    def __post_init__(self):
        super().__post_init__()
        if not self.control_element:
            raise CircuitError(f"CCCS {self.name!r} needs a controlling element name")


@dataclass(frozen=True)
class CCVS(ControlledSource):
    """Current-controlled voltage source (SPICE H element)."""

    control_element: str = ""
    needs_current_variable = True

    def __post_init__(self):
        super().__post_init__()
        if not self.control_element:
            raise CircuitError(f"CCVS {self.name!r} needs a controlling element name")


@dataclass(frozen=True)
class MutualInductance:
    """Magnetic coupling between two named inductors (SPICE K element).

    Not a two-terminal element: it references the coupled inductors by
    name and adds the off-diagonal terms ``M = k·√(L₁L₂)`` to the
    inductance matrix.  ``|coupling| < 1`` is required for a passive
    (positive-definite) inductance matrix.
    """

    name: str
    inductor_a: str = ""
    inductor_b: str = ""
    coupling: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise CircuitError("mutual inductance name must be non-empty")
        if not self.inductor_a or not self.inductor_b:
            raise CircuitError(f"mutual inductance {self.name!r} needs two inductor names")
        if self.inductor_a == self.inductor_b:
            raise CircuitError(f"mutual inductance {self.name!r} couples an inductor to itself")
        _require_finite(self.coupling, "mutual inductance", self.name)
        if not -1.0 < self.coupling < 1.0:
            raise CircuitError(
                f"mutual inductance {self.name!r}: |k| must be < 1 for a "
                f"passive inductance matrix, got {self.coupling!r}"
            )

    def mutual(self, l_a: float, l_b: float) -> float:
        """The mutual inductance value M = k·√(L_a·L_b)."""
        return self.coupling * math.sqrt(l_a * l_b)


#: All storage (energy) element types — these define the circuit's state.
STORAGE_TYPES = (Capacitor, Inductor)

#: Elements that stamp only into the conductance matrix.
RESISTIVE_TYPES = (Resistor, VCCS, VCVS, CCCS, CCVS)

#: Independent sources.
SOURCE_TYPES = (VoltageSource, CurrentSource)
