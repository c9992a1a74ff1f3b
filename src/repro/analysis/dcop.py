"""DC and t = 0⁺ operating points.

Two solves are needed before any transient machinery runs:

* :func:`dc_operating_point` — the steady state of the circuit with
  capacitors open and inductors short (the MNA ``G`` matrix already encodes
  exactly that).  Used for the pre-switching equilibrium (``t < 0`` source
  levels) and for final values.

* :func:`initial_operating_point` — the full MNA vector at ``t = 0⁺`` given
  the storage-element initial conditions (capacitor voltages / inductor
  currents) and the source values just after switching.  Capacitors are
  momentarily ideal voltage sources and inductors ideal current sources; the
  solve distributes those constraints instantaneously through the resistive
  part of the circuit.  This supplies the ``x(0)`` from which the paper's
  homogeneous initial state ``x_h(0)`` (eq. 8) is formed.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuit.elements import GROUND
from repro.circuit.netlist import Circuit
from repro.analysis.mna import MnaSystem
from repro.errors import AnalysisError


@dataclasses.dataclass(frozen=True)
class StorageState:
    """Initial (or final) values of the state-defining elements.

    ``capacitor_voltages[name]`` is the voltage across the named capacitor
    (positive terminal minus negative); ``inductor_currents[name]`` the
    current through the named inductor (positive to negative terminal).
    """

    capacitor_voltages: dict[str, float]
    inductor_currents: dict[str, float]

    def __post_init__(self):
        object.__setattr__(self, "capacitor_voltages", dict(self.capacitor_voltages))
        object.__setattr__(self, "inductor_currents", dict(self.inductor_currents))


def storage_state_from_mna(system: MnaSystem, x: np.ndarray) -> StorageState:
    """Read capacitor voltages and inductor currents out of an MNA vector."""
    circuit = system.circuit
    index = system.index

    def node_voltage(name: str) -> float:
        return 0.0 if name == "0" else float(x[index.node(name)])

    cap_voltages = {
        cap.name: node_voltage(cap.positive) - node_voltage(cap.negative)
        for cap in circuit.capacitors
    }
    ind_currents = {
        ind.name: float(x[index.current(ind.name)]) for ind in circuit.inductors
    }
    return StorageState(cap_voltages, ind_currents)


def dc_operating_point(
    system: MnaSystem,
    source_values: dict[str, float] | np.ndarray,
    group_charges: np.ndarray | None = None,
) -> np.ndarray:
    """Solve the DC steady state for the given independent-source values.

    ``group_charges`` fixes the conserved total charge of each floating
    node group (required input when the circuit has capacitive-only nodes;
    defaults to zero charge).  Raises :class:`AnalysisError` when a current
    source injects net current into a floating group — such a circuit has
    no steady state.
    """
    u = system.source_vector(source_values)
    if system.floating_groups:
        injection = system.group_injection(u)
        if np.any(np.abs(injection) > 1e-12 * (1.0 + np.abs(u).max(initial=0.0))):
            raise AnalysisError(
                "a current source injects net DC current into a floating "
                "capacitive node group; no steady state exists"
            )
    return system.solve_augmented(system.B @ u, group_charges)


def equilibrium_storage_state(
    system: MnaSystem, source_values: dict[str, float] | np.ndarray
) -> StorageState:
    """Storage state of the DC equilibrium for the given source levels."""
    x = dc_operating_point(system, source_values)
    return storage_state_from_mna(system, x)


def resolve_initial_storage_state(
    system: MnaSystem, pre_source_values: dict[str, float] | np.ndarray
) -> StorageState:
    """The t = 0 storage state: pre-switching equilibrium, overridden by any
    explicit element initial conditions (paper Sec. 5.2 charge sharing).

    When every storage element carries an explicit initial condition the
    equilibrium solve is skipped entirely, so fully-specified problems work
    even for circuits whose pre-switching equilibrium would be ambiguous.
    """
    circuit = system.circuit
    explicit_caps = {
        cap.name: cap.initial_voltage
        for cap in circuit.capacitors
        if cap.initial_voltage is not None
    }
    explicit_inds = {
        ind.name: ind.initial_current
        for ind in circuit.inductors
        if ind.initial_current is not None
    }
    fully_specified = len(explicit_caps) == len(circuit.capacitors) and len(
        explicit_inds
    ) == len(circuit.inductors)
    if fully_specified:
        return StorageState(explicit_caps, explicit_inds)

    equilibrium = equilibrium_storage_state(system, pre_source_values)
    cap_voltages = dict(equilibrium.capacitor_voltages)
    cap_voltages.update(explicit_caps)
    ind_currents = dict(equilibrium.inductor_currents)
    ind_currents.update(explicit_inds)
    return StorageState(cap_voltages, ind_currents)


@dataclasses.dataclass(frozen=True)
class StorageRates:
    """t = 0⁺ derivatives of the state variables.

    ``capacitor_voltage_rates[name]`` is dV/dt of the capacitor at t = 0⁺
    (its instantaneous current over its capacitance);
    ``inductor_current_rates[name]`` is dI/dt (instantaneous voltage over
    inductance).  Used by the paper's Sec. 4.3 initial-slope matching.
    """

    capacitor_voltage_rates: dict[str, float]
    inductor_current_rates: dict[str, float]


def initial_operating_point(
    circuit: Circuit,
    system: MnaSystem,
    storage: StorageState,
    source_values: dict[str, float],
    with_rates: bool = False,
):
    """The full MNA vector at t = 0⁺ (optionally with state derivatives).

    One solve with the system's t = 0⁺ matrix
    (:meth:`~repro.analysis.mna.MnaSystem.solve_t0`): capacitors act as
    ideal voltage sources at their initial voltages and inductors as
    ideal current sources at their initial currents.

    When capacitors form loops (the paper's Fig. 22 coupling cap closes
    one through ground), only a spanning forest of them is pinned
    (:attr:`~repro.analysis.mna.MnaSystem.capacitor_forest`).  A "link"
    cap's voltage is then implied, and contradictory loop ICs are
    rejected: they would need impulsive charge redistribution, which AWE
    does not model.

    With ``with_rates=True`` also returns the :class:`StorageRates` of the
    same solve (forest capacitor currents, inductor terminal voltages),
    or ``None`` in its place when caps form loops, since link caps divert
    current the solve does not report.
    """
    x0, cap_currents = system.solve_t0(
        source_values, storage.capacitor_voltages, storage.inductor_currents
    )
    forest, links = system.capacitor_forest

    def voltage(name: str) -> float:
        return 0.0 if name == GROUND else float(x0[system.index.node(name)])

    voltage_scale = max(
        (abs(v) for v in storage.capacitor_voltages.values()), default=0.0
    )
    voltage_scale = max(voltage_scale, np.abs(x0).max(initial=0.0), 1.0)
    for cap in links:
        implied = voltage(cap.positive) - voltage(cap.negative)
        specified = storage.capacitor_voltages[cap.name]
        if abs(implied - specified) > 1e-9 * voltage_scale:
            raise AnalysisError(
                f"initial condition of capacitor {cap.name!r} ({specified:g} V) "
                f"contradicts the capacitive loop it closes (implied "
                f"{implied:g} V); inconsistent loop ICs would need impulsive "
                "charge redistribution, which AWE does not model"
            )
    if not with_rates:
        return x0
    if links:
        return x0, None
    cap_rates = {
        cap.name: float(current) / cap.capacitance
        for cap, current in zip(forest, cap_currents)
    }
    return x0, StorageRates(cap_rates, _inductor_rates(circuit, voltage))


def _inductor_rates(circuit: Circuit, voltage) -> dict[str, float]:
    """di/dt at t = 0⁺ from the inductor terminal voltages.

    Without magnetic coupling each rate is v_L/L; with mutual inductances
    the full (symmetric, positive-definite) inductance matrix must be
    solved: ``v = L_full · di/dt``.
    """
    inductors = circuit.inductors
    if not inductors:
        return {}
    voltages = np.array(
        [voltage(ind.positive) - voltage(ind.negative) for ind in inductors]
    )
    if not circuit.mutual_inductances:
        return {
            ind.name: float(v / ind.inductance)
            for ind, v in zip(inductors, voltages)
        }
    order = {ind.name: i for i, ind in enumerate(inductors)}
    L_full = np.diag([ind.inductance for ind in inductors])
    for coupling in circuit.mutual_inductances:
        i, j = order[coupling.inductor_a], order[coupling.inductor_b]
        mutual = coupling.mutual(inductors[i].inductance, inductors[j].inductance)
        L_full[i, j] = L_full[j, i] = mutual
    rates = np.linalg.solve(L_full, voltages)
    return {ind.name: float(rate) for ind, rate in zip(inductors, rates)}


def final_operating_point(system: MnaSystem, source_values, x0: np.ndarray | None = None):
    """Steady state the transient settles to (t → ∞ source levels).

    For circuits with floating groups the final state depends on the
    trapped charge, so the initial MNA vector ``x0`` must be supplied; its
    group charges are conserved into the final state.
    """
    charges = None
    if system.floating_groups:
        if x0 is None:
            raise AnalysisError(
                "final state of a floating-node circuit needs the initial "
                "state (its trapped charge determines the result)"
            )
        charges = system.group_charge(x0)
    return dc_operating_point(system, source_values, charges)
