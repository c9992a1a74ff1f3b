"""Driving-point π-models and effective capacitance from AWE moments.

The paper's moments have a second classic consumer besides waveform
estimation: the *driver side*.  The gate that drives an RLC net does not
see a lumped capacitor — it sees the net's driving-point admittance
``Y(s)``, whose first three moments define the O'Brien–Savarino π-model,
and from the π-model the "effective capacitance" iteration (Qian,
Pullela, Pillage — the direct successor work to AWE) reduces the load to
the single number gate libraries are characterised against.

* :func:`driving_point_moments` — ``Y(s) = y₀ + y₁s + y₂s² + y₃s³ + …``
  from the same LU-factored recursion as all other moments (the current
  moments of the driving source).
* :func:`pi_model` — the unique C₁–R–C₂ π matching ``y₁, y₂, y₃``:
  ``C₂ = y₂²/y₃``, ``R = −y₃²/y₂³``, ``C₁ = y₁ − C₂``.
* :func:`effective_capacitance` — the single capacitor that, behind the
  same driver, crosses 50 % of the swing at the same time as the full
  π-load (charge-equivalence at the delay point, solved by bisection on
  closed-form single/two-pole responses).

Resistive shunt paths (grounded resistors) give ``y₀ ≠ 0``; the π-model
is then fit to the capacitive part and ``y₀`` reported separately.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.core.driver import AweAnalyzer
from repro.core.moments import moment_chain
from repro.analysis.sources import Ramp, Step
from repro.errors import AnalysisError


def driving_point_moments(
    system: MnaSystem, source: str, count: int = 4
) -> np.ndarray:
    """Moments of the driving-point admittance seen by ``source``.

    ``Y(s) = I(s)/V(s)`` with ``I`` the current the source delivers (the
    negative of the MNA branch current, which is directed out of the
    positive node *into* the source).  ``count`` moments are returned,
    ``y₀`` first, from the same counted recursion as every other moment.
    """
    row = system.index.current(source)
    rhs = system.b_column(system.index.source(source))
    vectors = moment_chain(system, rhs, count)
    return np.array([-vector[row] for vector in vectors], dtype=float)


@dataclasses.dataclass(frozen=True)
class PiModel:
    """The C₁–R–C₂ reduced load: C₁ at the driver, R to C₂.

    ``y0`` carries any resistive (DC) part of the admittance that the
    purely capacitive π cannot represent (grounded resistors in the net).
    ``total_capacitance`` is the y₁ lumped value — the "just sum the caps"
    load a pre-AWE flow would use.
    """

    c_near: float
    resistance: float
    c_far: float
    y0: float = 0.0

    @property
    def total_capacitance(self) -> float:
        return self.c_near + self.c_far

    def admittance(self, s) -> np.ndarray:
        """``Y_π(s)`` (without the y₀ DC part), vectorised over ``s``."""
        s = np.asarray(s, dtype=complex)
        return s * self.c_near + s * self.c_far / (1.0 + s * self.resistance * self.c_far)

    def as_circuit(self, driver_resistance: float) -> Circuit:
        """The driver + π-load test circuit used for delay comparisons."""
        ckt = Circuit("pi model load")
        ckt.add_voltage_source("Vdrv", "in", "0")
        ckt.add_resistor("Rdrv", "in", "drv", driver_resistance)
        ckt.add_capacitor("C1", "drv", "0", max(self.c_near, 1e-21))
        ckt.add_resistor("Rpi", "drv", "far", max(self.resistance, 1e-6))
        ckt.add_capacitor("C2", "far", "0", max(self.c_far, 1e-21))
        return ckt


def pi_model(system: MnaSystem, source: str) -> PiModel:
    """Fit the O'Brien–Savarino π-model to the driving-point moments."""
    y = driving_point_moments(system, source, 4)
    y0, y1, y2, y3 = y
    if y1 <= 0:
        raise AnalysisError("driving-point load has no capacitive part")
    if y2 == 0.0 or y3 == 0.0:
        # Degenerate (single lumped capacitor): all capacitance is near.
        return PiModel(c_near=y1, resistance=0.0, c_far=0.0, y0=y0)
    c_far = y2 * y2 / y3
    resistance = -(y3 * y3) / (y2 ** 3)
    c_near = y1 - c_far
    if c_far <= 0 or resistance <= 0 or c_near < -1e-18:
        raise AnalysisError(
            "driving-point moments do not admit a passive pi-model "
            f"(y = {y}); the net likely has inductive or active behaviour"
        )
    return PiModel(c_near=max(c_near, 0.0), resistance=resistance, c_far=c_far, y0=y0)


def _delay_50_with_load(
    driver_resistance: float,
    load_circuit: Circuit,
    rise_time: float | None,
    v_swing: float,
) -> float:
    stimulus = (
        Step(0.0, v_swing)
        if rise_time is None or rise_time <= 0.0
        else Ramp(0.0, v_swing, rise_time=rise_time)
    )
    analyzer = AweAnalyzer(load_circuit, {"Vdrv": stimulus})
    response = analyzer.response("drv", error_target=1e-3)
    return response.delay(0.5 * v_swing)


def effective_capacitance(
    pi: PiModel,
    driver_resistance: float,
    rise_time: float | None = None,
    v_swing: float = 5.0,
    tolerance: float = 1e-3,
) -> float:
    """The single capacitor delay-equivalent to the π-load.

    Bisects on C so that the driver's 50 %-crossing at its output matches
    the π-load case.  Shielding makes ``C_eff ≤ C₁+C₂`` always, with
    ``C_eff → C₁+C₂`` for slow drivers/edges and ``C_eff → C₁`` when the
    π-resistance hides C₂ from a fast driver.
    """
    target = _delay_50_with_load(
        driver_resistance, pi.as_circuit(driver_resistance), rise_time, v_swing
    )

    def delay_with_ceff(c_value: float) -> float:
        ckt = Circuit("ceff load")
        ckt.add_voltage_source("Vdrv", "in", "0")
        ckt.add_resistor("Rdrv", "in", "drv", driver_resistance)
        ckt.add_capacitor("Ceff", "drv", "0", max(c_value, 1e-21))
        return _delay_50_with_load(driver_resistance, ckt, rise_time, v_swing)

    low = max(pi.c_near, 1e-3 * pi.total_capacitance)
    high = pi.total_capacitance
    if delay_with_ceff(high) <= target:
        return high  # no shielding visible at this operating point
    for _ in range(60):
        mid = 0.5 * (low + high)
        if delay_with_ceff(mid) < target:
            low = mid
        else:
            high = mid
        if (high - low) <= tolerance * pi.total_capacitance:
            break
    return 0.5 * (low + high)
