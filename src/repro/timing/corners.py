"""Process-corner delay analysis from the adjoint gradient.

Interconnect R and C values vary with process (width/thickness/dielectric
corners).  Enumerating 2^n value corners is hopeless; the adjoint delay
gradient (:mod:`repro.core.sensitivity`) identifies the extreme corners
directly — the first moment is monotone in each element value in the
direction of its gradient sign — so the fast/slow corner circuits can be
*constructed* and re-evaluated exactly, with the linearised spread
``Σ |x·∂T/∂x|·tol`` available as the zero-extra-solve estimate.

This is the standard early-timing variational flow, expressed on the
paper's moment machinery.  It runs on one :class:`~repro.sweep.SweepEngine`
(as does :mod:`repro.timing.montecarlo`): the engine's cached gradient
gives the linear bounds and its re-stamp the exact corners, one LU each.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.sources import Step
from repro.circuit.elements import Capacitor, Resistor
from repro.circuit.netlist import Circuit
from repro.errors import AnalysisError
from repro.sweep import SweepEngine


@dataclasses.dataclass(frozen=True)
class CornerReport:
    """Nominal delay plus the variational spread.

    ``linear_low``/``linear_high`` come from the gradient (no extra
    solves); ``corner_low``/``corner_high`` are exact re-evaluations of
    the constructed extreme-corner circuits.
    """

    node: str
    nominal: float
    linear_low: float
    linear_high: float
    corner_low: float
    corner_high: float
    fast_corner: Circuit
    slow_corner: Circuit

    @property
    def spread(self) -> float:
        """Exact corner-to-corner delay spread."""
        return self.corner_high - self.corner_low


def variational_engine(circuit: Circuit, node: str | int,
                       tolerances: dict[str, float],
                       source_values: dict[str, float] | None):
    """``(engine, gradient)``: the :class:`SweepEngine` both variational
    flows run on, and its delay gradient at ``node``, for the arguments
    of :func:`delay_corners`.  Rejects tolerances that name no R/C
    element or lie outside [0, 1)."""
    stimuli = None
    if source_values is not None:
        levels = {source.name: 0.0 for source in
                  (*circuit.voltage_sources, *circuit.current_sources)}
        stimuli = {name: Step(0.0, level)
                   for name, level in {**levels, **source_values}.items()}
    engine = SweepEngine(circuit, stimuli)
    gradient = engine.gradient(node)
    unknown = set(tolerances) - set(gradient.element_values)
    if unknown:
        raise AnalysisError(f"tolerances name unknown R/C elements: {sorted(unknown)}")
    for name, tol in tolerances.items():
        if not 0.0 <= tol < 1.0:
            raise AnalysisError(f"tolerance for {name!r} must be in [0, 1)")
    return engine, gradient


def delay_corners(
    circuit: Circuit,
    node: str | int,
    tolerances: dict[str, float],
    source_values: dict[str, float] | None = None,
) -> CornerReport:
    """Variational delay analysis at ``node``.

    ``tolerances`` maps element names (R or C) to relative tolerances
    (``0.15`` = ±15 %), each in [0, 1).  Elements not listed are held
    nominal.  ``source_values`` are the post-step source levels from
    rest; a source they do not name sits at 0, and ``None`` steps every
    source to its ``dc``.

    The slow corner scales every listed element in the direction its
    gradient says increases the delay; the fast corner the opposite.
    Returns linearised and exact bounds (exact requires two more LUs).
    """
    engine, sens = variational_engine(circuit, node, tolerances, source_values)
    gradient = {**sens.d_resistance, **sens.d_capacitance}
    scaled = sens.scaled_gradient()

    slow, fast = {}, {}
    linear_delta = 0.0
    for name, tol in tolerances.items():
        direction = 1.0 if gradient[name] >= 0 else -1.0
        slow[name] = sens.element_values[name] * (1.0 + direction * tol)
        fast[name] = sens.element_values[name] * (1.0 - direction * tol)
        linear_delta += abs(scaled[name]) * tol

    return CornerReport(
        node=sens.node,
        nominal=sens.elmore_delay,
        linear_low=sens.elmore_delay - linear_delta,
        linear_high=sens.elmore_delay + linear_delta,
        corner_low=engine.restamp(fast, sens.node)[2],
        corner_high=engine.restamp(slow, sens.node)[2],
        fast_corner=engine.variant(fast, f"{circuit.title} [fast corner]"),
        slow_corner=engine.variant(slow, f"{circuit.title} [slow corner]"),
    )


def uniform_tolerances(circuit: Circuit, tolerance: float) -> dict[str, float]:
    """Every R and C at the same relative tolerance — the common corner
    model when per-layer data is unavailable."""
    return {
        element.name: tolerance
        for element in circuit
        if isinstance(element, (Resistor, Capacitor))
    }
