"""Adjoint sensitivities of the first moment (Elmore delay) to element values.

Where AWE computes delays from moments, a designer asks the next question:
*which resistor or capacitor do I shrink to fix this path?*  For a net
switching from rest (zero pre-state, step input ``u``) the first-moment
delay at output ``o`` is

.. math::

    T_D = -m_0 / v_\\infty, \\qquad
    m_0 = -e_o^T G^{-1} C\\, G^{-1} B u

and its gradient with respect to *every* element value follows from two
adjoint solves, independent of the number of elements:

* conductance stamp ``dG = w wᵀ dg`` (``w`` the incidence vector):
  ``dm₀ = (aᵀw)(wᵀ v₁)·dg + (cᵀw)(wᵀ x_∞)·dg``
* capacitance stamp ``dC = w wᵀ dC``:
  ``dm₀ = −(aᵀw)(wᵀ x_∞)·dC``

with ``x_∞ = G⁻¹Bu`` (the steady state), ``v₁ = G⁻¹C x_∞``
(``m₀ = −e_oᵀv₁``), ``a = G⁻ᵀe_o``, and ``c = G⁻ᵀCᵀa``.  Four solves
total, all with the already-factored ``G``.

Scope: linear R/C/V/I circuits with equilibrium (all-zero) pre-state —
the standard switching-net situation.  The tree-walk closed forms in
:mod:`repro.rctree.sensitivity` provide an independent check on RC trees;
finite differences check the general case in the test suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.mna import MnaSystem
from repro.circuit.elements import GROUND, CurrentSource, VoltageSource, canonical_node
from repro.circuit.netlist import Circuit
from repro.circuit.validation import require_rcvi
from repro.core.moments import moment_chain
from repro.errors import AnalysisError


@dataclasses.dataclass(frozen=True)
class DelaySensitivities:
    """Elmore-delay gradient of one output node.

    ``d_resistance[name]`` = ∂T_D/∂R (s/Ω); ``d_capacitance[name]`` =
    ∂T_D/∂C (s/F).  ``element_values`` holds the nominal R/C values so the
    gradient can be expressed per relative change; ``elmore_delay`` is the
    nominal T_D the gradient belongs to.
    """

    node: str
    elmore_delay: float
    d_resistance: dict[str, float]
    d_capacitance: dict[str, float]
    element_values: dict[str, float]

    def scaled_gradient(self) -> dict[str, float]:
        """``x·∂T/∂x`` per element — the delay change per unit *relative*
        change in the element value."""
        gradient = {**self.d_resistance, **self.d_capacitance}
        return {
            name: self.element_values[name] * value
            for name, value in gradient.items()
        }

    def top_contributors(self, count: int = 5) -> list[tuple[str, float]]:
        """Elements ranked by |x·∂T/∂x| — where a relative change buys the
        most delay."""
        entries = sorted(self.scaled_gradient().items(), key=lambda p: -abs(p[1]))
        return entries[:count]


def _terminal_rows(system: MnaSystem, elements) -> tuple[np.ndarray, np.ndarray]:
    """Rows of each element's positive and negative node; ground maps to
    ``system.dimension``, one past the last row, where callers append a
    zero.  Then ``v[p] - v[n]`` is ``wᵀv`` for every element at once."""
    rows = dict(zip(system.index.node_names, range(system.index.node_count)))
    rows[GROUND] = system.dimension
    positive = np.array([rows[e.positive] for e in elements], dtype=np.intp)
    negative = np.array([rows[e.negative] for e in elements], dtype=np.intp)
    return positive, negative


def delay_sensitivities(
    circuit: Circuit,
    node: str | int,
    source_values: dict[str, float] | None = None,
    system: MnaSystem | None = None,
) -> DelaySensitivities:
    """Gradient of the first-moment (Elmore) delay at ``node``.

    ``source_values`` are the post-step source levels (defaults to each
    voltage source's ``dc`` value); the pre-state is the all-zero
    equilibrium.  ``system`` is an already-built :class:`MnaSystem` of
    ``circuit`` whose factorization the four solves reuse (the adjoint
    pair as transpose solves); by default one is built here.
    """
    require_rcvi(circuit, "delay sensitivities")
    name = canonical_node(node)
    if name == GROUND:
        raise AnalysisError("ground has no delay")

    if system is None:
        system = MnaSystem(circuit)
    elif system.circuit is not circuit:
        raise AnalysisError("system= must be the MnaSystem of this circuit")
    if system.floating_groups:
        raise AnalysisError(
            "delay sensitivities are not defined for floating capacitive "
            "groups (their Elmore delay is not a simple first moment)"
        )
    if source_values is None:
        source_values = {
            source.name: source.dc
            for source in circuit
            if isinstance(source, (VoltageSource, CurrentSource))
        }
    u = system.source_vector(source_values)
    row = system.index.node(name)

    # Forward solves: the moment chain on Bu; its second vector is -v1.
    x_inf, minus_v1 = moment_chain(system, system.B @ u, 2)
    v1 = -minus_v1  # m0 = -e_o^T v1
    swing = float(x_inf[row])
    if swing == 0.0:
        raise AnalysisError(f"node {name!r} sees no steady-state swing")
    m0 = -float(v1[row])
    elmore = -m0 / swing

    # Adjoint solves on the same factors (G is symmetric for R/C/V/I MNA
    # up to the branch rows, but the transpose keeps this general).
    e_o = np.zeros(system.dimension)
    e_o[row] = 1.0
    a = system.solve_augmented(e_o, transpose=True)
    c = system.solve_augmented(np.asarray(system.C.T @ a).ravel(), transpose=True)

    # T_D = -m0/swing where swing = e_o^T x_inf also depends on G:
    # d(swing) = -(a^T dG x_inf).  Assemble the full quotient rule for
    # every element at once, each wᵀv as a gather (ground reads the
    # appended zero).
    a, c, x_inf, v1 = (np.append(v, 0.0) for v in (a, c, x_inf, v1))
    resistors = circuit.resistors
    p, n = _terminal_rows(system, resistors)
    a_w, x_w = a[p] - a[n], x_inf[p] - x_inf[n]
    # dm0/dg and d(swing)/dg for conductance g, then the chain rule to R.
    dm0_dg = a_w * (v1[p] - v1[n]) + (c[p] - c[n]) * x_w
    dswing_dg = -a_w * x_w
    g = np.array([r.conductance for r in resistors])
    dm0_dR = dm0_dg * (-(g * g))
    dswing_dR = dswing_dg * (-(g * g))
    dT_dR = -(dm0_dR * swing - m0 * dswing_dR) / (swing * swing)

    capacitors = circuit.capacitors
    p, n = _terminal_rows(system, capacitors)
    dm0_dC = -(a[p] - a[n]) * (x_inf[p] - x_inf[n])
    dT_dC = -dm0_dC / swing

    values = {r.name: r.resistance for r in resistors}
    values.update({cap.name: cap.capacitance for cap in capacitors})
    return DelaySensitivities(
        node=name,
        elmore_delay=elmore,
        d_resistance=dict(zip((r.name for r in resistors), dT_dR.tolist())),
        d_capacitance=dict(zip((cap.name for cap in capacitors), dT_dC.tolist())),
        element_values=values,
    )
