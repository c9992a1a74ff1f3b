"""A standalone two-pole step-response model (paper Sec. 2.3).

Chu and Horowitz [12] improved on the single-time-constant estimate with a
two-pole model for RC meshes with charge sharing.  Within this
reproduction the natural formulation is the moment-matched one — which is
precisely what the paper means by "for the case of an RC tree model a
first-order AWE approximation reduces to the RC tree methods": the
two-pole model is second-order AWE with the same four moment values
(m₋₁ … m₂) the Chu–Horowitz construction consumes.

This module implements the two-pole fit directly from those four scalars,
with explicit closed-form quadratic root extraction — independent of the
general Padé machinery in :mod:`repro.core.pade` — so the benchmarks can
compare the two code paths and the tests can verify they agree.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.circuit.netlist import Circuit
from repro.analysis.mna import MnaSystem
from repro.analysis.dcop import (
    final_operating_point,
    initial_operating_point,
    resolve_initial_storage_state,
)
from repro.core.moments import homogeneous_moments
from repro.errors import ApproximationError
from repro.waveform import Waveform


@dataclasses.dataclass(frozen=True)
class TwoPoleModel:
    """``v(t) = v∞ + k₁ e^{p₁ t} + k₂ e^{p₂ t}`` (real or conjugate poles)."""

    node: str
    v_final: float
    poles: tuple[complex, complex]
    residues: tuple[complex, complex]

    def evaluate(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        total = np.full(t.shape, complex(self.v_final))
        for pole, residue in zip(self.poles, self.residues):
            total = total + residue * np.exp(pole * t)
        return total.real

    def to_waveform(self, times) -> Waveform:
        times = np.asarray(times, dtype=float)
        return Waveform(times, self.evaluate(times), f"v({self.node}) [2-pole]")

    @property
    def is_stable(self) -> bool:
        return all(p.real < 0 for p in self.poles)


def two_pole_model(circuit: Circuit, node: str, v_step: float) -> TwoPoleModel:
    """Fit the two-pole model for a 0→``v_step`` input at t = 0.

    Computes m₋₁, m₀, m₁, m₂ of the homogeneous response and solves the
    2×2 moment-recurrence system in closed form (the q = 2 case of the
    paper's eq. 24, solved by the quadratic formula rather than a general
    eigenroutine).
    """
    system = MnaSystem(circuit)
    source_values = {name: 0.0 for name in system.index.source_names}
    # The step goes on the first source, SPICE-style single-input stage.
    if not system.index.source_names:
        raise ApproximationError("circuit has no source to step")
    stepped = dict(source_values)
    stepped[system.index.source_names[0]] = v_step

    storage0 = resolve_initial_storage_state(system, source_values)
    x0 = initial_operating_point(circuit, system, storage0, stepped)
    x_final = final_operating_point(system, stepped, x0)
    y0 = x0 - x_final
    moments = homogeneous_moments(system, y0, 4)
    row = system.index.node(node)
    m = moments.sequence_for(row)  # [m₋₁, m₀, m₁, m₂, m₃]

    # Uniform recurrence sequence (note the sign of the initial value, see
    # repro.core.pade.hankel_sequence): μ = [−m₋₁, m₀, m₁, m₂].
    mu = np.array([-m[0], m[1], m[2], m[3]])
    det = mu[0] * mu[2] - mu[1] * mu[1]
    if det == 0.0:
        raise ApproximationError(
            "two-pole moment matrix is singular (response is first-order)"
        )
    # [μ0 μ1; μ1 μ2] [−a0, −a1]ᵀ = [μ2, μ3]ᵀ, solved by Cramer's rule.
    minus_a0 = (mu[2] * mu[2] - mu[1] * mu[3]) / det
    minus_a1 = (mu[0] * mu[3] - mu[1] * mu[2]) / det
    a0, a1 = -minus_a0, -minus_a1

    # z² + a1 z + a0 = 0 with z = 1/p — explicit quadratic roots.
    disc = a1 * a1 - 4.0 * a0
    sqrt_disc = complex(math.sqrt(disc)) if disc >= 0 else 1j * math.sqrt(-disc)
    z1 = (-a1 + sqrt_disc) / 2.0
    z2 = (-a1 - sqrt_disc) / 2.0
    if z1 == 0 or z2 == 0:
        raise ApproximationError("degenerate two-pole characteristic polynomial")
    p1, p2 = 1.0 / z1, 1.0 / z2

    # Residues from m₋₁ and m₀:  k₁+k₂ = m₋₁,  −k₁/p₁ − k₂/p₂ = m₀.
    if p1 == p2:
        raise ApproximationError("repeated pole; use the general AWE driver")
    k2 = (m[1] + m[0] / p1) / (1.0 / p1 - 1.0 / p2)
    k1 = m[0] - k2
    v_final = float(x_final[row])
    return TwoPoleModel(node=node, v_final=v_final,
                        poles=(complex(p1), complex(p2)),
                        residues=(complex(k1), complex(k2)))
