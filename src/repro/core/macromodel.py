"""Foster synthesis: turn moment-matched admittances back into circuits.

A reduced model is most useful when another tool can consume it.  For RC
driving-point admittances the classical Foster canonical form does exactly
that: any positive-real RC admittance can be written

.. math::

    Y(s) = y_0 + \\sum_i \\frac{r_i\\, s}{s - p_i},
    \\qquad y_0 \\ge 0,\\; r_i > 0,\\; p_i < 0,

and each term is literally a series R–C branch (``R_i = 1/r_i``,
``C_i = r_i/|p_i|``) in parallel with the DC conductance ``1/y_0``.  So:
match moments (the same Hankel machinery as everywhere else), solve for
``(p_i, r_i)``, check passivity, and emit a :class:`Circuit` — a physical
N-branch stand-in for an arbitrarily large net, usable in any SPICE.

The synthesis matches the admittance about s = 0 (delay-accurate); the
high-frequency limit of an N-branch Foster form saturates at ``y₀ + Σrᵢ``
rather than growing capacitively, which is the usual, documented trade of
low-order load macromodels.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.mna import MnaSystem
from repro.circuit.netlist import Circuit
from repro.core.pade import taylor_fit
from repro.errors import ApproximationError
from repro.timing.pi_model import driving_point_moments


@dataclasses.dataclass(frozen=True)
class FosterBranch:
    """One series R–C branch of the Foster form."""

    resistance: float
    capacitance: float

    @property
    def pole(self) -> float:
        return -1.0 / (self.resistance * self.capacitance)


@dataclasses.dataclass(frozen=True)
class FosterNetwork:
    """A synthesised RC one-port: DC conductance + parallel R–C branches."""

    y0: float
    branches: tuple[FosterBranch, ...]
    port: str = "p"

    @property
    def order(self) -> int:
        return len(self.branches)

    @property
    def total_capacitance(self) -> float:
        """The y₁ moment the synthesis preserves (= ΣC of the original net
        for a capacitive load)."""
        return sum(b.capacitance for b in self.branches)

    def admittance(self, s) -> np.ndarray:
        """Y(s) of the synthesised network, vectorised."""
        s = np.asarray(s, dtype=complex)
        total = np.full(s.shape, complex(self.y0))
        for branch in self.branches:
            total += s * branch.capacitance / (
                1.0 + s * branch.resistance * branch.capacitance
            )
        return total

    def as_circuit(self, port: str | None = None, prefix: str = "F") -> Circuit:
        """The network as a :class:`Circuit` hanging off node ``port``.

        A unit DC path to ground is included only when ``y₀ > 0``; the
        port node itself carries no source, so the circuit fragment can be
        merged into a larger deck (or exported via the netlist writer).
        """
        node = port or self.port
        ckt = Circuit(f"Foster load ({self.order} branches)")
        ckt.add_voltage_source(f"V{prefix}_probe", node, "0")
        if self.y0 > 0:
            ckt.add_resistor(f"R{prefix}0", node, "0", 1.0 / self.y0)
        for i, branch in enumerate(self.branches, start=1):
            mid = f"{node}_f{i}"
            ckt.add_resistor(f"R{prefix}{i}", node, mid, branch.resistance)
            ckt.add_capacitor(f"C{prefix}{i}", mid, "0", branch.capacitance)
        return ckt


def synthesize_rc_load(
    system: MnaSystem,
    source: str,
    order: int,
    moments: np.ndarray | None = None,
) -> FosterNetwork:
    """Foster-synthesise the driving-point admittance seen by ``source``.

    ``order`` is the number of R–C branches; ``2·order + 1`` admittance
    moments are consumed.  Raises :class:`ApproximationError` when the fit
    is not realisable (complex or positive poles, negative residues) —
    which for a genuine RC one-port only happens when the requested order
    exceeds what the moments support numerically.
    """
    if moments is None:
        moments = driving_point_moments(system, source, 2 * order + 1)
    if len(moments) < 2 * order + 1:
        raise ApproximationError(
            f"order {order} needs {2 * order + 1} admittance moments"
        )
    y0 = float(moments[0])

    # W(s) = (Y − y₀)/s has plain pole/residue form with the shifted
    # moment sequence w_k = y_{k+1}.
    poles, residues = taylor_fit(moments[1:], order)

    branches = []
    for pole, residue in zip(poles, residues):
        if abs(pole.imag) > 1e-9 * abs(pole.real) or pole.real >= 0:
            raise ApproximationError(
                f"non-RC pole {pole:g} in the admittance fit; "
                "lower the synthesis order"
            )
        r = residue.real
        if r <= 0 or abs(residue.imag) > 1e-9 * abs(r):
            raise ApproximationError(
                f"non-passive residue {residue:g}; lower the synthesis order"
            )
        branches.append(
            FosterBranch(resistance=1.0 / r, capacitance=r / abs(pole.real))
        )
    branches.sort(key=lambda b: abs(b.pole))
    # A purely capacitive load computes y₀ only up to solver roundoff
    # (either sign); don't synthesise a 10²⁰ Ω "resistor" — or reject the
    # whole network — over numerical dust.
    branch_conductance = sum(1.0 / b.resistance for b in branches)
    if abs(y0) < 1e-9 * branch_conductance:
        y0 = 0.0
    if y0 < 0:
        raise ApproximationError("negative DC conductance; not an RC one-port")
    return FosterNetwork(y0=y0, branches=tuple(branches))
