"""Transfer-function AWE: reduced-order models in the frequency domain.

The paper frames AWE around time-domain waveforms, but notes (Sec. 3.1)
that the same Hankel system "arises also in the model order reduction
problem much studied in linear control system theory" (its eq. 30).  This
module is that formulation — the one AWE's successors (RICE, PVL, PRIMA)
standardised:

.. math::

    H(s) = L^T (G + sC)^{-1} B\\,,\\qquad
    H(s) = \\sum_{k \\ge 0} m_k s^k,\\quad
    m_0 = L^T G^{-1} B,\\; m_{k+1} = -L^T G^{-1} C\\,(\\text{previous vector})

A ``q``-pole Padé model ``Ĥ(s) = d + Σ kᵢ/(s − pᵢ)`` matches
``m₀ … m_{2q−1}`` (2q moments; there is no initial-condition ``m₋₁`` row
in the transfer formulation — the optional direct term ``d`` takes one
more moment instead).

Uses: AC/frequency-response sweeps of the reduced model against the exact
transfer function, macromodel export for reuse in other tools, and the
frequency-domain view of the pole "creep-up" the paper's tables show in
the time domain.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse

from repro.analysis.mna import MnaSystem
from repro.circuit.elements import GROUND, canonical_node
from repro.core.moments import moment_chain
from repro.core.pade import taylor_fit
from repro.errors import ApproximationError, MomentMatrixError


def transfer_moments(
    system: MnaSystem,
    source: str,
    node: str | int,
    count: int,
    expansion_point: float = 0.0,
) -> np.ndarray:
    """The first ``count`` Taylor coefficients of ``V(node)/U(source)``
    about ``s = expansion_point``.

    One LU solve per moment, exactly like the time-domain recursion
    (paper Sec. 3.2): ``v_0 = (G+s₀C)⁻¹ B e_src``,
    ``v_{k+1} = −(G+s₀C)⁻¹ C v_k``, ``m_k = v_k[node]``.

    ``expansion_point = 0`` is classical AWE.  A positive real ``s₀``
    shifts the matching point toward higher frequencies — the
    complex-frequency-hopping idea that fixes the s = 0 blind spot for
    well-damped high-frequency detail.  (Floating-group charge rows are
    only needed at s₀ = 0, where the shifted matrix would be singular.)
    """
    name = canonical_node(node)
    if name == GROUND:
        raise ApproximationError("transfer to ground is identically zero")
    row = system.index.node(name)
    column = system.index.source(source)
    rhs = system.b_column(column)
    if system.floating_groups and expansion_point == 0.0:
        injection = system.group_injection(
            np.eye(system.index.source_count)[column]
        )
        if np.any(np.abs(injection) > 0):
            raise ApproximationError(
                "source drives a floating capacitive group; no DC transfer "
                "function exists"
            )
    solve = None
    if expansion_point != 0.0:
        if expansion_point < 0.0:
            raise ApproximationError(
                "the expansion point must lie in the right half plane "
                "(s₀ ≥ 0) to stay clear of the circuit's own poles"
            )
        shifted = system.G + expansion_point * system.C
        if system.use_sparse:
            shifted = scipy.sparse.csc_matrix(shifted)
        factor = system._factor(shifted, "lu", "lu_factorizations", "G + s₀C")

        def solve(vector):
            return system._solve(factor, vector)

    vectors = moment_chain(system, rhs, count, solve)
    return np.array([vector[row] for vector in vectors], dtype=float)


@dataclasses.dataclass(frozen=True)
class TransferModel:
    """A reduced rational model ``Ĥ(s) = d + Σ kᵢ/(s − pᵢ)``.

    ``direct`` (the [q/q] Padé feedthrough term, default 0 for the
    classical strictly proper [q−1/q] form) carries instantaneous
    coupling — e.g. the capacitive-divider limit of a crosstalk transfer.
    ``dc_gain`` is ``Ĥ(0)``; evaluation is vectorised over complex
    frequencies.
    """

    poles: np.ndarray
    residues: np.ndarray
    source: str
    node: str
    direct: float = 0.0

    @property
    def order(self) -> int:
        return len(self.poles)

    @property
    def is_stable(self) -> bool:
        return bool(np.all(self.poles.real < 0))

    def evaluate(self, s) -> np.ndarray:
        """``Ĥ(s)`` at complex frequency/ies ``s``."""
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        values = np.full(s.shape, complex(self.direct))
        for pole, residue in zip(self.poles, self.residues):
            values += residue / (s - pole)
        return values

    def frequency_response(self, omegas) -> np.ndarray:
        """``Ĥ(jω)`` for real angular frequencies."""
        return self.evaluate(1j * np.asarray(omegas, dtype=float))

    @property
    def dc_gain(self) -> float:
        value = complex(self.evaluate(0.0)[0])
        return value.real

    def step_response(self, times, amplitude: float = 1.0) -> np.ndarray:
        """Zero-state response to ``amplitude·H(t)`` — the inverse-Laplace
        of ``Ĥ(s)·A/s``: ``A·(d + Σ kᵢ (e^{pᵢt} − 1)/pᵢ)``."""
        times = np.asarray(times, dtype=float)
        total = np.full(times.shape, complex(self.direct))
        for pole, residue in zip(self.poles, self.residues):
            total += residue * (np.exp(pole * times) - 1.0) / pole
        if np.abs(total.imag).max(initial=0.0) > 1e-6 * max(
            np.abs(total.real).max(initial=0.0), 1e-300
        ):
            raise ApproximationError("unpaired complex poles in step response")
        return amplitude * total.real


def reduce_transfer(
    system: MnaSystem,
    source: str,
    node: str | int,
    order: int,
    moments: np.ndarray | None = None,
    expansion_point: float = 0.0,
    direct_term: bool = False,
) -> TransferModel:
    """Padé-reduce the transfer function to ``order`` poles.

    Matches the ``2q`` Taylor coefficients of ``H`` about
    ``expansion_point`` (``s₀ = 0`` — classical AWE — by default).
    The algebra is identical for any ``s₀``: writing ``u = p − s₀``, the
    coefficients satisfy ``m_k = −Σ kᵢ/uᵢ^{k+1}``, so the standard Hankel
    pipeline produces the shifted poles ``uᵢ`` and the true poles are
    ``s₀ + uᵢ``.  ``moments`` may be supplied to reuse a longer
    precomputed sequence (it must have been computed about the same
    ``expansion_point``).

    ``direct_term=True`` fits the [q/q] form ``d + Σkᵢ/(s−pᵢ)`` instead
    of the strictly proper [q−1/q]: the feedthrough constant ``d``
    captures instantaneous (capacitive-divider) coupling the proper form
    cannot, at the cost of one extra moment (``2q+1`` total).  The pole
    recurrence is unaffected by ``d`` (it cancels from all difference
    rows), so poles come from the Hankel over ``m₁ … m_{2q}``.
    """
    q = order
    needed = 2 * q + (1 if direct_term else 0)
    if moments is None:
        moments = transfer_moments(system, source, node, needed, expansion_point)
    if len(moments) < needed:
        raise MomentMatrixError(f"order {q} needs {needed} transfer moments")

    # The [q/q] fit runs the identical pipeline on the shifted-by-one
    # sequence m₁ … m_{2q}: d never enters those coefficients.
    shifted_poles, residues = taylor_fit(moments, q, first=1 if direct_term else 0)
    poles = shifted_poles + expansion_point

    direct = 0.0
    if direct_term:
        # m₀ = d − Σ kᵢ/uᵢ  ⇒  d = m₀ + Σ kᵢ/uᵢ.
        correction = complex(np.sum(residues / shifted_poles))
        direct = float(moments[0] + correction.real)
    return TransferModel(poles=poles, residues=residues,
                         source=source, node=canonical_node(node),
                         direct=direct)


def exact_frequency_response(
    system: MnaSystem, source: str, node: str | int, omegas
) -> np.ndarray:
    """``H(jω)`` solved exactly, one complex LU per frequency point.

    The brute-force reference the reduced model is judged against (and
    the reason reduced models exist: this is O(points · n³)).
    """
    name = canonical_node(node)
    row = system.index.node(name)
    column = system.index.source(source)
    # Dense brute-force reference: pull dense views regardless of backend.
    rhs = system.b_column(column)
    omegas = np.asarray(omegas, dtype=float)
    values = np.empty(omegas.shape, dtype=complex)
    C_effective = system.C_dense
    full_rhs = rhs
    if system.charge_rows:
        # Charge-augmented rows already carry the (frequency-independent)
        # total-charge equation ΣC·X = 0 — the s-divided form of the
        # replaced KCL row.  The storage matrix must not re-add s-terms on
        # those rows, and their RHS is zero.
        C_effective = C_effective.copy()
        C_effective[list(system.charge_rows), :] = 0.0
        full_rhs = rhs.copy()
        full_rhs[list(system.charge_rows)] = 0.0
    G_aug = system.G_aug_dense
    for i, omega in enumerate(omegas):
        matrix = G_aug + 1j * omega * C_effective
        values[i] = np.linalg.solve(matrix, full_rhs)[row]
    return values
