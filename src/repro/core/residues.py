"""Residue computation for a fixed set of approximating poles.

Given ``q`` poles, the residues are fixed by the *low-order* moments: the
initial value ``m₋₁`` and ``m₀ … m_{q−2}`` (paper eqs. 17/20).  For a
simple (distinct) pole set this is a reciprocal-Vandermonde solve; for
repeated poles the Vandermonde matrix is singular by construction and the
confluent system of the paper's eq. 29 is used instead, in which a pole of
multiplicity ``r`` contributes the time-domain terms
``t^{j−1} e^{pt}/(j−1)!`` for ``j = 1 … r``.

The solved model is returned as a :class:`~repro.core.model.PoleResidueModel`
term list so evaluation code never needs to distinguish the two cases.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ApproximationError

#: Poles whose relative distance is below this are treated as one repeated
#: pole (numerical root-finding almost never returns exact duplicates).
_CLUSTER_RTOL = 1e-7


def cluster_poles(poles: np.ndarray, rtol: float = _CLUSTER_RTOL) -> list[tuple[complex, int]]:
    """Group nearly identical poles into (value, multiplicity) clusters.

    The representative value is the cluster mean; ordering follows the
    input (dominant-first when fed from :func:`repro.core.pade.match_poles`).
    """
    clusters: list[list[complex]] = []
    for pole in poles:
        for members in clusters:
            reference = members[0]
            if abs(pole - reference) <= rtol * max(abs(pole), abs(reference)):
                members.append(pole)
                break
        else:
            clusters.append([pole])
    return [(complex(np.mean(members)), len(members)) for members in clusters]


def _moment_coefficient(pole: complex, multiplicity_index: int, k: int) -> complex:
    """Coefficient of residue ``k_{c,j}`` in the equation for moment ``m_k``.

    From the expansion of ``1/(s−p)^j`` about s = 0 (paper eq. 27
    generalised): coefficient of ``s^k`` is ``(−1)^j · C(k+j−1, j−1) ·
    p^{−(j+k)}``.
    """
    j = multiplicity_index
    return ((-1.0) ** j) * math.comb(k + j - 1, j - 1) * pole ** (-(j + k))


def solve_residues(
    poles: np.ndarray,
    moments: np.ndarray,
    initial_slope: float | None = None,
) -> list[tuple[complex, int, complex]]:
    """Solve for residues matching ``m₋₁`` and ``m₀ … m_{q−2}``.

    Parameters
    ----------
    poles:
        The ``q`` approximating poles (may contain repeats/clusters).
    moments:
        Physical sequence ``[m₋₁, m₀, …]`` with at least ``q`` entries.
    initial_slope:
        When given, the paper's ``m₋₂`` extension (Sec. 4.3): the highest
        moment row is replaced by the constraint that the model's initial
        derivative equal this value, removing the initial-slope glitch of
        ramp responses.  Requires ``q ≥ 2`` (a single exponential cannot
        match value, area, and slope simultaneously).

    Returns
    -------
    list of ``(pole, power, residue)`` terms, where ``power`` ≥ 1 and the
    time-domain contribution of a term is
    ``residue · t^{power−1} e^{pole·t} / (power−1)!``.
    """
    if len(poles) == 0:
        raise ApproximationError("no poles supplied")
    clusters = cluster_poles(np.asarray(poles, dtype=complex))
    columns: list[tuple[complex, int]] = []
    for pole, multiplicity in clusters:
        for j in range(1, multiplicity + 1):
            columns.append((pole, j))
    return _solve_columns(columns, moments, initial_slope)


def refit_residues(
    terms, moments: np.ndarray, initial_slope: float | None = None
) -> list[tuple[complex, int, complex]]:
    """:func:`solve_residues` on the ``(pole, power)`` columns of an
    existing term list, for another moment sequence: the same residue
    system, without re-clustering the poles."""
    return _solve_columns([(pole, power) for pole, power, _ in terms],
                          moments, initial_slope)


def _solve_columns(
    columns: list[tuple[complex, int]],
    moments: np.ndarray,
    initial_slope: float | None,
) -> list[tuple[complex, int, complex]]:
    q = len(columns)
    if len(moments) < q:
        raise ApproximationError(
            f"residues for {q} poles need {q} moment values, got {len(moments)}"
        )
    A = np.zeros((q, q), dtype=complex)
    rhs = np.zeros(q, dtype=complex)
    # Row 0: the initial value.  Only the j = 1 (pure exponential) terms are
    # nonzero at t = 0: Σ k_{c,1} = m₋₁.
    for col, (pole, j) in enumerate(columns):
        A[0, col] = 1.0 if j == 1 else 0.0
    rhs[0] = moments[0]
    # Rows 1 … q−1: moments m₀ … m_{q−2}.
    for row in range(1, q):
        k = row - 1
        for col, (pole, j) in enumerate(columns):
            A[row, col] = _moment_coefficient(pole, j, k)
        rhs[row] = moments[1 + k]

    if initial_slope is not None:
        if q < 2:
            raise ApproximationError(
                "initial-slope matching needs at least a second-order model"
            )
        # Replace the highest-moment row with the t = 0 derivative
        # constraint.  d/dt[t^{j−1} e^{pt}/(j−1)!] at 0 is p for j = 1,
        # 1 for j = 2, and 0 for j ≥ 3.
        row = q - 1
        for col, (pole, j) in enumerate(columns):
            A[row, col] = pole if j == 1 else (1.0 if j == 2 else 0.0)
        rhs[row] = initial_slope

    try:
        solution = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise ApproximationError(f"residue system is singular: {exc}") from exc
    return [(pole, j, residue) for (pole, j), residue in zip(columns, solution)]
