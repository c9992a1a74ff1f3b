"""Moment matching: from a scalar moment sequence to approximating poles.

Implements the direct (non-iterative) solution of the paper's Sec. 3.1:

1. Assemble the Hankel moment matrix (paper eq. 24) over the sequence
   ``μ₋₁, m₀, m₁, …, m_{2q−2}`` and solve for the characteristic
   coefficients ``a₀ … a_{q−1}``.
2. Root the characteristic polynomial (eq. 25) in the reciprocal-pole
   variable ``z = 1/p``; the approximating poles are ``1/z``.

Sign convention.  The fitted model is ``x̂(t) = Σ kₗ e^{pₗ t}`` whose
Laplace expansion gives ``m_k = −Σ kₗ pₗ^{−(k+1)}`` for ``k ≥ 0`` while the
initial value is ``x̂(0) = +Σ kₗ``.  The uniform Hankel recurrence therefore
uses ``μ₋₁ = −x̂(0)``: one extra minus sign relative to the raw initial
condition.  (The paper's eq. 24 elides this sign; its worked example,
eq. 55, carries it as ``v_ss = −m₋₁``.)  :func:`hankel_sequence` applies
the convention so callers only ever handle the physical values.

Frequency scaling (paper Sec. 3.5) is applied inside
:func:`match_poles`: moments are rescaled by ``γ = m₋₁/m₀`` so the Hankel
matrix entries are all O(1); the resulting poles are scaled back by ``γ``.
Without this the moment matrix overflows float range by third order for
nanosecond-scale circuits (see the ablation benchmark).

:func:`taylor_fit` is the same fit for a plain Taylor sequence with no
initial-value row: transfer functions and driving-point admittances.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ApproximationError, MomentMatrixError

#: Condition-number ceiling beyond which the Hankel solve is rejected.
_CONDITION_LIMIT = 1e13


def hankel_sequence(moments: np.ndarray) -> np.ndarray:
    """The uniform sequence ``[−m₋₁, m₀, m₁, …]`` used by the Hankel solve.

    ``moments`` is the physical sequence ``[m₋₁ (initial value), m₀, …]``.
    """
    sequence = np.array(moments, dtype=float, copy=True)
    sequence[0] = -sequence[0]
    return sequence


def choose_scale(moments: np.ndarray) -> float:
    """Frequency-scale factor γ (paper eq. 47): ``m₋₁ / m₀``.

    Falls back to later moment ratios when the leading entries vanish
    (e.g. a coupled node that starts exactly at its final value), and to
    1.0 when no informative ratio exists.  The returned γ is positive.
    """
    sequence = np.asarray(moments, dtype=float)
    for k in range(len(sequence) - 1):
        numerator, denominator = sequence[k], sequence[k + 1]
        if numerator != 0.0 and denominator != 0.0:
            gamma = abs(numerator / denominator)
            if np.isfinite(gamma) and gamma > 0.0:
                return gamma
    return 1.0


def scale_moments(moments: np.ndarray, gamma: float) -> np.ndarray:
    """Moments of the time-scaled response ``y(t/γ)``: ``m_k → m_k γ^{k+1}``
    for k ≥ 0, with the initial value (index 0 of the array) unchanged."""
    scaled = np.array(moments, dtype=float, copy=True)
    powers = gamma ** np.arange(1, len(scaled))
    scaled[1:] *= powers
    return scaled


@dataclasses.dataclass(frozen=True)
class PadeResult:
    """Approximating poles plus solver diagnostics."""

    poles: np.ndarray
    characteristic: np.ndarray
    condition_number: float
    scale: float

    @property
    def order(self) -> int:
        return len(self.poles)

    @property
    def is_stable(self) -> bool:
        """All poles strictly in the left half-plane (paper Sec. 3.3)."""
        return bool(np.all(self.poles.real < 0.0))


def characteristic_polynomial(sequence: np.ndarray, q: int) -> tuple[np.ndarray, float]:
    """Solve the Hankel system (paper eq. 24) for ``a₀ … a_{q−1}``.

    ``sequence`` is the uniform sequence from :func:`hankel_sequence`
    (length ≥ 2q).  Returns the coefficients and the Hankel condition
    number; raises :class:`MomentMatrixError` when the matrix is singular
    or worse-conditioned than the solver can support.
    """
    if len(sequence) < 2 * q:
        raise MomentMatrixError(
            f"order {q} needs {2 * q} moment values, got {len(sequence)}"
        )
    H = np.empty((q, q))
    for i in range(q):
        H[i, :] = sequence[i : i + q]
    rhs = sequence[q : 2 * q]
    condition = float(np.linalg.cond(H)) if q > 0 else 1.0
    if not np.isfinite(condition) or condition > _CONDITION_LIMIT:
        raise MomentMatrixError(
            f"moment matrix for order {q} is ill-conditioned "
            f"(cond ≈ {condition:.2e}); the response cannot support this "
            "order — use a lower one"
        )
    try:
        minus_a = np.linalg.solve(H, rhs)
    except np.linalg.LinAlgError as exc:
        raise MomentMatrixError(f"moment matrix for order {q} is singular: {exc}") from exc
    return -minus_a, condition


def poles_from_characteristic(a: np.ndarray) -> np.ndarray:
    """Roots of ``a₀ + a₁ z + … + a_{q−1} z^{q−1} + z^q`` mapped to poles
    ``p = 1/z`` (paper eq. 25), sorted dominant-first (smallest |Re|)."""
    q = len(a)
    coefficients = np.concatenate(([1.0], a[::-1]))  # z^q first for np.roots
    roots = np.roots(coefficients)
    if np.any(roots == 0.0):
        raise MomentMatrixError("characteristic polynomial has a root at z = 0")
    poles = 1.0 / roots
    # Dominant first: smallest |p| — the moment expansion about s = 0 is
    # controlled by the pole nearest the origin (the ordering the paper's
    # Tables I and II use).
    return poles[np.argsort(np.abs(poles))]


def match_poles(moments: np.ndarray, q: int, use_scaling: bool = True) -> PadeResult:
    """Full pipeline: physical moments ``[m₋₁, m₀, …]`` → ``q`` poles.

    ``use_scaling=False`` disables frequency scaling (exposed for the
    Sec. 3.5 ablation; production callers should leave it on).
    """
    moments = np.asarray(moments, dtype=float)
    gamma = choose_scale(moments) if use_scaling else 1.0
    scaled = scale_moments(moments, gamma)
    sequence = hankel_sequence(scaled)
    a, condition = characteristic_polynomial(sequence, q)
    poles = poles_from_characteristic(a) * gamma
    return PadeResult(poles=poles, characteristic=a, condition_number=condition, scale=gamma)


def taylor_fit(moments, q: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Poles and residues of ``Σ kᵢ/(s − pᵢ)`` from its Taylor coefficients
    about s = 0, ``m_k = −Σ kᵢ pᵢ^{−(k+1)}``.

    The frequency-domain form of :func:`match_poles` (no initial-value
    row): the poles come from the Hankel over ``m_first … m_{first+2q−1}``,
    scaled by γ from consecutive ratios so its entries stay O(1), and the
    residues from the first ``q`` of those coefficients.  Raises
    :class:`ApproximationError` when the residue system is singular.
    """
    working = np.asarray(moments[first : first + 2 * q], dtype=float)
    gamma = choose_scale(working)
    a, _ = characteristic_polynomial(working * gamma ** np.arange(len(working)), q)
    poles = poles_from_characteristic(a) * gamma

    A = np.empty((q, q), dtype=complex)
    for i in range(q):
        A[i, :] = -(poles ** -(first + i + 1))
    try:
        residues = np.linalg.solve(A, working[:q].astype(complex))
    except np.linalg.LinAlgError as exc:
        raise ApproximationError(f"residue system singular: {exc}") from exc
    return poles, residues
