"""AWE accuracy estimation (paper Sec. 3.4).

The error of a q-order model is estimated against the (q+1)-order model
built from two extra moments: both are sums of decaying exponentials, so
the L2 waveform distance (paper eq. 39) has a closed form.

Two estimators are provided:

* :func:`exact_l2_distance` — evaluates eq. 39 *exactly* via the bilinear
  identity ``∫₀^∞ t^a e^{αt} · t^b e^{βt} dt = (a+b)! / (−(α+β))^{a+b+1}``.
  For the model orders AWE uses (q ≤ 8) this is a handful of complex
  multiplies, so it is the default.

* :func:`cauchy_bound_distance` — the paper's upper bound (eqs. 40–46):
  terms of the two models are paired by pole/residue proximity, each pair's
  squared-difference integral ``E_i`` is evaluated with eq. 45 (complex
  pairs jointly, eq. 46), and the bound ``(q+1)·Σ E_i`` is returned.  The
  paper used this to dodge ~40 complex multiplies on 1989 hardware; we keep
  it for fidelity and to benchmark how pessimistic it is (it is exact when
  the paired terms line up, per the paper's remark).

Both report *relative* error, normalised by the L2 norm of the reference
transient (eq. 37 as applied to eq. 39), matching the percentages quoted
throughout the paper's Section V.  Models containing non-decaying poles
yield ``inf`` — the signal for the driver to escalate the order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.model import PoleResidueModel, Term


def _bilinear_integral(
    terms_a: list[Term], terms_b: list[Term]
) -> tuple[complex, float]:
    """``∫₀^∞ f(t) g(t) dt`` for polynomial-exponential term lists.

    A term ``(p, j, k)`` denotes ``k · t^{j−1} e^{pt} / (j−1)!``.
    Returns the complex sum and ``Σ|piece|``, the magnitude its roundoff
    scales with; the caller decides whether an imaginary part is
    legitimate.  Requires every pairwise pole sum to decay.
    """
    total = 0.0 + 0.0j
    magnitude = 0.0
    for pole_a, power_a, residue_a in terms_a:
        for pole_b, power_b, residue_b in terms_b:
            sigma = pole_a + pole_b
            if sigma.real >= 0.0:
                return complex(np.inf), np.inf
            a, b = power_a - 1, power_b - 1
            coefficient = (
                residue_a
                * residue_b
                / (math.factorial(a) * math.factorial(b))
            )
            piece = coefficient * math.factorial(a + b) / (-sigma) ** (a + b + 1)
            total += piece
            magnitude += abs(piece)
    return total, magnitude


def transient_energy(model: PoleResidueModel) -> float:
    """``∫₀^∞ v̂(t)² dt`` of the transient part (the normaliser, eq. 37)."""
    if not model.is_stable:
        return float("inf")
    return _as_energy(*_bilinear_integral(list(model.terms), list(model.terms)))


def exact_l2_distance(reference: PoleResidueModel, candidate: PoleResidueModel) -> float:
    """Exact ``sqrt(∫ (v_ref − v̂)² dt)`` between two transient models."""
    if not (reference.is_stable and candidate.is_stable):
        return float("inf")
    return math.sqrt(_group_difference_energy(reference.terms, candidate.terms))


def relative_error(reference: PoleResidueModel, candidate: PoleResidueModel) -> float:
    """The paper's normalised error estimate (eq. 39): distance between the
    (q+1)-order reference and the q-order candidate, over the reference's
    transient norm."""
    norm_squared = transient_energy(reference)
    if not np.isfinite(norm_squared):
        return float("inf")
    if norm_squared == 0.0:
        # No transient at all: any candidate with a transient is wrong.
        return 0.0 if transient_energy(candidate) == 0.0 else float("inf")
    return exact_l2_distance(reference, candidate) / math.sqrt(norm_squared)


def _as_energy(value: complex, magnitude: float) -> float:
    """Validate that a squared-norm integral came out real and non-negative.

    The imaginary part is roundoff of the summands, so it is judged
    against their ``magnitude``, not against a ``value`` that a
    q-vs-(q+1) difference can cancel almost to zero."""
    if not np.isfinite(value.real):
        return float("inf")
    if abs(value.imag) > 1e-8 * magnitude:
        raise ArithmeticError(
            f"energy integral has a non-negligible imaginary part ({value})"
        )
    return max(value.real, 0.0)


# ----------------------------------------------------------------------
# The paper's Cauchy-inequality bound (eqs. 40–46)
# ----------------------------------------------------------------------


def _conjugate_groups(terms: list[Term]) -> list[list[Term]]:
    """Group terms into real singletons and conjugate pairs so each group
    is a real-valued function (required for Cauchy's inequality, eq. 46)."""
    remaining = list(terms)
    groups: list[list[Term]] = []
    while remaining:
        term = remaining.pop(0)
        pole = term[0]
        if abs(pole.imag) <= 1e-12 * max(abs(pole), 1.0):
            groups.append([term])
            continue
        # Find the conjugate partner.
        partner_index = None
        for i, other in enumerate(remaining):
            if abs(other[0] - pole.conjugate()) <= 1e-6 * max(abs(pole), 1.0):
                partner_index = i
                break
        if partner_index is None:
            # Unpaired complex pole — treat alone; the bilinear integral
            # still converges, the bound just loses its realness guarantee.
            groups.append([term])
        else:
            groups.append([term, remaining.pop(partner_index)])
    return groups


def _group_difference_energy(group_a: list[Term], group_b: list[Term]) -> float:
    """``E_i = ∫ (f_a − f_b)² dt`` for two real term groups (eq. 45/46)."""
    difference = list(group_a) + [(p, j, -k) for p, j, k in group_b]
    return _as_energy(*_bilinear_integral(difference, difference))


def cauchy_bound_distance(reference: PoleResidueModel, candidate: PoleResidueModel) -> float:
    """The paper's paired upper bound on the waveform distance (eq. 41).

    Groups of the (q+1)-order reference are matched to groups of the
    q-order candidate by dominant-pole proximity; the surplus reference
    group is matched by splitting the candidate's nearest group's residue
    (the paper's eqs. 42–43).  Returns
    ``sqrt((q+1) · Σ E_i)`` — an upper bound on eq. 39's numerator.
    """
    if not (reference.is_stable and candidate.is_stable):
        return float("inf")
    groups_ref = _conjugate_groups(list(reference.terms))
    groups_cand = _conjugate_groups(list(candidate.terms))

    def dominant(group: list[Term]) -> complex:
        return min((term[0] for term in group), key=lambda p: abs(p.real))

    # Greedy pairing by pole distance.
    unpaired_ref = list(range(len(groups_ref)))
    unpaired_cand = list(range(len(groups_cand)))
    pairs: list[tuple[list[Term], list[Term]]] = []
    while unpaired_ref and unpaired_cand:
        best = None
        for i in unpaired_ref:
            for j in unpaired_cand:
                distance = abs(dominant(groups_ref[i]) - dominant(groups_cand[j]))
                if best is None or distance < best[0]:
                    best = (distance, i, j)
        _, i, j = best
        pairs.append((groups_ref[i], groups_cand[j]))
        unpaired_ref.remove(i)
        unpaired_cand.remove(j)

    total = 0.0
    leftovers = [groups_ref[i] for i in unpaired_ref]
    if leftovers and pairs:
        # Eqs. 42–43: split the last paired candidate group between its
        # reference partner and the surplus reference group(s).
        ref_last, cand_last = pairs.pop()
        # Match v_q against the candidate group carrying the reference's
        # share of the residue ...
        shared = _scale_group(cand_last, _residue_ratio(ref_last, cand_last))
        total += _group_difference_energy(ref_last, shared)
        remainder = _subtract_groups(cand_last, shared)
        for leftover in leftovers:
            total += _group_difference_energy(leftover, remainder)
            remainder = [(p, j, 0.0) for p, j, _ in remainder]
    else:
        for leftover in leftovers:
            total += _group_difference_energy(leftover, [])
    for group_ref, group_cand in pairs:
        total += _group_difference_energy(group_ref, group_cand)
    count = len(groups_ref)
    return math.sqrt(max(count, 1) * total)


def _residue_ratio(reference_group: list[Term], candidate_group: list[Term]) -> float:
    """Fraction of the candidate group's residue assigned to the reference
    pairing in the eq. 42/43 split: use the reference residue magnitude."""
    ref_mag = sum(abs(k) for _, _, k in reference_group)
    cand_mag = sum(abs(k) for _, _, k in candidate_group)
    if cand_mag == 0.0:
        return 0.0
    return min(1.0, ref_mag / cand_mag)


def _scale_group(group: list[Term], factor: float) -> list[Term]:
    return [(p, j, k * factor) for p, j, k in group]


def _subtract_groups(group: list[Term], part: list[Term]) -> list[Term]:
    return [(p, j, k - kp) for (p, j, k), (_, _, kp) in zip(group, part)]


def cauchy_relative_error(reference: PoleResidueModel, candidate: PoleResidueModel) -> float:
    """Cauchy-bound counterpart of :func:`relative_error`."""
    norm_squared = transient_energy(reference)
    if not np.isfinite(norm_squared) or norm_squared == 0.0:
        return relative_error(reference, candidate)
    return cauchy_bound_distance(reference, candidate) / math.sqrt(norm_squared)


#: The named relative-error estimators selectable via
#: ``AweAnalyzer.response(error_method=...)`` — the single registry the
#: driver dispatches on and the ``order_escalation`` trace events cite.
ESTIMATORS = {
    "exact": relative_error,
    "cauchy": cauchy_relative_error,
}
