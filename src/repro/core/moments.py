r"""Moment computation — the workhorse of AWE (paper Secs. 3.1–3.2).

For the descriptor system ``G x + C ẋ = B u`` the homogeneous response
from an initial homogeneous state ``y₀`` is, in the Laplace domain,

.. math::

    Y(s) = (G + sC)^{-1} C\,y_0 = \\sum_{k \\ge 0} m_k s^k,
    \\qquad m_0 = G^{-1} C y_0, \\quad m_{k+1} = -G^{-1} C m_k,

which is exactly the paper's recursion (its eqs. 33–34) expressed on the
MNA matrices: every extra moment costs one forward/back substitution with
the LU factors of ``G`` — the "succession of dc solutions" of Sec. IV,
where the capacitors act as current sources valued by the previous moment.

This module also computes the *particular* (step + ramp following)
solution ``x_p(t) = c_0 + c_1 t`` for an excitation ``u(t) = u_0 + u_1 t``
(paper eq. 6) and the homogeneous initial state it leaves behind
(paper eq. 8).

Floating capacitive nodes are handled by the charge-augmented solves of
:class:`~repro.analysis.mna.MnaSystem`: the moment recursion supplies zero
for each group's total-charge row (the homogeneous response carries no
trapped charge once the particular solution absorbs it), and the
particular solution pins the trapped charge explicitly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.mna import MnaSystem
from repro.errors import AnalysisError

#: Relative tolerance for "a current source feeds a floating group" checks.
_CHARGE_TOL = 1e-9


def moment_chain(system: MnaSystem, first: np.ndarray, count: int,
                 solve=None) -> list[np.ndarray]:
    """The moment recursion itself (paper eqs. 33–34), ``count`` vectors.

    ``v₀ = solve(first)`` and ``v_{k+1} = solve(−C·v_k)``: one
    forward/back substitution per moment against one factorisation.
    ``solve`` defaults to :meth:`~repro.analysis.mna.MnaSystem.solve_augmented`
    (the LU of ``G`` with the charge rows); ``first`` may stack several
    chains as columns, which then advance with one multi-RHS solve per
    order.  Every vector counts one ``moment_solves`` and one
    ``moments_computed`` per column.
    """
    solve = system.solve_augmented if solve is None else solve
    vectors: list[np.ndarray] = []
    for _ in range(count):
        vector = solve(-(system.C @ vectors[-1]) if vectors else first)
        vectors.append(vector)
        system.stats.add("moment_solves", 1)
        system.stats.add("moments_computed",
                         vector.shape[1] if vector.ndim == 2 else 1)
    return vectors


def _continue(system: MnaSystem, chain, extra: int) -> tuple[np.ndarray, ...]:
    """``extra`` further vectors of a :class:`MomentSet` or
    :class:`MomentBatch` chain; its first solve is ``C·initial``."""
    if extra <= 0:
        return ()
    if chain.vectors:
        first = -(system.C @ chain.vectors[-1])
    else:
        first = system.C @ chain.initial
    return tuple(moment_chain(system, first, extra))


def _reject_trapped_charge(system: MnaSystem, states: np.ndarray) -> None:
    """Raise unless every homogeneous state (a column of ``states``)
    carries no trapped floating-group charge, to one part in 10⁹ of its
    scale: the particular solution must have absorbed it."""
    if not system.floating_groups:
        return
    for y0 in states.T:
        charges = system.group_charge(y0)
        scale = float(np.abs(system.C @ y0).max()) + 1e-300
        if np.any(np.abs(charges) > _CHARGE_TOL * scale):
            raise AnalysisError(
                "homogeneous initial state carries trapped charge; the "
                "particular solution must absorb floating-group charge"
            )


@dataclasses.dataclass(frozen=True)
class MomentSet:
    """The initial state and moment vectors of one homogeneous problem.

    ``initial`` is the paper's ``m₋₁`` vector (the homogeneous response at
    t = 0⁺); ``vectors[k]`` is ``m_k``.  :meth:`sequence_for` extracts the
    scalar moment sequence ``[m₋₁, m₀, …]`` of a single MNA unknown, which
    is what the Padé stage consumes.
    """

    initial: np.ndarray
    vectors: tuple[np.ndarray, ...]

    @property
    def count(self) -> int:
        """Number of non-negative moments available (excludes ``m₋₁``)."""
        return len(self.vectors)

    def sequence_for(self, row: int) -> np.ndarray:
        """``[m₋₁, m₀, m₁, …]`` for one unknown, as a plain float array."""
        return np.array([self.initial[row], *[m[row] for m in self.vectors]])

    def extended(self, system: MnaSystem, extra: int) -> "MomentSet":
        """A new set with ``extra`` further moments appended (incremental
        order escalation reuses everything already computed)."""
        return MomentSet(self.initial, self.vectors + _continue(system, self, extra))


@dataclasses.dataclass(frozen=True)
class MomentBatch:
    """Moment chains of several homogeneous problems, advanced together.

    ``initial`` stacks the problems' initial states as the columns of a
    ``(dim, k)`` matrix; ``vectors[j]`` is the ``(dim, k)`` matrix whose
    column ``i`` is moment ``m_j`` of problem ``i``.  Because every chain
    shares the same ``G`` factorisation, one multi-RHS
    :meth:`~repro.analysis.mna.MnaSystem.solve_augmented` call per order
    advances *all* of them — the batched form of the paper's
    "succession of dc solutions" (Sec. IV).

    :meth:`column` splits one problem back out as an ordinary
    :class:`MomentSet`; the per-column numbers are identical to what ``k``
    separate recursions would produce (the LU substitutions are applied
    column-by-column either way).
    """

    initial: np.ndarray
    vectors: tuple[np.ndarray, ...]

    @property
    def count(self) -> int:
        """Number of non-negative moment orders available."""
        return len(self.vectors)

    @property
    def width(self) -> int:
        """Number of stacked problems (columns)."""
        return self.initial.shape[1]

    def extended(self, system: MnaSystem, extra: int) -> "MomentBatch":
        """Append ``extra`` further moment orders — one shared multi-RHS
        solve per order regardless of :attr:`width`."""
        return MomentBatch(self.initial, self.vectors + _continue(system, self, extra))

    def column(self, i: int) -> MomentSet:
        """Problem ``i``'s chain as a standalone :class:`MomentSet`."""
        return MomentSet(
            np.ascontiguousarray(self.initial[:, i]),
            tuple(np.ascontiguousarray(m[:, i]) for m in self.vectors),
        )


def homogeneous_moments(system: MnaSystem, y0: np.ndarray, count: int) -> MomentSet:
    """The first ``count`` moments of the homogeneous response from ``y0``.

    ``y0`` must carry no trapped charge in any floating group (the caller
    subtracts a particular solution that absorbs it); this is asserted to
    one part in 10⁹ of the state scale.
    """
    y0 = np.asarray(y0, dtype=float)
    _reject_trapped_charge(system, y0[:, np.newaxis])
    return MomentSet(y0, ()).extended(system, count)


def homogeneous_moments_batch(
    system: MnaSystem, y0_columns: np.ndarray, count: int
) -> MomentBatch:
    """Moment chains of several homogeneous problems in one batch.

    ``y0_columns`` is ``(dim, k)``; each column is checked for trapped
    floating-group charge exactly as :func:`homogeneous_moments` checks a
    single state, then all ``k`` chains are advanced with one multi-RHS
    solve per order.
    """
    y0_columns = np.asarray(y0_columns, dtype=float)
    if y0_columns.ndim != 2:
        raise AnalysisError("homogeneous_moments_batch expects column-stacked states")
    _reject_trapped_charge(system, y0_columns)
    return MomentBatch(y0_columns, ()).extended(system, count)


@dataclasses.dataclass(frozen=True)
class ParticularSolution:
    """``x_p(t) = c0 + c1·t`` for a step+ramp excitation (paper eq. 6)."""

    c0: np.ndarray
    c1: np.ndarray

    def at(self, t: float) -> np.ndarray:
        return self.c0 + self.c1 * t

    def row(self, row: int) -> tuple[float, float]:
        """The (offset, slope) pair of one unknown."""
        return float(self.c0[row]), float(self.c1[row])


def particular_solution(
    system: MnaSystem,
    u0: np.ndarray,
    u1: np.ndarray,
    group_charges: np.ndarray | None = None,
) -> ParticularSolution:
    """Particular solution for ``u(t) = u0 + u1·t`` applied for t ≥ 0.

    ``group_charges`` fixes each floating group's trapped charge (so that
    the homogeneous remainder decays); it defaults to zero, the correct
    value for the zero-initial-state event subproblems.

    Raises :class:`AnalysisError` when a ramp source feeds net current into
    a floating group — the trapped charge would grow quadratically and no
    linear particular solution exists.  This is the one-column case of
    :func:`particular_solutions`.
    """
    (solution,) = particular_solutions(
        system,
        np.asarray(u0, dtype=float)[:, np.newaxis],
        np.asarray(u1, dtype=float)[:, np.newaxis],
        group_charges,
    )
    return solution


def particular_solutions(
    system: MnaSystem,
    u0_columns: np.ndarray,
    u1_columns: np.ndarray,
    group_charges: np.ndarray | None = None,
) -> list[ParticularSolution]:
    """Particular solutions of ``k`` step+ramp excitations in one batch.

    ``u0_columns`` / ``u1_columns`` are ``(n_sources, k)``;
    ``group_charges`` is ``(n_groups, k)``, or ``(n_groups,)`` for every
    column alike (default zero).  Each column is
    validated exactly as :func:`particular_solution` validates a single
    excitation; the ``2k`` linear systems then collapse into **two**
    multi-RHS triangular-solve calls against the shared factorisation.
    """
    u0_columns = np.asarray(u0_columns, dtype=float)
    u1_columns = np.asarray(u1_columns, dtype=float)
    if u0_columns.ndim != 2 or u1_columns.shape != u0_columns.shape:
        raise AnalysisError(
            "particular_solutions expects matching column-stacked excitations"
        )
    b0 = system.B @ u0_columns
    b1 = system.B @ u1_columns

    charge_c1 = None
    if system.floating_groups:
        for i in range(u1_columns.shape[1]):
            ramp_injection = system.group_injection(u1_columns[:, i])
            scale = float(np.abs(b1[:, i]).max()) + 1e-300
            if np.any(np.abs(ramp_injection) > _CHARGE_TOL * scale):
                raise AnalysisError(
                    "a ramp source injects current into a floating node group; "
                    "its charge grows without bound"
                )
        charge_c1 = np.column_stack(
            [system.group_injection(u0_columns[:, i])
             for i in range(u0_columns.shape[1])]
        )

    c1 = system.solve_augmented(b1, charge_c1)
    c0 = system.solve_augmented(b0 - system.C @ c1, group_charges)
    return [
        ParticularSolution(
            np.ascontiguousarray(c0[:, i]), np.ascontiguousarray(c1[:, i])
        )
        for i in range(u0_columns.shape[1])
    ]
