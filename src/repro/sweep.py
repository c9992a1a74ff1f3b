"""``repro.sweep``: incremental what-if sweeps — one factorization, thousands of points.

AWE's core economy (paper Sec. 3.2) is that one LU factorization of the
MNA conductance matrix yields *every* moment.  This module extends that
economy across **netlist deltas**: an ECO loop asking "what if R17 were
20 % larger?  what if C3 were 40 fF?  what if the driver stepped to
0.9 V?" should never pay for a full re-parse, re-stamp, re-factor per
question.  The :class:`SweepEngine` analyzes the base circuit once and
then evaluates each perturbation point by recomputing only what the
delta touches.  The engine pays **one** LU factorization of ``G``;
every forward solve and every adjoint (``G⁻ᵀ``) solve of the first two
tiers is a triangular substitution on it
(:meth:`~repro.analysis.mna.MnaSystem.solve_augmented` with
``transpose=True`` for the adjoints), so only exact-tier points
refactor.  It chooses per point among three tiers:

``first_order``
    The precomputed adjoint gradient (:func:`repro.core.sensitivity.
    delay_sensitivities` on the engine's system — two adjoint solves
    for *all* elements at once, once per output node).  O(1) per
    point.  Exact for capacitor scalings (the Elmore delay is linear in
    each capacitance); first-order in resistance, with a
    Sherman–Morrison curvature estimate gating its use.
``rank1``
    Sherman–Morrison rank-1 updates on the base factorization.  A
    single-element stamp is ``ΔG = Δg·wwᵀ`` (``w`` the element's
    incidence vector), so every perturbed solve is the base solve plus
    a correction along the cached direction ``z = G⁻¹w`` — O(dim²) per
    point (two triangular substitutions), no refactorization.  Exact in
    algebra; agrees with a from-scratch solve to roundoff.  Source
    retunes are the RHS analogue (moments are linear in the source
    vector) and use cached per-source response columns.
``exact``
    The escape hatch: re-stamp the perturbed circuit (one
    :meth:`SweepEngine.variant` of the already-parsed base — no
    re-parse) and refactor.  :meth:`SweepEngine.restamp` is the one
    code path behind this tier, :meth:`SweepEngine.direct_point` and
    the exact corners and Monte Carlo samples of :mod:`repro.timing`,
    so exact-mode results match a from-scratch evaluation **bit for
    bit**.  Points land here when the
    rank-1 update is invalid (a Sherman–Morrison denominator near zero
    — the perturbation drives the system singular) or when a tier's
    estimated error exceeds the plan's bound; such demotions set
    ``fallback=True`` and emit a ``sweep_fallback`` trace event.

The swept quantity is the zero-state step response's leading transfer
moments at one output node — ``dc`` (the final value), ``m1`` (the
first moment), and the Elmore delay ``−m1/dc`` — the same quantities
the adjoint sensitivity layer differentiates.  Scope matches that
layer: linear R/C/V/I circuits without floating capacitive groups.

Typical use::

    from repro.sweep import SweepEngine, SweepPlan, SweepPoint

    engine = SweepEngine(circuit, stimuli)
    plan = SweepPlan(node="8", points=tuple(
        SweepPoint(element="R3", scale=s) for s in scales
    ))
    result = engine.evaluate(plan)
    result.points[0].elmore_delay, result.points[0].mode
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.mna import MnaSystem, find_floating_groups
from repro.analysis.sources import Stimulus, complete_stimuli
from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Resistor,
    VoltageSource,
    canonical_node,
    GROUND,
)
from repro.circuit.netlist import Circuit
from repro.circuit.validation import require_rcvi, validate_for_analysis
from repro.core.moments import moment_chain
from repro.core.sensitivity import DelaySensitivities, delay_sensitivities
from repro.errors import AnalysisError
from repro.trace import NULL_TRACER

#: Sweep modes a plan (or the engine's per-point policy) may select.
MODES = ("auto", "first_order", "rank1", "exact")

#: |1 + Δg·wᵀG⁻¹w| below this (relative to 1) marks the Sherman–Morrison
#: update singular: the perturbation removes the system's unique DC
#: solution along that direction, so the point must re-stamp instead.
_SM_DENOMINATOR_FLOOR = 1e-9


def _incidence(system: MnaSystem, element) -> np.ndarray:
    """The element's stamp direction ``w``: +1 at its positive node, -1
    at its negative node (ground has no row)."""
    w = np.zeros(system.dimension)
    if element.positive != GROUND:
        w[system.index.node(element.positive)] = 1.0
    if element.negative != GROUND:
        w[system.index.node(element.negative)] = -1.0
    return w


def _across(system: MnaSystem, element, vector: np.ndarray) -> float:
    """``wᵀv`` for the element's :func:`_incidence` ``w``: two reads of
    ``v`` instead of a dot product over every row (ground reads 0)."""
    value = 0.0
    if element.positive != GROUND:
        value += float(vector[system.index.node(element.positive)])
    if element.negative != GROUND:
        value -= float(vector[system.index.node(element.negative)])
    return value


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One what-if question: set or scale one element (or source) value.

    Exactly one of ``value`` (absolute replacement) and ``scale``
    (multiplier on the base value) must be given.  ``element`` names a
    resistor, capacitor, or independent source of the base circuit; for
    a source, the perturbed quantity is its post-transition level.
    """

    element: str
    value: float | None = None
    scale: float | None = None
    label: str = ""

    def __post_init__(self):
        if (self.value is None) == (self.scale is None):
            raise AnalysisError(
                f"sweep point for {self.element!r} needs exactly one of "
                "value= or scale="
            )

    def target(self, base_value: float) -> float:
        """The perturbed value given the element's base value."""
        if self.value is not None:
            return float(self.value)
        return base_value * float(self.scale)


@dataclasses.dataclass(frozen=True)
class SweepPlan:
    """A batch of perturbation points against one output node.

    ``mode`` pins every point to one tier; ``"auto"`` (default) lets the
    engine choose per point.  ``first_order_threshold`` is the largest
    relative value change the gradient tier may serve;
    ``error_bound`` is the largest estimated relative error tolerated
    before a point escalates to the next tier.
    """

    node: str
    points: tuple[SweepPoint, ...]
    mode: str = "auto"
    first_order_threshold: float = 0.05
    error_bound: float = 1e-3

    def __post_init__(self):
        if self.mode not in MODES:
            raise AnalysisError(
                f"sweep mode must be one of {', '.join(MODES)}, got {self.mode!r}"
            )
        if not self.points:
            raise AnalysisError("a sweep plan needs at least one point")
        if self.first_order_threshold < 0.0:
            raise AnalysisError("first_order_threshold must be >= 0")
        if self.error_bound < 0.0:
            raise AnalysisError("error_bound must be >= 0")

    def to_payload(self) -> dict:
        """JSON-friendly form (the service request / cache-key payload)."""
        return {
            "node": self.node,
            "mode": self.mode,
            "first_order_threshold": self.first_order_threshold,
            "error_bound": self.error_bound,
            "points": [
                {
                    "element": p.element,
                    "value": p.value,
                    "scale": p.scale,
                    "label": p.label,
                }
                for p in self.points
            ],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SweepPlan":
        points = tuple(
            SweepPoint(
                element=str(entry["element"]),
                value=None if entry.get("value") is None else float(entry["value"]),
                scale=None if entry.get("scale") is None else float(entry["scale"]),
                label=str(entry.get("label", "")),
            )
            for entry in payload.get("points", ())
        )
        return cls(
            node=str(payload["node"]),
            points=points,
            mode=str(payload.get("mode", "auto")),
            first_order_threshold=float(payload.get("first_order_threshold", 0.05)),
            error_bound=float(payload.get("error_bound", 1e-3)),
        )


@dataclasses.dataclass(frozen=True)
class PointResult:
    """The swept quantities at one perturbation point.

    ``mode`` records the tier that produced the numbers; ``fallback``
    is True when the engine demoted the point below the tier the policy
    first tried (the ``sweep_fallback`` trace event carries the reason).
    ``error_estimate`` is the tier's own estimate of its relative error
    (0.0 where the update is exact in algebra, None for exact mode).
    """

    element: str
    value: float
    label: str
    mode: str
    dc: float
    m1: float
    elmore_delay: float
    error_estimate: float | None
    fallback: bool = False

    def to_payload(self) -> dict:
        return {
            "element": self.element,
            "value": self.value,
            "label": self.label,
            "mode": self.mode,
            "dc": self.dc,
            "m1": self.m1,
            "elmore_delay": self.elmore_delay,
            "error_estimate": self.error_estimate,
            "fallback": self.fallback,
        }


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """One evaluated :class:`SweepPlan`.

    ``base`` holds the unperturbed quantities; ``points`` one
    :class:`PointResult` per plan point, in plan order; ``stats`` the
    tier mix (``first_order`` / ``rank1`` / ``exact`` counts,
    ``fallbacks``, and ``factorizations`` paid beyond the base one).
    """

    node: str
    base: PointResult
    points: tuple[PointResult, ...]
    stats: dict

    @property
    def incremental_points(self) -> int:
        """Points served without refactorization."""
        return self.stats.get("first_order", 0) + self.stats.get("rank1", 0)

    def to_payload(self) -> dict:
        return {
            "node": self.node,
            "base": self.base.to_payload(),
            "points": [p.to_payload() for p in self.points],
            "stats": dict(self.stats),
        }


#: Why a circuit with a floating capacitive group cannot be swept.
_FLOATING_GROUPS = (
    "sweeps are not defined for floating capacitive groups "
    "(their moments are not simple functions of one factorization)"
)


def check_sweepable(circuit: Circuit) -> None:
    """Raise what :class:`SweepEngine` raises before it factors, from the
    circuit alone: the structural validation, the R/C/V/I check and the
    floating-group check, through the functions the engine and
    :class:`~repro.analysis.mna.MnaSystem` use.  The service's
    ``/sweep`` parser calls it, so such a deck is a bad request."""
    validate_for_analysis(circuit)
    require_rcvi(circuit, "sweeps")
    if find_floating_groups(circuit):
        raise AnalysisError(_FLOATING_GROUPS)


class SweepEngine:
    """Reusable incremental evaluator of one base circuit's what-ifs.

    All one-time work — validation, MNA assembly, the base LU
    factorization, the base solves, and the adjoint gradient — happens
    in the constructor (or lazily on the first point that needs it) and
    is shared by every :meth:`evaluate` call.  It is also the engine
    behind :mod:`repro.timing`'s corners and Monte Carlo, which read
    :meth:`gradient` for their linear tier and evaluate whole change
    sets with :meth:`restamp` for their exact one.

    Parameters
    ----------
    circuit:
        The base linear R/C/V/I circuit.  Never mutated: perturbed
        variants are derived with :meth:`variant`, on a copy.
    stimuli:
        Source stimuli; each source's *post-transition* level defines
        the step the swept moments belong to.  Unnamed sources default
        as in :class:`~repro.core.driver.AweAnalyzer`.
    tracer:
        Receives one ``sweep_point`` event per evaluated point and a
        ``sweep_fallback`` event per tier demotion.
    """

    def __init__(
        self,
        circuit: Circuit,
        stimuli: dict[str, Stimulus] | None = None,
        sparse: bool | None = None,
        tracer=None,
    ):
        validate_for_analysis(circuit)
        require_rcvi(circuit, "sweeps")
        self.circuit = circuit
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.system = MnaSystem(circuit, sparse=sparse, tracer=self.tracer)
        if self.system.floating_groups:
            raise AnalysisError(_FLOATING_GROUPS)
        self.source_order = list(self.system.index.source_names)
        self.stimuli = complete_stimuli(circuit, stimuli or {}, self.source_order)
        self._u = np.array(
            [self.stimuli[name].final_value for name in self.source_order]
        )
        # The factorization the base solves trigger is the one every
        # rank-1 point reuses.
        self._x_inf, self._m1 = moment_chain(
            self.system, np.asarray(self.system.B @ self._u).ravel(), 2)
        self._z_cache: dict[str, np.ndarray] = {}
        self._source_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._gradient_cache: dict[str, object] = {}
        self._adjoint_cache: dict[int, np.ndarray] = {}
        self.extra_factorizations = 0

    # -- base quantities -------------------------------------------------

    def base_point(self, node: str | int) -> PointResult:
        """The unperturbed quantities at ``node``."""
        row = self._row(node)
        dc, m1, elmore = _metrics(self._x_inf, self._m1, row)
        return PointResult(
            element="", value=0.0, label="base", mode="base",
            dc=dc, m1=m1, elmore_delay=elmore, error_estimate=0.0,
        )

    def _row(self, node: str | int) -> int:
        name = canonical_node(node)
        if name == GROUND:
            raise AnalysisError("ground is identically zero; nothing to sweep")
        return self.system.index.node(name)

    def _z(self, element) -> np.ndarray:
        """Cached ``z = G⁻¹w`` for an element's incidence vector — the
        shared direction of every Sherman–Morrison correction involving
        that element (one triangular substitution, ever)."""
        cached = self._z_cache.get(element.name)
        if cached is None:
            cached = self.system.solve_augmented(_incidence(self.system, element))
            self._z_cache[element.name] = cached
        return cached

    def _source_columns(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Cached ``(G⁻¹b_k, −G⁻¹C G⁻¹b_k)`` for one source column — the
        exact per-unit response a source retune scales (moments are
        linear in the source vector)."""
        cached = self._source_cache.get(name)
        if cached is None:
            column = self.system.b_column(self.system.index.source(name))
            cached = tuple(moment_chain(self.system, column, 2))
            self._source_cache[name] = cached
        return cached

    def gradient(self, node: str | int) -> DelaySensitivities:
        """The adjoint Elmore-delay gradient at ``node`` with respect to
        every R and C, cached per node: four solves on the base factors,
        two of them transpose solves.  The first-order tier reads it, as do the linear corner
        bounds and Monte Carlo samples of :mod:`repro.timing`."""
        node = canonical_node(node)
        cached = self._gradient_cache.get(node)
        if cached is None:
            cached = delay_sensitivities(
                self.circuit, node,
                {name: float(u) for name, u in zip(self.source_order, self._u)},
                system=self.system,
            )
            self._gradient_cache[node] = cached
        return cached

    # -- the tiers -------------------------------------------------------

    def _first_order(self, point: SweepPoint, node: str, row: int,
                     element, new_value: float):
        """Gradient tier: ``T ≈ T_base + ∂T/∂x · Δx``.

        Exact for capacitors (Elmore delay is linear in each C); for
        resistors the Sherman–Morrison curvature ratio ``ρ = Δg·wᵀz``
        estimates the dropped second-order term.  Returns ``None`` when
        the estimate exceeds the plan's bound (caller escalates).
        """
        gradient = self.gradient(node)
        base_dc, base_m1, base_elmore = _metrics(
            self._x_inf, self._m1, row
        )
        if isinstance(element, Capacitor):
            delta = new_value - element.capacitance
            elmore = base_elmore + gradient.d_capacitance[element.name] * delta
            # dc and m1: dc is C-independent; m1 = -elmore*dc exactly
            # (m1 linear in C, dc constant).
            return base_dc, -elmore * base_dc, elmore, 0.0
        delta = new_value - element.resistance
        g = element.conductance
        new_g = 1.0 / new_value
        delta_g = new_g - g
        z = self._z(element)
        rho = delta_g * _across(self.system, element, z)
        denominator = 1.0 + rho
        if abs(denominator) < _SM_DENOMINATOR_FLOOR:
            return None
        # The exact SM correction scales every first-order term by
        # 1/(1+ρ); the gradient tier drops that factor, so its relative
        # error on the correction is |ρ/(1+ρ)|, and on the delay itself
        # that times the correction's relative size.
        estimate = abs(rho / denominator)
        elmore = base_elmore + gradient.d_resistance[element.name] * delta
        correction = abs(elmore - base_elmore) / max(abs(base_elmore), 1e-300)
        estimate = estimate * min(correction, 1.0)
        # dc first-order: d(dc)/dg = -(aᵀw)(wᵀx_inf) with a = G⁻ᵀe_o —
        # the SM correction linearized (drop the 1/(1+ρ) factor).
        a_w = _across(self.system, element, self._adjoint_row_solve(row))
        x_w = _across(self.system, element, self._x_inf)
        dc = base_dc - delta_g * a_w * x_w
        m1 = -elmore * dc
        return dc, m1, elmore, estimate

    def _adjoint_row_solve(self, row: int) -> np.ndarray:
        """Cached ``a = G⁻ᵀe_row`` (one transpose solve per output row,
        on the base factors)."""
        cached = self._adjoint_cache.get(row)
        if cached is None:
            e = np.zeros(self.system.dimension)
            e[row] = 1.0
            cached = self.system.solve_augmented(e, transpose=True)
            self._adjoint_cache[row] = cached
        return cached

    def _rank1(self, point: SweepPoint, row: int, element, new_value: float):
        """Sherman–Morrison tier — the single-element stamp update.

        Conductance: ``(G + Δg·wwᵀ)⁻¹v = G⁻¹v − Δg(wᵀG⁻¹v)/(1+Δg·wᵀz)·z``
        with the cached ``z = G⁻¹w``; two fresh triangular substitutions
        per point, zero refactorizations.  Capacitance: the C-matrix
        update enters the moment solve linearly, one cached direction.
        Sources: exact linearity in the RHS.  Returns ``None`` when the
        denominator is degenerate (caller falls back to exact).
        """
        system = self.system
        if isinstance(element, (VoltageSource, CurrentSource)):
            base_level = self.stimuli[element.name].final_value
            delta_u = new_value - base_level
            s, t = self._source_columns(element.name)
            x_inf = self._x_inf + delta_u * s
            m1 = self._m1 + delta_u * t
            return (*_metrics(x_inf, m1, row), 0.0)
        if isinstance(element, Capacitor):
            delta_c = new_value - element.capacitance
            z = self._z(element)
            # ΔC = δ·wwᵀ ⇒ −G⁻¹(C + ΔC)x_inf = m1 − δ(wᵀx_inf)z.
            m1 = self._m1 - delta_c * _across(system, element, self._x_inf) * z
            return (*_metrics(self._x_inf, m1, row), 0.0)
        # Resistor: ΔG = Δg·wwᵀ.
        delta_g = 1.0 / new_value - element.conductance
        z = self._z(element)
        denominator = 1.0 + delta_g * _across(system, element, z)
        if abs(denominator) < _SM_DENOMINATOR_FLOOR:
            return None
        factor = delta_g / denominator

        def perturbed_solve(base_solution: np.ndarray) -> np.ndarray:
            return (base_solution
                    - factor * _across(system, element, base_solution) * z)

        x_inf = perturbed_solve(self._x_inf)
        # m1' = −G'⁻¹C x_inf': one fresh substitution with the *base*
        # factors, then the same rank-1 correction.
        t = system.solve_augmented(-np.asarray(system.C @ x_inf).ravel())
        m1 = perturbed_solve(t)
        return (*_metrics(x_inf, m1, row), 0.0)

    def variant(self, values: dict[str, float],
                title: str | None = None) -> Circuit:
        """A copy of the base circuit with each resistor or capacitor
        named in ``values`` set to its new value (the base itself is
        never mutated).  ``title`` defaults to the base circuit's."""
        variant = self.circuit.copy(title)
        for name, value in values.items():
            element = self.circuit[name] if name in self.circuit else None
            if isinstance(element, Resistor):
                element = dataclasses.replace(element, resistance=value)
            elif isinstance(element, Capacitor):
                element = dataclasses.replace(element, capacitance=value)
            else:
                raise AnalysisError(
                    f"cannot re-stamp {name!r}: not a resistor or capacitor "
                    "of the base circuit"
                )
            variant.replace(element)
        return variant

    def restamp(self, values: dict[str, float],
                node: str | int) -> tuple[float, float, float]:
        """Exact ``(dc, m1, elmore_delay)`` at ``node`` for a whole change
        set: ``values`` maps resistor and capacitor names to new values
        and source names to new post-transition levels.  The element
        changes go into one :meth:`variant`, stamped and factored afresh;
        the source levels only change ``u``.

        The exact tier, :meth:`direct_point` and the exact corners and
        Monte Carlo samples of :mod:`repro.timing` all evaluate here, so
        they agree bit for bit.  Each call is one LU, counted in
        :attr:`extra_factorizations`.
        """
        row = self._row(node)
        u = self._u.copy()
        elements = {}
        for name, value in values.items():
            if name in self.stimuli:
                u[self.system.index.source(name)] = value
            else:
                elements[name] = value
        circuit = self.variant(elements) if elements else self.circuit
        system = MnaSystem(circuit, sparse=self.system.use_sparse)
        self.extra_factorizations += 1
        x_inf, m1 = moment_chain(system, np.asarray(system.B @ u).ravel(), 2)
        return _metrics(x_inf, m1, row)

    # -- evaluation ------------------------------------------------------

    def direct_point(self, point: SweepPoint, node: str | int) -> PointResult:
        """From-scratch reference for one point: fresh stamp, fresh
        factorization, same metric arithmetic.  Exact-mode sweep results
        equal this bit for bit; rank-1 results to roundoff."""
        element, new_value = self._resolve(point)
        dc, m1, elmore = self.restamp({element.name: new_value}, node)
        return PointResult(
            element=element.name, value=new_value,
            label=point.label, mode="direct",
            dc=dc, m1=m1, elmore_delay=elmore, error_estimate=None,
        )

    def _resolve(self, point: SweepPoint):
        try:
            element = self.circuit[point.element]
        except KeyError:
            raise AnalysisError(
                f"sweep point names unknown element {point.element!r}"
            ) from None
        if isinstance(element, Resistor):
            base = element.resistance
        elif isinstance(element, Capacitor):
            base = element.capacitance
        elif isinstance(element, (VoltageSource, CurrentSource)):
            base = self.stimuli[element.name].final_value
        else:
            raise AnalysisError(
                f"cannot sweep element {point.element!r} of type "
                f"{type(element).__name__}"
            )
        new_value = point.target(base)
        if isinstance(element, (Resistor, Capacitor)) and new_value <= 0.0:
            raise AnalysisError(
                f"sweep point drives {point.element!r} to non-physical "
                f"value {new_value!r}"
            )
        return element, new_value

    def evaluate(self, plan: SweepPlan) -> SweepResult:
        """Evaluate every plan point, choosing the cheapest valid tier."""
        row = self._row(plan.node)
        node = canonical_node(plan.node)
        base = self.base_point(node)
        counts = {"first_order": 0, "rank1": 0, "exact": 0, "fallbacks": 0}
        factorizations_before = self.extra_factorizations
        results: list[PointResult] = []
        with self.tracer.span("sweep", node=node, points=len(plan.points)):
            for point in plan.points:
                results.append(self._evaluate_point(plan, point, node, row, counts))
        counts["factorizations"] = self.extra_factorizations - factorizations_before
        return SweepResult(node=node, base=base, points=tuple(results),
                           stats=counts)

    def _evaluate_point(self, plan: SweepPlan, point: SweepPoint,
                        node: str, row: int, counts: dict) -> PointResult:
        element, new_value = self._resolve(point)
        mode = plan.mode
        fallback = False

        def demote(target: str, reason: str) -> None:
            nonlocal fallback
            fallback = True
            counts["fallbacks"] += 1
            self.tracer.event(
                "sweep_fallback", element=element.name, label=point.label,
                from_mode=mode, to_mode=target, reason=reason,
            )

        outcome = None
        chosen = None
        is_source = isinstance(element, (VoltageSource, CurrentSource))

        if mode in ("auto", "first_order") and not is_source:
            base_value = (element.resistance if isinstance(element, Resistor)
                          else element.capacitance)
            relative = abs(new_value - base_value) / abs(base_value)
            if relative <= plan.first_order_threshold or mode == "first_order":
                candidate = self._first_order(point, node, row, element, new_value)
                if candidate is not None and (
                    candidate[3] <= plan.error_bound or mode == "first_order"
                ):
                    outcome, chosen = candidate, "first_order"
                elif mode == "first_order":
                    demote("exact", "first-order update invalid (singular)")
                    outcome = (*self.restamp({element.name: new_value}, node), None)
                    chosen = "exact"
                elif candidate is not None:
                    demote("rank1",
                           f"first-order estimate {candidate[3]:.3g} exceeds "
                           f"bound {plan.error_bound:g}")

        # Source retunes are exact-linear rank-1 RHS updates, so they go
        # through the rank-1 tier whatever non-exact mode was requested.
        if outcome is None and (mode in ("auto", "rank1")
                                or (is_source and mode == "first_order")):
            candidate = self._rank1(point, row, element, new_value)
            if candidate is not None:
                outcome, chosen = candidate, "rank1"
            else:
                demote("exact", "rank-1 denominator is degenerate "
                                "(perturbation drives the system singular)")

        if outcome is None:
            outcome = (*self.restamp({element.name: new_value}, node), None)
            chosen = "exact"

        counts[chosen] += 1
        dc, m1, elmore, estimate = outcome
        self.tracer.event(
            "sweep_point", element=element.name, label=point.label,
            mode=chosen, value=new_value,
            error_estimate=None if estimate is None else float(estimate),
            fallback=fallback,
        )
        return PointResult(
            element=element.name, value=new_value, label=point.label,
            mode=chosen, dc=dc, m1=m1, elmore_delay=elmore,
            error_estimate=estimate, fallback=fallback,
        )


def _metrics(x_inf: np.ndarray, m1_vector: np.ndarray, row: int):
    """``(dc, m1, elmore_delay)`` at ``row`` from ``moment_chain(Bu, 2)``."""
    dc = float(x_inf[row])
    m1 = float(m1_vector[row])
    if dc == 0.0:
        raise AnalysisError("output node sees no steady-state swing")
    return dc, m1, -m1 / dc


def sweep(circuit: Circuit, stimuli, plan: SweepPlan, tracer=None) -> SweepResult:
    """One-shot convenience wrapper around :class:`SweepEngine`."""
    return SweepEngine(circuit, stimuli, tracer=tracer).evaluate(plan)


__all__ = [
    "MODES",
    "PointResult",
    "SweepEngine",
    "SweepPlan",
    "SweepPoint",
    "SweepResult",
    "check_sweepable",
    "sweep",
]
