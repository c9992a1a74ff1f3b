"""The AWE analysis driver: circuit + stimuli → approximate waveforms.

This is the public entry point of the reproduction's core.  It performs
the full pipeline of the paper's Sections III–IV:

1. **Decomposition.**  The excitation is split into a *release* subproblem
   (the circuit relaxing from its t = 0 state under the pre-event source
   levels — this is where nonequilibrium initial conditions and charge
   sharing live) plus one *event* subproblem per distinct stimulus
   breakpoint (each a step+ramp applied to a relaxed circuit — paper
   Sec. 4.3 / Fig. 13 superposition).
2. **Particular solutions and homogeneous states** for each subproblem
   (paper eqs. 6–8), including floating-group trapped charge.
3. **Moments** by the LU recursion (eqs. 33–34), shared across output
   nodes and across orders (escalation only appends moments).
4. **Padé pole extraction** with frequency scaling (eqs. 24–25, 47),
   **residues** (eq. 20 / 29), per output.
5. **Stability screening and order escalation** (Sec. 3.3): unstable or
   unsolvable low orders are bumped until the (q+1)-vs-q error estimate
   (Sec. 3.4) meets the target.

Subproblems whose moment chains are exact copies or exact negatives of
an earlier one's — the two halves of a ramp from rest, the edges of an
equal-edge pulse — are *mirrors*: each output escalates once per
distinct chain, and a mirror takes its source's poles, order, estimate
and notes, with residues from its own moments (see ``Subproblem``).

Typical use::

    from repro import AweAnalyzer, Step

    analyzer = AweAnalyzer(circuit, {"Vin": Step(0.0, 5.0)})
    response = analyzer.response("7", order=2)      # fixed order, or
    response = analyzer.response("7", error_target=0.01)   # auto order
    response.waveform.evaluate(times)
    response.delay(threshold=4.0)
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

import numpy as np

from repro.analysis.dcop import (
    StorageState,
    initial_operating_point,
    resolve_initial_storage_state,
)
from repro.analysis.mna import MnaSystem
from repro.analysis.sources import Stimulus, complete_stimuli
from repro.circuit.elements import GROUND, canonical_node
from repro.circuit.netlist import Circuit
from repro.circuit.validation import validate_for_analysis
from repro.core.error import ESTIMATORS
from repro.core.model import AweWaveform, PoleResidueModel
from repro.core.moments import (
    MomentSet,
    homogeneous_moments,
    homogeneous_moments_batch,
    particular_solutions,
)
from repro.core.pade import match_poles
from repro.core.residues import refit_residues, solve_residues
from repro.errors import (
    ApproximationError,
    MomentMatrixError,
    OrderLimitError,
    UnstableApproximationError,
)
from repro.trace import NULL_TRACER

#: Homogeneous states smaller than this (relative to the particular scale)
#: are treated as "already at steady state" — no transient model is built.
_NEGLIGIBLE = 1e-12


@dataclasses.dataclass(frozen=True)
class Subproblem:
    """One step/ramp excitation instant with its moments.

    ``t0`` is the absolute event time; ``c0``/``c1`` the particular
    solution vectors; ``moments`` the shared homogeneous moment vectors;
    ``slope_reference`` optional state-derivative data for slope matching.

    ``mirror`` is ``(index, sign)`` when this subproblem's moment chain
    (initial state and every moment vector), particular slope ``c1`` and
    slope references equal ``sign`` times those of the earlier subproblem
    ``index``, bitwise.  The moment recursion is linear and keeps a sign
    flip exact, so every output's fit inputs are then exact ± copies and
    so is its Padé fit.
    """

    label: str
    t0: float
    c0: np.ndarray
    c1: np.ndarray
    moments: MomentSet
    slope_reference: dict[str, float]
    trivial: bool
    mirror: tuple[int, int] | None = None


@dataclasses.dataclass(frozen=True)
class ComponentApproximation:
    """Diagnostics for one output on one subproblem."""

    label: str
    order: int
    poles: np.ndarray
    error_estimate: float | None
    escalations: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class AweResponse:
    """The result of one AWE output analysis."""

    node: str
    waveform: AweWaveform
    components: tuple[ComponentApproximation, ...]

    @property
    def order(self) -> int:
        """The largest order used across subproblems."""
        return max((c.order for c in self.components), default=0)

    @property
    def error_estimate(self) -> float | None:
        """The worst per-subproblem error estimate (paper Sec. 3.4)."""
        estimates = [c.error_estimate for c in self.components if c.error_estimate is not None]
        return max(estimates) if estimates else None

    @property
    def poles(self) -> np.ndarray:
        """Poles of the dominant (largest-order) subproblem model."""
        if not self.components:
            return np.array([])
        best = max(self.components, key=lambda c: c.order)
        return best.poles

    def delay(self, threshold: float) -> float:
        """First time the response crosses ``threshold`` (Sec. 5.3)."""
        return self.waveform.threshold_delay(threshold)

    def delay_50(self) -> float:
        """50 %-of-swing delay (paper Fig. 2) using initial/final values."""
        v0 = float(self.waveform.evaluate(0.0))
        v1 = self.waveform.final_value()
        return self.waveform.threshold_delay(0.5 * (v0 + v1), rising=v1 > v0)


class AweAnalyzer:
    """Reusable AWE analysis of one circuit under one set of stimuli.

    The expensive, output-independent work — MNA assembly, LU
    factorisation, subproblem decomposition, moment recursion — happens
    once and is shared by every :meth:`response` call and every order.

    Parameters
    ----------
    circuit:
        The linear RLC(+controlled sources) circuit.
    stimuli:
        Mapping of independent-source names to stimulus waveforms; unnamed
        sources step from their ``dc0`` to ``dc`` element values at t = 0.
    max_order:
        Hard cap on the approximation order (moments are computed lazily up
        to ``2·max_order + 1``).
    sparse:
        Factorisation backend override, forwarded to
        :class:`~repro.analysis.mna.MnaSystem` (``None`` auto-selects by
        dimension).
    tracer:
        A :class:`~repro.trace.Tracer` recording the span hierarchy and
        the escalation/stabilisation events of every :meth:`response`
        (see ``docs/observability.md``); defaults to the no-op
        :data:`~repro.trace.NULL_TRACER`.
    """

    def __init__(
        self,
        circuit: Circuit,
        stimuli: dict[str, Stimulus] | None = None,
        max_order: int = 8,
        sparse: bool | None = None,
        tracer=None,
    ):
        validate_for_analysis(circuit)
        self.circuit = circuit
        self.max_order = max_order
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.system = MnaSystem(circuit, sparse=sparse, tracer=self.tracer)
        self.source_order = list(self.system.index.source_names)
        self.stimuli = complete_stimuli(circuit, stimuli or {}, self.source_order)
        self._subproblems: list[Subproblem] | None = None
        self.baseline = 0.0

    def use_tracer(self, tracer) -> None:
        """Swap the attached tracer (``None`` detaches → no-op tracer).

        The batch engine reuses one analyzer across jobs but wants one
        trace *per job*; it calls this between jobs.  Spans for work that
        already happened (assembly, LU, the shared moment recursion) stay
        in the trace of the job that first triggered them.
        """
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.system.tracer = self.tracer

    # -- decomposition ---------------------------------------------------

    def subproblems(self) -> list[Subproblem]:
        """The release + per-event subproblems (built lazily, cached)."""
        if self._subproblems is None:
            self._subproblems = self._decompose()
        return self._subproblems

    def _moment_count(self, order: int) -> int:
        """Moments m₀…m_{2q} are needed for order q plus its q+1 error
        reference (2q − 1 for the match, two more for the reference)."""
        return 2 * order + 1

    def _decompose(self) -> list[Subproblem]:
        system = self.system
        circuit = self.circuit
        n_sources = len(self.source_order)
        u_pre = np.array(
            [self.stimuli[name].initial_value for name in self.source_order]
        )

        # Group stimulus breakpoints by time.
        events_by_time: dict[float, tuple[np.ndarray, np.ndarray]] = defaultdict(
            lambda: (np.zeros(n_sources), np.zeros(n_sources))
        )
        for k, name in enumerate(self.source_order):
            for event in self.stimuli[name].events():
                steps, slopes = events_by_time[event.time]
                steps[k] += event.step
                slopes[k] += event.slope_delta
        step0 = np.zeros(n_sources)
        slope0 = np.zeros(n_sources)
        if 0.0 in events_by_time:
            step0, slope0 = events_by_time.pop(0.0)

        count = self._moment_count(self.max_order)

        # Phase 1 — per-subproblem excitations and initial states.
        #
        # Main subproblem at t = 0: exactly the paper's eqs. 6–8 — the
        # initial state (pre-switching equilibrium overridden by explicit
        # ICs) released into the post-switching excitation
        # u(t) = (u_pre + step₀) + slope₀·t.  Any step at t = 0 and any
        # nonequilibrium charge live in the same homogeneous problem, as in
        # the paper's combined x_h(0).
        u0_main = u_pre + step0
        with self.tracer.span("operating_points", stats=system.stats):
            storage0 = resolve_initial_storage_state(
                system, dict(zip(self.source_order, u_pre))
            )
            u0_dict = dict(zip(self.source_order, u0_main))
            x0, rates = initial_operating_point(
                circuit, system, storage0, u0_dict, with_rates=True
            )
            charges = system.group_charge(x0) if system.floating_groups else None
            if charges is not None:
                self.tracer.event(
                    "trapped_charge_resolved",
                    groups=len(system.floating_groups),
                    charges=[float(q) for q in charges],
                )

            #: (label, t0, u0, u1, x_initial, slope_reference, group_charges)
            specs: list[tuple] = [
                ("main", 0.0, u0_main, slope0, x0,
                 self._state_rates_by_node(rates, storage0), charges)
            ]

            # Later events: zero-state step+ramp responses superposed with
            # a time shift (paper Sec. 4.3 / Fig. 13).
            zero_storage = StorageState(
                {cap.name: 0.0 for cap in circuit.capacitors},
                {ind.name: 0.0 for ind in circuit.inductors},
            )
            for t_e in sorted(events_by_time):
                u_step, u_slope = events_by_time[t_e]
                if not np.any(u_step) and not np.any(u_slope):
                    continue
                u_jump = {name: float(u_step[k]) for k, name in enumerate(self.source_order)}
                x_jump, jump_rates = initial_operating_point(
                    circuit, system, zero_storage, u_jump, with_rates=True
                )
                specs.append(
                    (f"event@{t_e:g}", t_e, u_step, u_slope, x_jump,
                     self._state_rates_by_node(jump_rates, zero_storage), None)
                )

        with self.tracer.span("moment_recursion", stats=system.stats,
                              orders=count) as moment_span:
            # Phase 2 — all particular solutions in two multi-RHS solves.
            group_charge_columns = None
            if system.floating_groups:
                n_groups = len(system.floating_groups)
                group_charge_columns = np.column_stack(
                    [np.zeros(n_groups) if spec[6] is None else spec[6] for spec in specs]
                )
            particulars = particular_solutions(
                system,
                np.column_stack([spec[2] for spec in specs]),
                np.column_stack([spec[3] for spec in specs]),
                group_charge_columns,
            )

            # Phase 3 — one shared moment recursion for every non-trivial
            # subproblem: the chains advance together, one triangular-solve
            # call per order no matter how many subproblems there are.
            y0s = [spec[4] - particular.c0 for spec, particular in zip(specs, particulars)]
            trivial_flags = [
                _is_negligible(y0, spec[4], particular.c0)
                for y0, spec, particular in zip(y0s, specs, particulars)
            ]
            active = [i for i, trivial in enumerate(trivial_flags) if not trivial]
            batch = None
            if active:
                batch = homogeneous_moments_batch(
                    system, np.column_stack([y0s[i] for i in active]), count
                )
            if moment_span is not None:
                moment_span.meta["subproblems"] = len(specs)
                moment_span.meta["active_chains"] = len(active)

        subproblems: list[Subproblem] = []
        sources: list[tuple[int, Subproblem]] = []
        for i, (spec, particular) in enumerate(zip(specs, particulars)):
            label, t0, _, _, _, slope_reference, _ = spec
            if trivial_flags[i]:
                # Preserves the single-subproblem path's trapped-charge
                # validation without computing any moments.
                moments = homogeneous_moments(system, y0s[i], 0)
            else:
                moments = batch.column(active.index(i))
            sub = Subproblem(
                label=label,
                t0=t0,
                c0=particular.c0,
                c1=particular.c1,
                moments=moments,
                slope_reference=slope_reference,
                trivial=trivial_flags[i],
            )
            if not sub.trivial:
                mirror = _find_mirror(sub, sources)
                if mirror is None:
                    sources.append((i, sub))
                else:
                    sub = dataclasses.replace(sub, mirror=mirror)
            subproblems.append(sub)
        return subproblems

    def _state_rates_by_node(self, rates, storage: StorageState) -> dict[str, float]:
        """Map initial dV/dt onto node names for nodes that own a grounded
        capacitor (the only outputs slope matching supports).  Rates are
        unavailable (None) when capacitors form loops."""
        result: dict[str, float] = {}
        if rates is None:
            return result
        for cap in self.circuit.capacitors:
            if not cap.is_grounded:
                continue
            rate = rates.capacitor_voltage_rates[cap.name]
            if cap.negative == GROUND:
                result[cap.positive] = rate  # v_node = +v_cap
            else:
                result[cap.negative] = -rate  # v_node = −v_cap
        return result

    # -- approximation ---------------------------------------------------

    def response(
        self,
        node: str | int,
        order: int | None = None,
        error_target: float = 0.01,
        match_initial_slope: bool = False,
        use_scaling: bool = True,
        error_method: str = "exact",
        stabilize: bool = False,
    ) -> AweResponse:
        """Approximate the voltage waveform at ``node``.

        Parameters
        ----------
        order:
            Fixed approximation order ``q``; ``None`` escalates from 1
            until the Sec. 3.4 error estimate is below ``error_target``.
        match_initial_slope:
            Apply the paper's Sec. 4.3 ``m₋₂`` extension (requires the
            output node to carry a grounded capacitor and ``q ≥ 2``).
        use_scaling:
            Frequency scaling of the moments (Sec. 3.5); disable only for
            the ablation study.
        error_method:
            ``"exact"`` (closed-form eq. 39) or ``"cauchy"`` (the paper's
            eq. 40–46 upper bound).
        stabilize:
            Fixed-order only: when the Padé fit produces right-half-plane
            poles, discard them and refit the residues on the remaining
            stable poles (partial Padé).  The result matches fewer moments
            but is guaranteed evaluable; the discard is recorded in the
            component diagnostics.
        """
        name = canonical_node(node)
        if name == GROUND:
            raise ApproximationError("ground is identically zero; nothing to approximate")
        row = self.system.index.node(name)

        # Build the shared subproblems (and their trace spans) before the
        # per-response span opens, so decomposition cost is attributed to
        # the pipeline, not to whichever output happened to come first.
        subproblems = self.subproblems()

        stats = self.system.stats
        models: list[PoleResidueModel] = []
        diagnostics: list[ComponentApproximation] = []
        fits: dict[int, tuple] = {}
        with self.tracer.span("response", stats=stats, node=name):
            with stats.timer("wall_time_s"):
                for index, sub in enumerate(subproblems):
                    if sub.mirror is None:
                        fits[index] = self._approximate_component(
                            sub, row, name, order, error_target,
                            match_initial_slope, use_scaling, error_method, stabilize,
                        )
                        model, info = fits[index]
                    else:
                        source = sub.mirror[0]
                        model, info = self._mirror_component(
                            sub, subproblems[source], fits[source], row, name,
                            match_initial_slope,
                        )
                    models.append(model)
                    if info is not None:
                        diagnostics.append(info)
            stats.add("responses", 1)
            with self.tracer.span("waveform", node=name):
                waveform = AweWaveform(
                    tuple(models), baseline=0.0, name=f"v({name})"
                )
        return AweResponse(
            node=name,
            waveform=waveform,
            components=tuple(diagnostics),
        )

    def stats(self) -> dict[str, float]:
        """Snapshot of the solver instrumentation counters accumulated by
        this analyzer (and its :class:`~repro.analysis.mna.MnaSystem`) —
        see :mod:`repro.instrumentation` for field semantics."""
        return self.system.stats.as_dict()

    def _approximate_component(
        self, sub: Subproblem, row: int, node_name: str,
        order, error_target, match_initial_slope, use_scaling, error_method,
        stabilize=False,
    ):
        offset, slope = float(sub.c0[row]), float(sub.c1[row])
        if sub.trivial:
            return (
                PoleResidueModel((), offset=offset, slope=slope, t0=sub.t0,
                                 name=f"{sub.label}"),
                None,
            )
        sequence = sub.moments.sequence_for(row)
        scale = np.abs(sequence).max()
        if scale == 0.0 or _component_is_quiet(sequence, sub, row):
            return (
                PoleResidueModel((), offset=offset, slope=slope, t0=sub.t0,
                                 name=f"{sub.label}"),
                None,
            )

        slope_constraint = None
        if match_initial_slope:
            slope_constraint = _slope_constraint(sub, node_name, slope)

        try:
            estimator = ESTIMATORS[error_method]
        except KeyError:
            raise ApproximationError(f"unknown error method {error_method!r}") from None

        with self.tracer.span("pade_escalation", subproblem=sub.label,
                              node=node_name):
            return self._escalate(
                sub, row, node_name, sequence, offset, slope, order,
                error_target, use_scaling, estimator, stabilize,
                slope_constraint,
            )

    def _mirror_component(
        self, sub: Subproblem, source: Subproblem, fit, row: int,
        node_name: str, match_initial_slope: bool,
    ):
        """A mirror's component from its source's ``(model, info)`` fit.

        The poles, order, estimate and notes are the source's; the
        residues come from one solve on those poles with the mirror's own
        moments — the last step of its own escalation, so the result is
        bitwise what fitting it directly gives, signed zeros included
        (negating the source's residues flips the sign of their zero
        imaginary parts)."""
        model, info = fit
        offset, slope = float(sub.c0[row]), float(sub.c1[row])
        if info is None:  # the source's output is quiet, so is the mirror's
            return (
                PoleResidueModel((), offset=offset, slope=slope, t0=sub.t0,
                                 name=sub.label),
                None,
            )
        constraint = None
        if match_initial_slope:
            constraint = _slope_constraint(sub, node_name, slope)
        order = len(model.terms)
        with self.tracer.span("residues", order=order):
            terms = refit_residues(
                model.terms, sub.moments.sequence_for(row),
                initial_slope=constraint if order >= 2 else None,
            )
        self.tracer.event(
            "fit_shared", subproblem=sub.label, node=node_name,
            source=source.label, sign=sub.mirror[1], order=info.order,
        )
        return (
            PoleResidueModel(tuple(terms), offset=offset, slope=slope,
                             t0=sub.t0, name=sub.label),
            dataclasses.replace(info, label=sub.label),
        )

    def _escalate(
        self, sub: Subproblem, row: int, node_name: str, sequence, offset,
        slope, order, error_target, use_scaling, estimator, stabilize,
        slope_constraint,
    ):
        """The order-selection loops (fixed and automatic), instrumented:
        every rejected order emits an ``order_escalation`` trace event
        carrying its error estimate when one was computable."""
        tracer = self.tracer
        escalations: list[str] = []
        last_failure: Exception | None = None

        def escalated(q: int, reason: str, estimate=None, target=None) -> None:
            self.system.stats.add("order_escalations", 1)
            tracer.event(
                "order_escalation", subproblem=sub.label, node=node_name,
                order=q, reason=reason,
                error_estimate=None if estimate is None else float(estimate),
                target=target,
            )

        def accept(model: PoleResidueModel, q: int, estimate, fallback=False):
            tracer.event(
                "order_accepted", subproblem=sub.label, node=node_name,
                order=q,
                error_estimate=None if estimate is None else float(estimate),
                fallback=fallback,
            )
            info = ComponentApproximation(
                label=sub.label, order=q, poles=model.poles,
                error_estimate=estimate, escalations=tuple(escalations),
            )
            return model, info

        if order is not None:
            # Fixed order: collapse downward when the moment matrix says the
            # response is of genuinely lower order, but — matching the
            # paper's use (its Fig. 20 plots a poor first-order fit) —
            # return whatever model the requested order yields, stable or
            # not, rather than silently escalating.
            for q in range(order, 0, -1):
                try:
                    model = self._fit(sequence, q, offset, slope, sub.t0, sub.label,
                                      use_scaling, slope_constraint)
                except (MomentMatrixError, ApproximationError) as exc:
                    escalations.append(f"order {q}: {exc}")
                    escalated(q, str(exc))
                    last_failure = exc
                    continue
                if stabilize and not model.is_stable:
                    model, dropped = _partial_pade(model, sequence, slope_constraint)
                    escalations.append(
                        f"order {q}: discarded {dropped} right-half-plane pole(s)"
                    )
                    tracer.event(
                        "partial_pade", subproblem=sub.label, node=node_name,
                        order=q, dropped=dropped,
                    )
                estimate = self._error_estimate(sequence, q, model, use_scaling, estimator)
                return accept(model, len(model.terms), estimate)
            raise last_failure if last_failure is not None else OrderLimitError(
                f"order {order} failed for {sub.label}"
            )

        # Automatic order escalation (paper Secs. 3.3–3.4): skip unstable
        # models, stop when the q+1-vs-q estimate meets the target AND the
        # (q+1) reference itself agrees with ITS next order.  A single
        # under-target estimate is not trusted on its own: near-degenerate
        # pole regimes produce a (q+1) reference that is as wrong as the
        # q model yet agrees with it, so the estimate undershoots the true
        # error by an order of magnitude (random_rc_tree(8, seed=3498)).
        # Requiring two consecutive orders under target and reporting the
        # wider of the two estimates makes the Sec. 3.4 check conservative.
        #
        # Stable models that cannot be fully verified are kept as
        # *fallbacks*, preferring an under-target-but-unconfirmed order
        # (estimate known) over a merely unverifiable one (estimate None);
        # escalation continues looking for a confirmed order and returns
        # the best fallback only if none is found.
        unconfirmed: tuple[PoleResidueModel, int, float] | None = None
        unverified: tuple[PoleResidueModel, int] | None = None
        for q in range(1, self.max_order + 1):
            try:
                model = self._fit(sequence, q, offset, slope, sub.t0, sub.label,
                                  use_scaling, slope_constraint)
            except (MomentMatrixError, ApproximationError) as exc:
                escalations.append(f"order {q}: {exc}")
                escalated(q, str(exc))
                last_failure = exc
                continue
            if not model.is_stable:
                escalations.append(f"order {q}: unstable pole")
                escalated(q, "unstable pole")
                last_failure = UnstableApproximationError(
                    f"order {q} produced a right-half-plane pole", order=q
                )
                continue
            estimate, reference = self._estimate_with_reference(
                sequence, q, model, use_scaling, estimator
            )
            if estimate is not None and estimate <= error_target:
                if reference is None:
                    # Exact-order response: the q-model reproduces the
                    # higher moments at roundoff, no confirmation needed.
                    return accept(model, q, estimate)
                confirmation = self._error_estimate(
                    sequence, q + 1, reference, use_scaling, estimator
                )
                if confirmation is not None:
                    widened = max(estimate, confirmation)
                    if widened <= error_target:
                        return accept(model, q, widened)
                    escalations.append(
                        f"order {q}: estimate {estimate:.3g} under target but "
                        f"order {q + 1} reference disagrees with order {q + 2} "
                        f"({confirmation:.3g})"
                    )
                    escalated(q, "next-order disagreement", widened, error_target)
                    continue
                # No usable (q+2) reference (moment budget exhausted near
                # max_order, or the higher fit is unstable): keep the
                # under-target order as the preferred fallback.
                escalations.append(
                    f"order {q}: estimate {estimate:.3g} under target but "
                    f"unconfirmed at order {q + 1}"
                )
                tracer.event(
                    "order_unverified", subproblem=sub.label, node=node_name,
                    order=q, error_estimate=float(estimate),
                )
                if unconfirmed is None or q > unconfirmed[1]:
                    unconfirmed = (model, q, estimate)
            elif estimate is None:
                escalations.append(f"order {q}: stable but unverifiable")
                tracer.event(
                    "order_unverified", subproblem=sub.label, node=node_name,
                    order=q,
                )
                unverified = (model, q)
            else:
                escalations.append(
                    f"order {q}: error {estimate:.3g} > target {error_target:g}"
                )
                escalated(q, "error above target", estimate, error_target)
        if unconfirmed is not None:
            model, q, estimate = unconfirmed
            escalations.append(f"returning unconfirmed order {q} fallback")
            return accept(model, q, estimate, fallback=True)
        if unverified is not None:
            model, q = unverified
            escalations.append(f"returning unverified order {q} fallback")
            return accept(model, q, None, fallback=True)
        raise OrderLimitError(
            f"no order ≤ {self.max_order} met error target {error_target:g} for "
            f"subproblem {sub.label} at node {row}: " + "; ".join(escalations)
        ) from last_failure

    def _fit(self, sequence, q, offset, slope, t0, label, use_scaling, slope_constraint):
        available = len(sequence) - 1  # number of m_k entries
        if 2 * q - 1 > available:
            raise MomentMatrixError(f"not enough moments for order {q}")
        with self.tracer.span("pade", order=q):
            pade = match_poles(sequence[: 2 * q], q, use_scaling=use_scaling)
        with self.tracer.span("residues", order=q):
            terms = solve_residues(pade.poles, sequence, initial_slope=slope_constraint)
        return PoleResidueModel(tuple(terms), offset=offset, slope=slope, t0=t0, name=label)

    def _error_estimate(self, sequence, q, model, use_scaling, estimator):
        """Error of the q-order model against the (q+1)-order reference.

        Returns ``None`` when no usable reference exists (insufficient
        moments, unstable (q+1) fit, or an ill-conditioned higher Hankel
        system that is *not* explained by the response being exactly
        order q) — the driver treats that as "unverified", not as "good".
        """
        estimate, _ = self._estimate_with_reference(
            sequence, q, model, use_scaling, estimator
        )
        return estimate

    def _estimate_with_reference(self, sequence, q, model, use_scaling, estimator):
        """Like :meth:`_error_estimate`, but also return the (q+1)-order
        reference model so the caller can confirm it against *its* next
        order (the two-consecutive-orders rule of the auto escalation).

        The reference is ``None`` both when no estimate exists and when the
        estimate is the exact-order 0.0 (the response IS order q — there is
        no distinct higher model to confirm)."""
        if 2 * (q + 1) > len(sequence):
            return None, None
        try:
            reference = self._fit(sequence, q + 1, model.offset, model.slope,
                                  model.t0, model.name, use_scaling, None)
        except (MomentMatrixError, ApproximationError):
            # Distinguish "the response IS order q" (the q-model already
            # reproduces the unmatched higher moments → error genuinely 0)
            # from mere ill-conditioning (unverifiable).
            if _reproduces_higher_moments(model, sequence, q):
                return 0.0, None
            return None, None
        if not reference.is_stable:
            return None, None
        return estimator(reference, model), reference


def _partial_pade(
    model: PoleResidueModel, sequence: np.ndarray, slope_constraint
) -> tuple[PoleResidueModel, int]:
    """Partial Padé stabilisation: discard right-half-plane poles and refit
    the residues of the surviving stable poles on the low-order moments.

    RHP poles from moment matching are almost always numerical artefacts
    with near-zero true weight; dropping them trades the highest matched
    moments for guaranteed evaluability.  Raises when nothing stable is
    left.
    """
    stable = np.array([p for p in model.poles if p.real < 0.0])
    dropped = model.order - len(stable)
    if len(stable) == 0:
        raise UnstableApproximationError(
            "every fitted pole is unstable; nothing to stabilise", order=model.order
        )
    constraint = slope_constraint if len(stable) >= 2 else None
    terms = solve_residues(stable, sequence[: len(stable) + 1], initial_slope=constraint)
    refit = PoleResidueModel(
        tuple(terms),
        offset=model.offset,
        slope=model.slope,
        t0=model.t0,
        name=model.name,
    )
    return refit, dropped


def _reproduces_higher_moments(
    model: PoleResidueModel, sequence: np.ndarray, q: int, rtol: float = 1e-9
) -> bool:
    """True when the q-order model already reproduces the available
    moments beyond its matched set — the signature of a response that is
    *exactly* order q (so the singular higher Hankel is structural, not
    numerical).

    The tolerance is deliberately near roundoff: s = 0 moments are nearly
    blind to well-damped high-frequency content, so loose agreement here
    does NOT imply waveform agreement (the classic single-expansion-point
    blind spot that multipoint successors of AWE addressed).  Only
    roundoff-level reproduction may claim exactness."""
    from repro.core.residues import _moment_coefficient

    for k in range(len(sequence) - 1):
        predicted = sum(
            residue * _moment_coefficient(pole, power, k)
            for pole, power, residue in model.terms
        )
        actual = sequence[k + 1]
        if abs(predicted.real - actual) > rtol * max(abs(actual), 1e-30):
            return False
    return True


def _slope_constraint(sub: Subproblem, node_name: str, slope: float) -> float:
    """The homogeneous initial slope at ``node_name`` for the paper's
    Sec. 4.3 ``m₋₂`` match: total initial slope − particular slope."""
    if node_name not in sub.slope_reference:
        raise ApproximationError(
            f"slope matching needs a grounded capacitor at node {node_name!r}"
        )
    return sub.slope_reference[node_name] - slope


def _find_mirror(
    sub: Subproblem, sources: list[tuple[int, Subproblem]]
) -> tuple[int, int] | None:
    """``(index, sign)`` of the first source whose moment chain, ``c1``
    and slope references equal ``sign`` times ``sub``'s, entry for entry;
    ``None`` when none does."""
    def vectors(s: Subproblem):
        return (s.moments.initial, *s.moments.vectors, s.c1)

    for index, other in sources:
        if other.slope_reference.keys() != sub.slope_reference.keys():
            continue
        for sign in (1, -1):
            if all(np.array_equal(mine, sign * theirs)
                   for mine, theirs in zip(vectors(sub), vectors(other))) and all(
                    rate == sign * other.slope_reference[node]
                    for node, rate in sub.slope_reference.items()):
                return index, sign
    return None


def _is_negligible(y0: np.ndarray, *references: np.ndarray) -> bool:
    scale = max((np.abs(r).max(initial=0.0) for r in references), default=0.0)
    return np.abs(y0).max(initial=0.0) <= _NEGLIGIBLE * max(scale, 1.0)


def _component_is_quiet(sequence: np.ndarray, sub: Subproblem, row: int) -> bool:
    """True when this output's homogeneous response is numerically zero even
    though the subproblem as a whole is active.

    Moments of different index carry different units (sⁿ), so each entry
    is compared against the same-index moment's magnitude across the whole
    MNA vector — a weakly coupled output (e.g. a mutual-inductance victim
    whose first nonzero moment is m₁) must NOT be misread as quiet by an
    index-blind comparison against the volt-scale initial vector.
    """
    if np.abs(sequence[0]) > 1e-13 * max(np.abs(sub.moments.initial).max(initial=0.0), 1e-300):
        return False
    for k, vector in enumerate(sub.moments.vectors):
        scale = np.abs(vector).max(initial=0.0)
        if scale > 0.0 and np.abs(sequence[k + 1]) > 1e-13 * scale:
            return False
    return True


def awe_response(
    circuit: Circuit,
    stimuli: dict[str, Stimulus] | None,
    node: str | int,
    order: int | None = None,
    **options,
) -> AweResponse:
    """One-shot convenience wrapper around :class:`AweAnalyzer`."""
    analyzer = AweAnalyzer(circuit, stimuli, max_order=options.pop("max_order", 8))
    return analyzer.response(node, order=order, **options)
