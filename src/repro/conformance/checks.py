"""The metamorphic-invariant registry of the conformance fuzzer.

Each check is a named function ``(case, config) -> list[str]``: an empty
list is a pass, each string a violation.  A check may raise
:class:`SkipCheck` when it does not apply to the case (the runner counts
skips separately from passes).  Any other exception escaping a check is
recorded by the runner as a ``crash`` violation — a crash *is* a finding.

The invariants are the paper's own mathematics turned into oracles:

``awe_vs_transient``
    The whole-stack differential oracle (Sec. 3.4): the auto-escalated
    AWE waveform must match the converged TR-BDF2 reference within the
    family-calibrated relative L2 bound.
``linearity``
    LTI homogeneity: scaling every stimulus *and* every initial
    condition by α scales the response by α, bit-for-bit up to roundoff.
``impedance_scaling``
    R→kR, L→kL, C→C/k leaves every voltage transfer — poles, residues,
    waveform — unchanged.
``time_scaling``
    C→kC, L→kL (and stimulus breakpoints →k·t) stretches time:
    v'(k·t) = v(t), poles' = poles / k.
``frequency_scaling``
    The eq. 47 γ-scaling of the moments is a numerical aid, not part of
    the answer: with and without it the final waveform must agree
    wherever the unscaled solve succeeds at the same order.
``elmore_first_order``
    On any RC tree, the first-order AWE pole is −1/T_Elmore at every
    node (Sec. II / IV equivalence).
``roundtrip``
    Writer/parser/canonicaliser idempotence: one canonical re-serialise
    is a fixed point, and the canonical key survives the round trip.
``canonical_key``
    The service cache's content address is invariant under card
    shuffling, comments, and title changes of the deck text.
``batch_vs_sequential``
    :class:`~repro.engine.batch.BatchEngine` results are bit-identical
    to a direct :class:`~repro.core.driver.AweAnalyzer` run.
``reduction_equivalence``
    RC-chain pre-reduction (:func:`repro.reduce.reduce_circuit`) is an
    approximation with a guaranteed shape: transfer moments m₀ and m₁
    (DC gain and Elmore) at every retained node are preserved exactly on
    *every* family, and on the ``long_chain`` family — where the
    sectioned pi collapse keeps higher-moment error ~1/k² small — full
    AWE waveforms and 50 % delays additionally agree within a calibrated
    2 % / 1 % bound.  Skipped when nothing in the case is collapsible.
``sweep_incremental``
    The incremental what-if engine (:mod:`repro.sweep`) against its own
    from-scratch reference: exact-tier points (including fallback
    demotions) must match ``direct_point`` **bit for bit**, rank-1
    Sherman–Morrison points to 1e-9 relative, first-order gradient
    points within the plan's stated error bound — and on RC trees a
    near-open resistor must *demote* to the exact tier rather than
    silently serve a degenerate rank-1 update.  Skipped for cases
    outside the engine's R/C/V/I no-floating-group scope.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.mna import MnaSystem
from repro.analysis.sources import DC, PWL, Pulse, Ramp, Step, Stimulus
from repro.analysis.transient import simulate
from repro.circuit.elements import Capacitor, Inductor, Resistor
from repro.circuit.netlist import Circuit
from repro.circuit.parser import parse_netlist
from repro.circuit.writer import write_netlist
from repro.core.driver import AweAnalyzer
from repro.core.transfer import transfer_moments
from repro.engine.batch import AweJob, BatchEngine
from repro.errors import AnalysisError, ReproError
from repro.rctree import elmore_delays
from repro.reduce import reduce_circuit
from repro.service.canon import canonical_deck, request_key
from repro.sweep import SweepEngine, SweepPlan, SweepPoint
from repro.waveform import l2_error

from repro.conformance.generate import FuzzCase


class SkipCheck(Exception):
    """Raised by a check that does not apply to the case at hand."""


@dataclasses.dataclass(frozen=True)
class FuzzConfig:
    """Knobs of one fuzzing run.

    ``use_scaling=False`` ablates the paper's eq. 47 frequency scaling in
    every AWE solve the checks perform — the canonical injected bug the
    acceptance tests (and ``--ablate-scaling``) use to prove the fuzzer
    actually detects and shrinks real defects.
    """

    checks: tuple[str, ...] = ()
    use_scaling: bool = True
    error_target: float = 0.005
    max_order: int = 8

    def check_names(self) -> tuple[str, ...]:
        return self.checks if self.checks else tuple(CHECKS)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _response(case: FuzzCase, config: FuzzConfig, node: str,
              circuit: Circuit | None = None, stimuli=None, order=None):
    analyzer = AweAnalyzer(circuit if circuit is not None else case.circuit,
                           case.stimuli if stimuli is None else stimuli,
                           max_order=config.max_order)
    return analyzer.response(node, order=order,
                             error_target=config.error_target,
                             use_scaling=config.use_scaling)


def _scaled_stimulus(stimulus: Stimulus, alpha: float) -> Stimulus:
    """The stimulus with every *voltage* multiplied by ``alpha``."""
    if isinstance(stimulus, DC):
        return DC(stimulus.level * alpha)
    if isinstance(stimulus, Step):
        return Step(stimulus.v0 * alpha, stimulus.v1 * alpha, delay=stimulus.delay)
    if isinstance(stimulus, Ramp):
        return Ramp(stimulus.v0 * alpha, stimulus.v1 * alpha,
                    rise_time=stimulus.rise_time, delay=stimulus.delay)
    if isinstance(stimulus, Pulse):
        return Pulse(stimulus.v0 * alpha, stimulus.v1 * alpha,
                     delay=stimulus.delay, rise=stimulus.rise,
                     width=stimulus.width, fall=stimulus.fall)
    if isinstance(stimulus, PWL):
        return PWL([(t, v * alpha) for t, v in stimulus.points])
    raise SkipCheck(f"cannot amplitude-scale stimulus {type(stimulus).__name__}")


def _time_scaled_stimulus(stimulus: Stimulus, k: float) -> Stimulus:
    """The stimulus with every *time* multiplied by ``k``."""
    if isinstance(stimulus, DC):
        return stimulus
    if isinstance(stimulus, Step):
        return Step(stimulus.v0, stimulus.v1, delay=stimulus.delay * k)
    if isinstance(stimulus, Ramp):
        return Ramp(stimulus.v0, stimulus.v1,
                    rise_time=stimulus.rise_time * k, delay=stimulus.delay * k)
    if isinstance(stimulus, Pulse):
        return Pulse(stimulus.v0, stimulus.v1, delay=stimulus.delay * k,
                     rise=stimulus.rise * k, width=stimulus.width * k,
                     fall=stimulus.fall * k)
    if isinstance(stimulus, PWL):
        return PWL([(t * k, v) for t, v in stimulus.points])
    raise SkipCheck(f"cannot time-scale stimulus {type(stimulus).__name__}")


def _value_scaled_circuit(circuit: Circuit, r_factor: float = 1.0,
                          l_factor: float = 1.0, c_factor: float = 1.0) -> Circuit:
    """A copy with every R/L/C multiplied by its factor (couplings are
    dimensionless coefficients and carry over unchanged)."""
    scaled = Circuit(circuit.title)
    for element in circuit:
        if isinstance(element, Resistor):
            element = dataclasses.replace(
                element, resistance=element.resistance * r_factor)
        elif isinstance(element, Capacitor):
            element = dataclasses.replace(
                element, capacitance=element.capacitance * c_factor)
        elif isinstance(element, Inductor):
            element = dataclasses.replace(
                element, inductance=element.inductance * l_factor)
        scaled.add(element)
    for coupling in circuit.mutual_inductances:
        scaled.add_mutual_inductance(coupling.name, coupling.inductor_a,
                                     coupling.inductor_b, coupling.coupling)
    return scaled


def _swing(waveform, window: float) -> float:
    values = waveform.evaluate(np.linspace(0.0, window, 64))
    return float(values.max() - values.min())


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_awe_vs_transient(case: FuzzCase, config: FuzzConfig) -> list[str]:
    violations: list[str] = []
    analyzer = AweAnalyzer(case.circuit, case.stimuli, max_order=config.max_order)
    responses = {
        node: analyzer.response(node, error_target=config.error_target,
                                use_scaling=config.use_scaling)
        for node in case.nodes
    }
    t_stop = max(r.waveform.suggested_window() for r in responses.values())
    reference = simulate(case.circuit, case.stimuli, t_stop,
                         refine_tolerance=case.refine_tolerance)
    for node, response in responses.items():
        ref = reference.voltage(node)
        try:
            error = l2_error(ref, response.waveform.to_waveform(ref.times))
        except AnalysisError:
            continue  # no transient at this node; nothing to compare
        if not error < case.l2_bound:
            violations.append(
                f"node {node}: AWE (order {response.order}) vs TR-BDF2 "
                f"relative L2 error {error:.4g} exceeds bound {case.l2_bound:g}"
            )
    return violations


def check_linearity(case: FuzzCase, config: FuzzConfig) -> list[str]:
    alpha = 2.0
    scaled_circuit = case.circuit.copy()
    for cap in case.circuit.capacitors:
        if cap.initial_voltage is not None:
            scaled_circuit.set_initial_voltage(cap.name, cap.initial_voltage * alpha)
    for ind in case.circuit.inductors:
        if ind.initial_current is not None:
            scaled_circuit.set_initial_current(ind.name, ind.initial_current * alpha)
    scaled_stimuli = {name: _scaled_stimulus(stim, alpha)
                      for name, stim in case.stimuli.items()}
    violations: list[str] = []
    for node in case.nodes:
        base = _response(case, config, node)
        scaled = _response(case, config, node,
                           circuit=scaled_circuit, stimuli=scaled_stimuli)
        window = base.waveform.suggested_window()
        times = np.linspace(0.0, window, 120)
        expected = alpha * base.waveform.evaluate(times)
        actual = scaled.waveform.evaluate(times)
        tolerance = 1e-6 * max(_swing(base.waveform, window) * alpha, 1e-12)
        worst = float(np.abs(actual - expected).max())
        if worst > tolerance:
            violations.append(
                f"node {node}: response is not homogeneous — scaling the "
                f"stimulus by {alpha:g} perturbs the waveform by {worst:.3g} "
                f"(tolerance {tolerance:.3g})"
            )
    return violations


def check_impedance_scaling(case: FuzzCase, config: FuzzConfig) -> list[str]:
    k = 10.0
    if any(ind.initial_current is not None for ind in case.circuit.inductors):
        raise SkipCheck("inductor initial currents do not survive impedance scaling")
    scaled_circuit = _value_scaled_circuit(case.circuit, r_factor=k,
                                           l_factor=k, c_factor=1.0 / k)
    violations: list[str] = []
    for node in case.nodes:
        base = _response(case, config, node)
        scaled = _response(case, config, node, circuit=scaled_circuit)
        window = base.waveform.suggested_window()
        times = np.linspace(0.0, window, 120)
        worst = float(np.abs(scaled.waveform.evaluate(times)
                             - base.waveform.evaluate(times)).max())
        tolerance = 1e-5 * max(_swing(base.waveform, window), 1e-12)
        if worst > tolerance:
            violations.append(
                f"node {node}: impedance scaling (R,L×{k:g}, C÷{k:g}) moved "
                f"the waveform by {worst:.3g} (tolerance {tolerance:.3g})"
            )
        if base.order == scaled.order and len(base.poles):
            drift = float(np.abs(np.sort(scaled.poles) - np.sort(base.poles)).max())
            scale = float(np.abs(base.poles).max())
            # Pole extraction re-solves a differently conditioned Hankel
            # system, and clustered poles move by eps^(1/m) under
            # eps-perturbations of the moments; real covariance bugs move
            # poles by O(1) factors, so 1e-3 relative keeps wide margin.
            if drift > 1e-3 * scale:
                violations.append(
                    f"node {node}: impedance scaling moved the poles by "
                    f"{drift:.3g} (relative to |p|max {scale:.3g})"
                )
    return violations


def check_time_scaling(case: FuzzCase, config: FuzzConfig) -> list[str]:
    k = 3.0
    scaled_circuit = _value_scaled_circuit(case.circuit, l_factor=k, c_factor=k)
    scaled_stimuli = {name: _time_scaled_stimulus(stim, k)
                      for name, stim in case.stimuli.items()}
    violations: list[str] = []
    for node in case.nodes:
        base = _response(case, config, node)
        scaled = _response(case, config, node,
                           circuit=scaled_circuit, stimuli=scaled_stimuli)
        window = base.waveform.suggested_window()
        times = np.linspace(0.0, window, 120)
        worst = float(np.abs(scaled.waveform.evaluate(k * times)
                             - base.waveform.evaluate(times)).max())
        tolerance = 1e-5 * max(_swing(base.waveform, window), 1e-12)
        if worst > tolerance:
            violations.append(
                f"node {node}: time scaling (C,L×{k:g}) is not a pure "
                f"time stretch — waveform moved by {worst:.3g} "
                f"(tolerance {tolerance:.3g})"
            )
        if base.order == scaled.order and len(base.poles):
            drift = float(np.abs(np.sort(scaled.poles) * k - np.sort(base.poles)).max())
            scale = float(np.abs(base.poles).max())
            if drift > 1e-3 * scale:
                violations.append(
                    f"node {node}: poles did not scale by 1/{k:g} under time "
                    f"scaling (drift {drift:.3g} vs |p|max {scale:.3g})"
                )
    return violations


def check_frequency_scaling(case: FuzzCase, config: FuzzConfig) -> list[str]:
    """Eq. 47 invariance: γ-scaling the moments must not change the
    answer, only the conditioning.  The unscaled path legitimately fails
    on stiff circuits (that failure is *why* the paper scales) — those
    cases are skips, not violations."""
    if not config.use_scaling:
        raise SkipCheck("frequency scaling is ablated by the config")
    violations: list[str] = []
    compared = 0
    for node in case.nodes:
        base = _response(case, config, node)
        try:
            unscaled = AweAnalyzer(
                case.circuit, case.stimuli, max_order=config.max_order
            ).response(node, error_target=config.error_target, use_scaling=False)
        except ReproError:
            continue
        if unscaled.order != base.order:
            continue  # the unscaled escalation took a different route
        compared += 1
        window = base.waveform.suggested_window()
        times = np.linspace(0.0, window, 120)
        worst = float(np.abs(unscaled.waveform.evaluate(times)
                             - base.waveform.evaluate(times)).max())
        tolerance = 1e-5 * max(_swing(base.waveform, window), 1e-12)
        if worst > tolerance:
            violations.append(
                f"node {node}: disabling eq. 47 frequency scaling changed the "
                f"order-{base.order} waveform by {worst:.3g} "
                f"(tolerance {tolerance:.3g})"
            )
    if not compared and not violations:
        raise SkipCheck("unscaled solve unusable on every output (stiff case)")
    return violations


def check_elmore_first_order(case: FuzzCase, config: FuzzConfig) -> list[str]:
    if not case.is_rc_tree:
        raise SkipCheck("Elmore equivalence only applies to RC trees")
    delays = elmore_delays(case.circuit)
    analyzer = AweAnalyzer(case.circuit, {case.source: Step(0.0, 1.0)},
                           max_order=config.max_order)
    violations: list[str] = []
    for node in case.nodes:
        response = analyzer.response(node, order=1,
                                     use_scaling=config.use_scaling)
        pole = float(response.poles[0].real)
        elmore = delays[node]
        if not np.isclose(-1.0 / pole, elmore, rtol=1e-8, atol=0.0):
            violations.append(
                f"node {node}: first-order AWE pole {pole:.6e} is not "
                f"-1/T_Elmore (T_Elmore {elmore:.6e}, -1/p {-1.0 / pole:.6e})"
            )
    return violations


def check_roundtrip(case: FuzzCase, config: FuzzConfig) -> list[str]:
    violations: list[str] = []
    text = write_netlist(case.circuit, case.stimuli)
    deck1 = parse_netlist(text)
    if len(deck1.circuit) != len(case.circuit):
        violations.append(
            f"writer/parser round trip changed the element count: "
            f"{len(case.circuit)} -> {len(deck1.circuit)}"
        )
    canon1 = canonical_deck(deck1.circuit, deck1.stimuli)
    deck2 = parse_netlist(canon1)
    canon2 = canonical_deck(deck2.circuit, deck2.stimuli)
    if canon1 != canon2:
        violations.append(
            "canonical serialisation is not a fixed point: "
            "write(parse(canonical)) differs from canonical"
        )
    if deck1.circuit.canonical_key() != deck2.circuit.canonical_key():
        violations.append("canonical key changed across a canonical round trip")
    for element in case.circuit:
        clone = deck1.circuit[element.name]
        for attr in ("resistance", "capacitance", "inductance"):
            if hasattr(element, attr) and getattr(clone, attr) != getattr(element, attr):
                violations.append(
                    f"{element.name}: {attr} {getattr(element, attr)!r} "
                    f"round-tripped to {getattr(clone, attr)!r}"
                )
    return violations


def check_canonical_key(case: FuzzCase, config: FuzzConfig) -> list[str]:
    """The service cache key must not see deck-text degrees of freedom."""
    rng = np.random.default_rng(case.seed + 0x5EED)
    text = write_netlist(case.circuit, case.stimuli)
    lines = text.splitlines()
    title, cards, tail = lines[0], lines[1:-1], lines[-1]
    # Magnetic couplings must stay after their inductors for the parser;
    # shuffle only the plain element cards and keep K-cards at the end.
    plain = [card for card in cards if not card.lower().startswith("k")]
    couplings = [card for card in cards if card.lower().startswith("k")]
    order = rng.permutation(len(plain))
    shuffled = "\n".join(
        ["a completely different title", "* a comment the parser must ignore"]
        + ["  " + plain[i] for i in order]
        + couplings + [tail]
    ) + "\n"
    deck_original = parse_netlist(text)
    deck_shuffled = parse_netlist(shuffled)

    def key(deck):
        return request_key(deck.circuit, deck.stimuli, case.nodes,
                           error_target=config.error_target,
                           max_order=config.max_order)

    if key(deck_original) != key(deck_shuffled):
        return ["request_key differs across card shuffling / comments / "
                "title changes of an identical deck"]
    return []


def check_batch_vs_sequential(case: FuzzCase, config: FuzzConfig) -> list[str]:
    options = {"use_scaling": config.use_scaling}
    job = AweJob(case.circuit, case.nodes, stimuli=case.stimuli,
                 error_target=config.error_target, max_order=config.max_order,
                 response_options=options)
    result = BatchEngine().run([job])[0]
    if not result.ok:
        return [f"batch engine failed where the sequential path works: "
                f"[{result.error_type}] {result.error}"]
    analyzer = AweAnalyzer(case.circuit, case.stimuli, max_order=config.max_order)
    violations: list[str] = []
    for node in case.nodes:
        expected = analyzer.response(node, error_target=config.error_target,
                                     **options)
        actual = result.responses[node]
        if not np.array_equal(expected.poles, actual.poles):
            violations.append(f"node {node}: batch poles differ from sequential")
            continue
        times = np.linspace(0.0, expected.waveform.suggested_window(), 200)
        if not np.array_equal(expected.waveform.evaluate(times),
                              actual.waveform.evaluate(times)):
            violations.append(
                f"node {node}: batch waveform is not bit-identical to sequential"
            )
    return violations


def check_reduction_equivalence(case: FuzzCase, config: FuzzConfig) -> list[str]:
    """Reduced and unreduced circuits must tell the same timing story.

    Two tiers, matching the collapse's actual guarantee
    (:mod:`repro.reduce`):

    * **Exact, every family** — the transfer moments m₀ (DC gain) and m₁
      (−Elmore) from the driving source to every retained node survive
      the pi collapse for *any* surrounding resistive network (the
      Norton current-divider split of each re-homed cap's injection is
      exact, and the zeroth-moment voltage is linear along a chain), so
      they get a tight relative tolerance.  Higher moments — and hence
      full waveforms on arbitrarily *nonuniform* short chains — are
      approximations with no small universal bound.
    * **Calibrated, ``long_chain`` family only** — on long quasi-uniform
      chains the sectioned collapse keeps higher-moment error ~1/k²
      small, so full (auto-order) waveforms and 50 % delays additionally
      must agree within 2 % of swing / 1 % relative.
    """
    reduction = reduce_circuit(case.circuit, keep=case.nodes)
    if not reduction.reduced:
        raise SkipCheck("no collapsible series RC chain in this case")
    violations: list[str] = []
    base_system = MnaSystem(case.circuit)
    reduced_system = MnaSystem(reduction.circuit)
    for node in case.nodes:
        m_base = transfer_moments(base_system, case.source, node, 2)
        m_reduced = transfer_moments(reduced_system, case.source, node, 2)
        for k in range(2):
            if not np.isclose(m_reduced[k], m_base[k], rtol=1e-8, atol=0.0):
                violations.append(
                    f"node {node}: transfer moment m{k} {m_reduced[k]:.10e} "
                    f"(reduced) vs {m_base[k]:.10e} — the collapse failed "
                    f"to preserve {'DC gain' if k == 0 else 'the Elmore moment'}"
                )
    if case.family != "long_chain":
        return violations
    for node in case.nodes:
        base = _response(case, config, node)
        reduced = _response(case, config, node, circuit=reduction.circuit)
        window = base.waveform.suggested_window()
        times = np.linspace(0.0, window, 200)
        swing = max(_swing(base.waveform, window), 1e-12)
        worst = float(np.abs(reduced.waveform.evaluate(times)
                             - base.waveform.evaluate(times)).max())
        if worst > 0.02 * swing:
            violations.append(
                f"node {node}: reduced waveform deviates by {worst:.3g} "
                f"({worst / swing:.2%} of swing; bound 2%) — "
                f"{reduction.original_node_count} -> "
                f"{reduction.reduced_node_count} nodes"
            )
        if swing > 1e-9:
            base_delay = base.delay_50()
            reduced_delay = reduced.delay_50()
            if np.isfinite(base_delay) and base_delay > 0:
                drift = abs(reduced_delay - base_delay) / base_delay
                if drift > 0.01:
                    violations.append(
                        f"node {node}: reduced 50% delay {reduced_delay:.4g} "
                        f"vs unreduced {base_delay:.4g} "
                        f"(relative drift {drift:.2%}; bound 1%)"
                    )
        # Under a pure step the order-1 response pole is −1/T_Elmore,
        # and the collapse preserves the Elmore moment exactly — so the
        # pole itself must survive to tight tolerance.  (The case's own
        # stimulus may be a delayed step, whose subproblem mixing pulls
        # higher moments into the order-1 fit; a fixed step isolates the
        # invariant.)
        step = {case.source: Step(0.0, 1.0)}
        base1 = _response(case, config, node, stimuli=step, order=1)
        reduced1 = _response(case, config, node, circuit=reduction.circuit,
                             stimuli=step, order=1)
        p_base = float(base1.poles[0].real)
        p_reduced = float(reduced1.poles[0].real)
        if not np.isclose(p_reduced, p_base, rtol=1e-6, atol=0.0):
            violations.append(
                f"node {node}: step order-1 pole {p_reduced:.8e} (reduced) "
                f"vs {p_base:.8e} — the collapse failed to preserve the "
                f"Elmore pole"
            )
    return violations


def check_sweep_incremental(case: FuzzCase, config: FuzzConfig) -> list[str]:
    """The incremental sweep engine against its from-scratch reference.

    One mixed plan per case — small and large R and C scalings plus a
    source retune, and (on RC trees, where every resistor is a bridge)
    a near-open resistor that provably degenerates the Sherman–Morrison
    denominator.  The guarantees checked are the ones
    :mod:`repro.sweep` states:

    * ``exact``-tier points (including fallback demotions) are **bit
      for bit** equal to :meth:`SweepEngine.direct_point`.
    * ``rank1`` points agree to 1e-9 relative (exact in algebra).
    * ``first_order`` points stay within the plan's ``error_bound``.
    * the near-open resistor *demotes* (``fallback=True`` → exact) —
      a silently-served degenerate rank-1 update is a finding.
    * the tier counts and extra-factorization count are consistent.
    """
    try:
        engine = SweepEngine(case.circuit, case.stimuli)
    except AnalysisError as exc:
        raise SkipCheck(f"outside the sweep engine's scope: {exc}")
    resistors = sorted(
        element.name for element in case.circuit
        if isinstance(element, Resistor))
    capacitors = sorted(
        element.name for element in case.circuit
        if isinstance(element, Capacitor))
    if not resistors or not capacitors:
        raise SkipCheck("the sweep check wants at least one R and one C")
    node = case.nodes[0]
    points = [
        SweepPoint(element=resistors[0], scale=1.02, label="r-small"),
        SweepPoint(element=resistors[-1], scale=2.5, label="r-big"),
        SweepPoint(element=capacitors[0], scale=1.03, label="c-small"),
        SweepPoint(element=capacitors[-1], scale=0.5, label="c-big"),
        SweepPoint(element=case.source, scale=1.25, label="retune"),
    ]
    if case.is_rc_tree:
        # Every tree resistor is a bridge, so scaling one to near-open
        # drives the Sherman–Morrison denominator to ~1e-10 — below the
        # engine's validity floor.  It must demote, not approximate.
        points.append(SweepPoint(element=resistors[0], scale=1e10,
                                 label="force-open"))
    plan = SweepPlan(node=node, points=tuple(points))
    try:
        result = engine.evaluate(plan)
        references = [engine.direct_point(point, node)
                      for point in plan.points]
    except AnalysisError as exc:
        raise SkipCheck(f"sweep plan outside the engine's scope: {exc}")
    violations: list[str] = []
    for point, got, want in zip(plan.points, result.points, references):
        if got.mode == "exact":
            if (got.dc, got.m1, got.elmore_delay) != (
                    want.dc, want.m1, want.elmore_delay):
                violations.append(
                    f"point {point.label}: exact tier is not bit-identical "
                    f"to a from-scratch evaluation "
                    f"({got.elmore_delay!r} vs {want.elmore_delay!r})")
            continue
        # m1 = −T·dc compounds both first-order errors, so only the
        # algebraically-exact rank-1 tier owes it the tight bound.
        fields = (("dc", "m1", "elmore_delay") if got.mode == "rank1"
                  else ("dc", "elmore_delay"))
        bound = 1e-9 if got.mode == "rank1" else plan.error_bound
        for field in fields:
            g, w = getattr(got, field), getattr(want, field)
            err = abs(g - w) / max(abs(w), 1e-300)
            if err > bound:
                violations.append(
                    f"point {point.label}: {got.mode} {field} off by "
                    f"{err:.3g} relative (bound {bound:g})")
    retune = result.points[4]
    if retune.mode != "rank1" or retune.fallback:
        violations.append(
            f"source retune served by {retune.mode!r} "
            f"(fallback={retune.fallback}) — expected the exact-linear "
            f"rank-1 RHS update")
    if case.is_rc_tree:
        forced = result.points[-1]
        if forced.mode != "exact" or not forced.fallback:
            violations.append(
                f"near-open resistor served by {forced.mode!r} "
                f"(fallback={forced.fallback}) — a degenerate "
                f"Sherman–Morrison denominator must demote to exact")
    if result.stats["factorizations"] != result.stats["exact"]:
        violations.append(
            f"stats disagree: {result.stats['exact']} exact points but "
            f"{result.stats['factorizations']} extra factorizations")
    if result.incremental_points + result.stats["exact"] != len(plan.points):
        violations.append(
            f"tier counts {result.stats} do not sum to the "
            f"{len(plan.points)}-point plan")
    return violations


#: The registry, in the order the runner executes them: cheap structural
#: checks first, the differential oracle last (it dominates wall time).
CHECKS: dict = {
    "roundtrip": check_roundtrip,
    "canonical_key": check_canonical_key,
    "elmore_first_order": check_elmore_first_order,
    "linearity": check_linearity,
    "impedance_scaling": check_impedance_scaling,
    "time_scaling": check_time_scaling,
    "frequency_scaling": check_frequency_scaling,
    "batch_vs_sequential": check_batch_vs_sequential,
    "sweep_incremental": check_sweep_incremental,
    "reduction_equivalence": check_reduction_equivalence,
    "awe_vs_transient": check_awe_vs_transient,
}


def run_check(name: str, case, config: FuzzConfig) -> list[str]:
    """Run one named check; raises ``KeyError`` for unknown names and
    :class:`SkipCheck` when the check does not apply.

    Checks and cases both carry a ``kind`` tag (``"circuit"`` unless
    they say otherwise — :mod:`repro.conformance.sta` registers
    ``"sta"`` graph checks); a mismatch is an automatic skip, so one
    seed stream can interleave circuit and STA cases under the full
    check registry.
    """
    check = CHECKS[name]
    case_kind = getattr(case, "kind", "circuit")
    check_kind = getattr(check, "case_kind", "circuit")
    if check_kind != case_kind:
        raise SkipCheck(f"check {name!r} applies to {check_kind} cases, "
                        f"got a {case_kind} case")
    return check(case, config)
