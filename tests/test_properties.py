"""Property-based tests (hypothesis) on the core invariants.

Strategies generate random-but-valid circuits and pole/residue models; the
properties asserted are the mathematical backbone of the paper:

* moment matching is exact at full order,
* first-order AWE ≡ Elmore on any RC tree,
* moments computed by tree/link equal moments computed by MNA,
* stability/finality invariants of the matched models,
* energy integrals are non-negative and Cauchy bounds dominate exact ones,
* the stimulus event decomposition reconstructs the waveform.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import MnaSystem, Step, circuit_poles
from repro.analysis.sources import Pulse, Ramp
from repro.core.error import cauchy_bound_distance, exact_l2_distance, transient_energy
from repro.core.moments import homogeneous_moments
from repro.core.model import PoleResidueModel
from repro.core.pade import match_poles
from repro.core.residues import solve_residues
from repro.errors import MomentMatrixError
from repro.papercircuits import random_rc_tree
from repro.rctree import elmore_delays, treelink_moments
from tests.strategies import moments_of, pole_residue_sets, pwl_stimuli, tree_setup


# ----------------------------------------------------------------------
# Padé / residue properties
# ----------------------------------------------------------------------


class TestMomentMatchingProperties:
    @given(pole_residue_sets())
    @settings(max_examples=60, deadline=None)
    def test_full_order_match_reproduces_all_moments(self, pole_residues):
        """The defining Padé property: the fitted q-pole model reproduces
        every matched moment (m₋₁ … m_{2q−2}) up to Hankel conditioning.

        (Pole positions themselves can be recovered poorly for wide pole
        spreads even when the moment match is perfect — a deep pole
        contributes almost nothing to dominant-scaled moments — so moments,
        not poles, are the honest invariant.)"""
        poles, residues = pole_residues
        q = len(poles)
        moments = moments_of(poles, residues, 2 * q - 1)
        try:
            result = match_poles(moments, q)
        except MomentMatrixError:
            # Tight residues/poles can make the Hankel numerically rank
            # deficient; that is a legitimate rejection, not a failure.
            assume(False)
        terms = solve_residues(result.poles, moments)
        fitted_poles = np.array([p for p, _, _ in terms])
        fitted_residues = np.array([k for _, _, k in terms])
        rtol = max(1e-7, result.condition_number * 1e-10)
        assert np.sum(fitted_residues).real == pytest.approx(
            moments[0], rel=rtol, abs=1e-12
        )
        for k in range(2 * q - 1):
            reproduced = -np.sum(fitted_residues / fitted_poles ** (k + 1))
            assert reproduced.real == pytest.approx(
                moments[k + 1], rel=rtol, abs=1e-15 * abs(moments[1])
            ), f"moment m_{k} not reproduced"

        # The dominant pole (which carries the moments) IS recovered well.
        dominant_true = max(poles, key=lambda p: abs(1 / p))
        dominant_fit = result.poles[0].real
        assert dominant_fit == pytest.approx(dominant_true, rel=max(1e-6, rtol))

    @given(pole_residue_sets())
    @settings(max_examples=60, deadline=None)
    def test_residues_reproduce_low_moments(self, pole_residues):
        poles, residues = pole_residues
        q = len(poles)
        moments = moments_of(poles, residues, max(q, 1))
        terms = solve_residues(poles.astype(complex), moments)
        # The fitted model's initial value and moments must match inputs.
        fitted = np.array([k for _, _, k in terms])
        assert np.sum(fitted).real == pytest.approx(moments[0], rel=1e-6, abs=1e-9)
        for k in range(q - 1):
            reproduced = -np.sum(
                np.array([r for _, _, r in terms])
                / np.array([p for p, _, _ in terms]) ** (k + 1)
            )
            assert reproduced.real == pytest.approx(moments[k + 1], rel=1e-5, abs=1e-9)

    @given(pole_residue_sets())
    @settings(max_examples=40, deadline=None)
    def test_instability_only_from_ill_conditioning(self, pole_residues):
        """Padé CAN return a spurious right-half-plane pole for stable
        data — the numerical fact behind the paper's Sec. 3.3 stability
        screening.  The property that must hold: a spurious unstable pole
        only appears when the Hankel solve was meaningfully
        ill-conditioned.  (An earlier form of this test also demanded the
        unstable residue weight be negligible and put the conditioning
        bar at 1e6; Hypothesis found stable three-pole inputs spanning
        ~6 decades whose fits go unstable at condition ~9e5 with O(1)
        unstable weight, so the honest property is the implication
        instability ⇒ ill-conditioning alone — exactly why the paper
        screens and discards these fits rather than trusting their
        residues.)"""
        poles, residues = pole_residues
        q = len(poles)
        moments = moments_of(poles, residues, 2 * q - 1)
        try:
            result = match_poles(moments, q)
        except MomentMatrixError:
            assume(False)
        if result.is_stable:
            return
        assert result.condition_number > 1e5, (
            "unstable fit from a well-conditioned Hankel solve"
        )


class TestEnergyProperties:
    @given(pole_residue_sets())
    @settings(max_examples=60, deadline=None)
    def test_energy_nonnegative(self, pole_residues):
        poles, residues = pole_residues
        model = PoleResidueModel(
            tuple((complex(p), 1, complex(k)) for p, k in zip(poles, residues))
        )
        assert transient_energy(model) >= 0.0

    @given(pole_residue_sets(), pole_residue_sets())
    @settings(max_examples=40, deadline=None)
    def test_cauchy_bound_dominates_exact(self, set_a, set_b):
        # The bound compares a model against one of no higher order.
        # Swapping, not filtering, keeps the health check's filter budget
        # for pole_residue_sets' own separation filter.
        if len(set_a[0]) < len(set_b[0]):
            set_a, set_b = set_b, set_a
        model_a = PoleResidueModel(
            tuple((complex(p), 1, complex(k)) for p, k in zip(*set_a))
        )
        model_b = PoleResidueModel(
            tuple((complex(p), 1, complex(k)) for p, k in zip(*set_b))
        )
        exact = exact_l2_distance(model_a, model_b)
        bound = cauchy_bound_distance(model_a, model_b)
        # Absolute slack: for near-identical models both values are pure
        # cancellation round-off around zero.
        noise = 1e-7 * math.sqrt(
            max(transient_energy(model_a), transient_energy(model_b), 1e-30)
        )
        assert bound >= exact * (1 - 1e-9) - noise

    @given(pole_residue_sets())
    @settings(max_examples=40, deadline=None)
    def test_distance_to_self_is_zero(self, pole_residues):
        poles, residues = pole_residues
        model = PoleResidueModel(
            tuple((complex(p), 1, complex(k)) for p, k in zip(poles, residues))
        )
        energy = transient_energy(model)
        assert exact_l2_distance(model, model) <= 1e-6 * math.sqrt(energy) + 1e-12


# ----------------------------------------------------------------------
# Circuit-level properties on random RC trees
# ----------------------------------------------------------------------


class TestRcTreeProperties:
    @given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_elmore_equals_first_moment(self, nodes, seed):
        circuit, system, y0 = tree_setup(nodes, seed)
        moments = homogeneous_moments(system, y0, 1)
        walk = elmore_delays(circuit)
        for node in circuit.nodes:
            if node == "in":
                continue
            m0 = moments.sequence_for(system.index.node(node))[1]
            assert walk[node] == pytest.approx(-m0, rel=1e-9)

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_treelink_equals_mna_moments(self, nodes, seed):
        circuit, system, y0 = tree_setup(nodes, seed)
        mna = homogeneous_moments(system, y0, 3)
        tl = treelink_moments(circuit, {"Vin": 1.0}, 3)
        for cap in circuit.capacitors:
            node = cap.positive if cap.negative == "0" else cap.negative
            np.testing.assert_allclose(
                tl[cap.name],
                mna.sequence_for(system.index.node(node)),
                rtol=1e-8,
            )

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_all_poles_real_negative(self, nodes, seed):
        # RC circuits have real, strictly negative natural frequencies.
        circuit = random_rc_tree(nodes, seed=seed)
        poles = circuit_poles(MnaSystem(circuit)).poles
        assert len(poles) == nodes
        assert np.all(poles.real < 0)
        assert np.abs(poles.imag).max(initial=0.0) <= 1e-6 * np.abs(poles.real).max()

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_moment_signs_alternate(self, nodes, seed):
        # For an RC tree step response, y(t) = −Σ kᵢe^{pᵢt} with kᵢ > 0 …
        # hence m_k alternates in sign starting negative (m₋₁ < 0, m₀ < 0,
        # m₁ > 0, …).
        circuit, system, y0 = tree_setup(nodes, seed)
        moments = homogeneous_moments(system, y0, 4)
        for node in circuit.nodes:
            if node == "in":
                continue
            sequence = moments.sequence_for(system.index.node(node))
            assert sequence[0] < 0 and sequence[1] < 0
            assert sequence[2] > 0 and sequence[3] < 0

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_first_order_awe_pole_is_reciprocal_elmore(self, nodes, seed):
        from repro import AweAnalyzer

        circuit = random_rc_tree(nodes, seed=seed)
        leaf = circuit.nodes[-1]
        analyzer = AweAnalyzer(circuit, {"Vin": Step(0, 1)})
        response = analyzer.response(leaf, order=1)
        elmore = elmore_delays(circuit)[leaf]
        assert response.poles[0].real == pytest.approx(-1.0 / elmore, rel=1e-9)


# ----------------------------------------------------------------------
# LTI physics properties of the full driver
# ----------------------------------------------------------------------


class TestDriverLtiProperties:
    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=0.25, max_value=8.0))
    @settings(max_examples=15, deadline=None)
    def test_homogeneity(self, nodes, seed, scale):
        """Scaling the stimulus scales the response (linearity)."""
        from repro import AweAnalyzer

        circuit = random_rc_tree(nodes, seed=seed)
        leaf = circuit.nodes[-1]
        base = AweAnalyzer(circuit, {"Vin": Step(0, 1.0)}).response(leaf, order=2)
        scaled = AweAnalyzer(circuit, {"Vin": Step(0, scale)}).response(leaf, order=2)
        t = np.linspace(0, 8 * base.waveform.dominant_time_constant(), 80)
        np.testing.assert_allclose(
            scaled.waveform.evaluate(t), scale * base.waveform.evaluate(t),
            rtol=1e-8, atol=1e-12,
        )

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=10**6),
           st.floats(min_value=1e-10, max_value=5e-9))
    @settings(max_examples=15, deadline=None)
    def test_time_shift_invariance(self, nodes, seed, delay):
        """Delaying the stimulus delays the response, exactly."""
        from repro import AweAnalyzer

        circuit = random_rc_tree(nodes, seed=seed)
        leaf = circuit.nodes[-1]
        base = AweAnalyzer(circuit, {"Vin": Step(0, 5.0)}).response(leaf, order=2)
        delayed = AweAnalyzer(
            circuit, {"Vin": Step(0, 5.0, delay=delay)}
        ).response(leaf, order=2)
        t = np.linspace(0, 8 * base.waveform.dominant_time_constant(), 60)
        np.testing.assert_allclose(
            delayed.waveform.evaluate(t + delay), base.waveform.evaluate(t),
            rtol=1e-8, atol=1e-12,
        )

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_final_value_is_dc_solution(self, nodes, seed):
        from repro import AweAnalyzer, MnaSystem
        from repro.analysis.dcop import dc_operating_point

        circuit = random_rc_tree(nodes, seed=seed)
        leaf = circuit.nodes[-1]
        # stabilize=True: an occasional ill-conditioned q=2 fit throws a
        # spurious RHP pole even on RC trees (the Sec. 3.3 scenario);
        # partial Padé preserves the matched final value regardless.
        response = AweAnalyzer(circuit, {"Vin": Step(0, 5.0)}).response(
            leaf, order=2, stabilize=True
        )
        system = MnaSystem(circuit)
        x = dc_operating_point(system, {"Vin": 5.0})
        assert response.waveform.final_value() == pytest.approx(
            float(x[system.index.node(leaf)]), rel=1e-10
        )


# ----------------------------------------------------------------------
# Stimulus properties
# ----------------------------------------------------------------------


class TestStimulusProperties:
    @given(pwl_stimuli())
    @settings(max_examples=60, deadline=None)
    def test_event_decomposition_reconstructs(self, stimulus):
        t = np.linspace(0.0, 1.5e-6, 700)
        total = np.full_like(t, stimulus.initial_value)
        for event in stimulus.events():
            active = t >= event.time
            total += np.where(active, event.step + event.slope_delta * (t - event.time), 0.0)
        np.testing.assert_allclose(total, stimulus.value(t), rtol=1e-7, atol=1e-6)

    @given(
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=1e-12, max_value=1e-6),
    )
    @settings(max_examples=50, deadline=None)
    def test_ramp_slopes_cancel(self, v0, v1, rise):
        events = Ramp(v0, v1, rise_time=rise).events()
        assert sum(e.slope_delta for e in events) == pytest.approx(0.0, abs=1e-20)

    @given(
        st.floats(min_value=0, max_value=5),
        st.floats(min_value=0.1, max_value=5),
        st.floats(min_value=0, max_value=1e-9),
        st.floats(min_value=1e-12, max_value=1e-9),
        st.floats(min_value=1e-12, max_value=1e-9),
        st.floats(min_value=0, max_value=1e-9),
    )
    @settings(max_examples=50, deadline=None)
    def test_pulse_returns_to_baseline(self, v0, amp, delay, rise, fall, width):
        pulse = Pulse(v0, v0 + amp, delay=delay, rise=rise, width=width, fall=fall)
        assert pulse.final_value == pytest.approx(v0, abs=1e-9)
        events = pulse.events()
        assert sum(e.step for e in events) + 0.0 == pytest.approx(0.0, abs=1e-9)
        assert sum(e.slope_delta for e in events) == pytest.approx(0.0, abs=1e-3)
