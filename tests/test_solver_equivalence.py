"""Equivalence tests across the solver paths.

The same moments must come out of every route through the linear-algebra
layer: incremental order escalation vs from-scratch recursion, the
batched multi-RHS recursion vs per-problem single-RHS recursion, and the
dense LAPACK path vs the sparse SuperLU path on either side of the
192-dimension switchover.
"""

import numpy as np
import pytest

from repro import AweAnalyzer, MnaSystem, Step
from repro.analysis.mna import _SPARSE_THRESHOLD
from repro.core.moments import (
    MomentSet,
    homogeneous_moments,
    homogeneous_moments_batch,
    particular_solution,
    particular_solutions,
)
from repro.papercircuits import random_rc_tree, rc_ladder

STIM = {"Vin": Step(0.0, 5.0)}


def homogeneous_state(system, source_value=5.0):
    """A realistic homogeneous initial state: step release toward DC."""
    from repro.analysis.dcop import dc_operating_point

    x_final = dc_operating_point(system, {"Vin": source_value})
    return -x_final  # x(0) = 0 released against the final state


class TestIncrementalEscalation:
    def test_extended_equals_from_scratch(self):
        system = MnaSystem(rc_ladder(12))
        y0 = homogeneous_state(system)
        scratch = homogeneous_moments(system, y0, 7)
        incremental = homogeneous_moments(system, y0, 2).extended(system, 5)
        assert incremental.count == scratch.count == 7
        for a, b in zip(scratch.vectors, incremental.vectors):
            # Same factorisation, same recursion, same order of operations.
            assert np.array_equal(a, b)

    def test_extended_from_empty(self):
        system = MnaSystem(rc_ladder(5))
        y0 = homogeneous_state(system)
        empty = MomentSet(y0, ())
        assert np.array_equal(
            empty.extended(system, 3).vectors[2],
            homogeneous_moments(system, y0, 3).vectors[2],
        )

    def test_batch_extended_incremental(self):
        system = MnaSystem(rc_ladder(8))
        y0s = np.column_stack(
            [homogeneous_state(system), homogeneous_state(system, 2.0)]
        )
        scratch = homogeneous_moments_batch(system, y0s, 6)
        incremental = homogeneous_moments_batch(system, y0s, 2).extended(system, 4)
        for a, b in zip(scratch.vectors, incremental.vectors):
            assert np.array_equal(a, b)


class TestMultiRhsEquivalence:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_batch_columns_equal_single_recursions(self, sparse):
        circuit = rc_ladder(30)
        system_single = MnaSystem(circuit, sparse=sparse)
        system_batch = MnaSystem(circuit, sparse=sparse)
        rng = np.random.default_rng(42)
        y0s = rng.normal(size=(system_single.dimension, 3))
        batch = homogeneous_moments_batch(system_batch, y0s, 6)
        for i in range(3):
            single = homogeneous_moments(system_single, y0s[:, i], 6)
            column = batch.column(i)
            assert np.array_equal(column.initial, single.initial)
            for a, b in zip(single.vectors, column.vectors):
                scale = np.abs(a).max()
                assert np.abs(a - b).max() <= 1e-12 * scale

    def test_one_multi_rhs_call_per_order(self):
        """The batched recursion's whole point: the triangular-solve call
        count is independent of how many chains are advanced."""
        circuit = rc_ladder(20)
        wide = MnaSystem(circuit)
        narrow = MnaSystem(circuit)
        rng = np.random.default_rng(0)
        y0s = rng.normal(size=(wide.dimension, 5))
        homogeneous_moments_batch(wide, y0s, 8)
        homogeneous_moments(narrow, y0s[:, 0], 8)
        assert wide.stats.moment_solves == narrow.stats.moment_solves == 8
        assert wide.stats.triangular_solves == narrow.stats.triangular_solves
        assert wide.stats.solve_columns == 5 * narrow.stats.solve_columns
        assert wide.stats.moments_computed == 5 * 8

    def test_solve_augmented_matrix_matches_columns(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        rng = np.random.default_rng(7)
        rhs = rng.normal(size=(system.dimension, 4))
        charges = rng.normal(size=(len(system.charge_rows), 4))
        stacked = system.solve_augmented(rhs, charges)
        for i in range(4):
            single = system.solve_augmented(rhs[:, i], charges[:, i])
            assert np.abs(stacked[:, i] - single).max() <= 1e-12 * (
                np.abs(single).max() + 1e-300
            )

    def test_particular_solutions_match_singles(self, floating_node_circuit):
        system = MnaSystem(floating_node_circuit)
        n = system.index.source_count
        u0s = np.column_stack([np.full(n, 5.0), np.full(n, 2.0)])
        u1s = np.zeros((n, 2))
        charges = np.column_stack(
            [np.zeros(len(system.floating_groups)),
             np.ones(len(system.floating_groups)) * 1e-12]
        )
        batch = particular_solutions(system, u0s, u1s, charges)
        for i, particular in enumerate(batch):
            single = particular_solution(
                system, u0s[:, i], u1s[:, i], charges[:, i]
            )
            assert np.allclose(particular.c0, single.c0, rtol=1e-12, atol=0)
            assert np.allclose(particular.c1, single.c1, rtol=1e-12, atol=0)


class TestEveryChainIsCounted:
    """Transfer and driving-point chains run the same counted recursion
    as the time-domain moments."""

    @pytest.mark.parametrize("expansion_point", [0.0, 1e9])
    def test_transfer_moments(self, expansion_point):
        from repro.core.transfer import transfer_moments

        system = MnaSystem(rc_ladder(12))
        transfer_moments(system, "Vin", "12", 5, expansion_point)
        assert system.stats.moment_solves == 5
        assert system.stats.moments_computed == 5

    def test_driving_point_moments(self):
        from repro.timing.pi_model import driving_point_moments

        system = MnaSystem(rc_ladder(12))
        driving_point_moments(system, "Vin", 6)
        assert system.stats.moment_solves == 6
        assert system.stats.moments_computed == 6

    def test_sweep_engine_base_and_source_pairs(self):
        from repro.sweep import SweepEngine, SweepPlan, SweepPoint

        engine = SweepEngine(rc_ladder(12), STIM)
        assert engine.system.stats.moment_solves == 2
        plan = SweepPlan(node="12", mode="rank1",
                         points=(SweepPoint(element="Vin", scale=1.1),))
        engine.evaluate(plan)
        assert engine.system.stats.moment_solves == 4
        assert engine.system.stats.moments_computed == 4

    def test_delay_sensitivities_forward_pair(self):
        from repro.core.sensitivity import delay_sensitivities

        circuit = rc_ladder(12)
        system = MnaSystem(circuit)
        delay_sensitivities(circuit, "12", {"Vin": 5.0}, system=system)
        assert system.stats.moment_solves == 2
        assert system.stats.moments_computed == 2


class TestSparseDenseSwitchover:
    def test_default_backend_threshold(self):
        # rc_ladder(n) has dimension n + 2 (n + 1 node voltages + Vin branch).
        below = MnaSystem(rc_ladder(_SPARSE_THRESHOLD - 3))
        at = MnaSystem(rc_ladder(_SPARSE_THRESHOLD - 2))
        assert below.dimension == _SPARSE_THRESHOLD - 1 and not below.use_sparse
        assert at.dimension == _SPARSE_THRESHOLD and at.use_sparse

    @pytest.mark.parametrize("sections", [60, _SPARSE_THRESHOLD + 40])
    def test_sparse_and_dense_agree(self, sections):
        """Moments and AWE poles must match across the two factorisation
        backends on the same circuit — on both sides of the switchover
        dimension (both sides were previously untested)."""
        circuit = rc_ladder(sections)
        dense_sys = MnaSystem(circuit, sparse=False)
        sparse_sys = MnaSystem(circuit, sparse=True)
        assert not dense_sys.use_sparse and sparse_sys.use_sparse
        y0 = homogeneous_state(dense_sys)
        dense_moments = homogeneous_moments(dense_sys, y0, 6)
        sparse_moments = homogeneous_moments(sparse_sys, y0, 6)
        row = dense_sys.index.node(str(sections))
        for a, b in zip(
            dense_moments.sequence_for(row), sparse_moments.sequence_for(row)
        ):
            assert a == pytest.approx(b, rel=1e-9)

    @pytest.mark.parametrize("sections", [60, _SPARSE_THRESHOLD + 40])
    def test_awe_poles_agree_across_backends(self, sections):
        circuit = rc_ladder(sections)
        node = str(sections)
        responses = [
            AweAnalyzer(circuit, STIM, sparse=sparse).response(node, order=3)
            for sparse in (False, True)
        ]
        dense, sparse = responses
        assert np.allclose(
            np.sort_complex(dense.poles), np.sort_complex(sparse.poles), rtol=1e-6
        )
        times = np.linspace(0.0, 5e-8, 200)
        assert np.allclose(
            dense.waveform.evaluate(times),
            sparse.waveform.evaluate(times),
            rtol=1e-6,
            atol=1e-9,
        )

    def test_random_tree_backends_agree(self):
        circuit = random_rc_tree(50, seed=11)
        dense = MnaSystem(circuit, sparse=False)
        sparse = MnaSystem(circuit, sparse=True)
        y0 = homogeneous_state(dense)
        a = homogeneous_moments(dense, y0, 5)
        b = homogeneous_moments(sparse, y0, 5)
        for va, vb in zip(a.vectors, b.vectors):
            assert np.allclose(va, vb, rtol=1e-9, atol=1e-30)
