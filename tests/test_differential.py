"""Property-based differential test suite.

Randomized-but-seeded circuits, three differential oracles:

* **AWE vs transient** — on random RC trees and RC meshes, a high-order
  AWE response must match the converged TR-BDF2 transient reference
  (`repro.simulate`) within a relative L2 bound (the paper's own accuracy
  measure, Sec. 3.4);
* **batch vs sequential** — :class:`BatchEngine` results must be
  *bit-identical* to per-job :class:`AweAnalyzer` runs for the same jobs;
* **superposition** — the event-decomposed AWE waveform for a ramp input
  must agree with the transient reference, exercising the batched
  multi-subproblem moment recursion differentially.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import AweAnalyzer, AweJob, BatchEngine
from repro.analysis.sources import Ramp
from repro.papercircuits import random_rc_tree, rc_mesh
from tests.strategies import (
    L2_BOUND,
    STIM,
    awe_vs_transient_l2,
    differential_settings as _differential_settings,
)


class TestAweMatchesTransient:
    @_differential_settings
    @given(
        nodes=st.integers(min_value=4, max_value=14),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_random_rc_tree(self, nodes, seed):
        circuit = random_rc_tree(nodes, seed=seed)
        error = awe_vs_transient_l2(
            circuit, STIM, str(nodes), error_target=0.005
        )
        assert error < L2_BOUND

    @_differential_settings
    @given(
        rows=st.integers(min_value=2, max_value=4),
        cols=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_random_rc_mesh(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        circuit = rc_mesh(
            rows,
            cols,
            resistance=float(rng.uniform(50.0, 300.0)),
            capacitance=float(rng.uniform(20e-15, 200e-15)),
        )
        error = awe_vs_transient_l2(
            circuit, STIM, f"n{rows - 1}_{cols - 1}", error_target=0.005
        )
        assert error < L2_BOUND

    @_differential_settings
    @given(
        nodes=st.integers(min_value=4, max_value=10),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_ramp_superposition(self, nodes, seed):
        """Ramp input → multiple subproblems → the batched multi-RHS
        moment recursion feeds the event superposition of Sec. 4.3."""
        circuit = random_rc_tree(nodes, seed=seed)
        stimuli = {"Vin": Ramp(0.0, 5.0, rise_time=2e-10)}
        error = awe_vs_transient_l2(
            circuit, stimuli, str(nodes), error_target=0.005
        )
        assert error < L2_BOUND


@pytest.mark.xfail(strict=True, reason=(
    "Sec. 3.4 undershoot under superposition: escalation accepts order 1 "
    "on an estimate of 0.00495 for both the main and the event@2e-10 "
    "subproblems, but each estimate is relative to its own subproblem; "
    "the two are mirror images and their difference, the waveform the "
    "user sees, has a true L2 error of 0.0211 against the 0.02 bound "
    "(order 2 gives 0.0005)"))
def test_ramp_superposition_undershoot_tree_9_seed_613():
    """The example test_ramp_superposition fails on whenever it draws it."""
    circuit = random_rc_tree(9, seed=613)
    stimuli = {"Vin": Ramp(0.0, 5.0, rise_time=2e-10)}
    error = awe_vs_transient_l2(circuit, stimuli, "9", error_target=0.005)
    assert error < L2_BOUND


class TestBatchBitIdentical:
    def _jobs(self, n_circuits=6, nodes_per_circuit=3, tree_nodes=15):
        jobs = []
        for seed in range(n_circuits):
            circuit = random_rc_tree(tree_nodes, seed=100 + seed)
            picks = np.random.default_rng(seed).choice(
                np.arange(1, tree_nodes + 1), size=nodes_per_circuit, replace=False
            )
            jobs.append(
                AweJob(
                    circuit,
                    tuple(str(int(p)) for p in picks),
                    stimuli=STIM,
                    order=3,
                )
            )
        return jobs

    def _assert_identical(self, jobs, results):
        times = np.linspace(0.0, 20e-9, 250)
        for job, result in zip(jobs, results):
            assert result.ok, result.error
            analyzer = AweAnalyzer(job.circuit, job.stimuli, max_order=job.max_order)
            for node in job.nodes:
                expected = analyzer.response(node, order=job.order)
                actual = result.responses[node]
                assert np.array_equal(expected.poles, actual.poles)
                assert np.array_equal(
                    expected.waveform.evaluate(times),
                    actual.waveform.evaluate(times),
                )
                # delay_50 needs a settling waveform; a low fixed order can
                # leave a borderline-unstable fit on some random trees, in
                # which case the exact pole equality above already covers it.
                if expected.waveform.is_stable:
                    assert expected.delay_50() == actual.delay_50()

    def test_inline_engine_bit_identical(self):
        jobs = self._jobs()
        results = BatchEngine().run(jobs)
        self._assert_identical(jobs, results)
