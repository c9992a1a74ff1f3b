"""Tests for the batch analysis engine (`repro.engine.batch`).

Covers the batch-vs-sequential contract (identical numbers), analyzer
reuse across jobs on the same circuit, structured failure records (a
bad job never kills the batch), preemptive per-job timeouts, the
in-process-only ``workers`` contract, and the instrumentation counters
that make the multi-RHS moment recursion observable.
"""

import numpy as np
import pytest

from repro import (
    AweAnalyzer,
    AweJob,
    BatchEngine,
    Circuit,
    Step,
)
from repro.engine import BatchResult
from repro.errors import CircuitError
from repro.papercircuits import random_rc_tree, rc_mesh

STIM = {"Vin": Step(0.0, 5.0)}


def sequential_responses(jobs):
    """The pre-engine way: one fresh analyzer per job."""
    out = []
    for job in jobs:
        analyzer = AweAnalyzer(job.circuit, job.stimuli, max_order=job.max_order)
        out.append(
            {
                node: analyzer.response(
                    node, order=job.order, error_target=job.error_target
                )
                for node in job.nodes
            }
        )
    return out


def assert_bit_identical(reference, result: BatchResult, times):
    assert result.ok, result.error
    assert set(result.responses) == set(reference)
    for node, response in result.responses.items():
        expected = reference[node]
        assert np.array_equal(expected.poles, response.poles)
        assert np.array_equal(
            expected.waveform.evaluate(times), response.waveform.evaluate(times)
        )
        assert expected.order == response.order


class TestAweJob:
    def test_string_node_promoted(self):
        job = AweJob(random_rc_tree(3, seed=0), "2", stimuli=STIM)
        assert job.nodes == ("2",)

    def test_default_label(self):
        job = AweJob(random_rc_tree(3, seed=0), ("1", "2"), stimuli=STIM)
        assert "random RC tree" in job.label and "1,2" in job.label

    def test_empty_nodes_rejected(self):
        with pytest.raises(CircuitError):
            AweJob(random_rc_tree(3, seed=0), (), stimuli=STIM)


class TestBatchEngineResults:
    def test_empty_run(self):
        assert BatchEngine().run([]) == []

    def test_rejects_non_jobs(self):
        with pytest.raises(CircuitError):
            BatchEngine().run(["not a job"])

    def test_matches_sequential_inline(self):
        circuits = [random_rc_tree(12, seed=s) for s in range(4)]
        jobs = [
            AweJob(c, (str(n),), stimuli=STIM, order=2)
            for c in circuits
            for n in (8, 12)
        ]
        reference = sequential_responses(jobs)
        results = BatchEngine().run(jobs)
        times = np.linspace(0.0, 10e-9, 100)
        for expected, result in zip(reference, results):
            assert_bit_identical(expected, result, times)

    def test_workers_one_still_runs(self):
        job = AweJob(random_rc_tree(4, seed=1), ("4",), stimuli=STIM, order=1)
        [result] = BatchEngine(workers=1).run([job])
        assert result.ok, result.error

    @pytest.mark.parametrize("workers", [0, 2])
    def test_other_worker_counts_point_to_gateway_shards(self, workers):
        with pytest.raises(ValueError, match="gateway shards"):
            BatchEngine(workers=workers)

    def test_results_in_input_order(self):
        a, b = random_rc_tree(6, seed=1), random_rc_tree(6, seed=2)
        # Interleave circuits so grouping must reorder internally.
        jobs = [
            AweJob(a, ("6",), stimuli=STIM, order=1, label="a0"),
            AweJob(b, ("6",), stimuli=STIM, order=1, label="b0"),
            AweJob(a, ("5",), stimuli=STIM, order=1, label="a1"),
            AweJob(b, ("5",), stimuli=STIM, order=1, label="b1"),
        ]
        results = BatchEngine().run(jobs)
        assert [r.label for r in results] == ["a0", "b0", "a1", "b1"]
        assert [r.index for r in results] == [0, 1, 2, 3]


class TestFailureIsolation:
    def test_bad_node_yields_failure_record(self):
        good = AweJob(random_rc_tree(5, seed=3), ("5",), stimuli=STIM, order=1)
        bad = AweJob(random_rc_tree(5, seed=4), ("nope",), stimuli=STIM)
        results = BatchEngine().run([bad, good])
        assert not results[0].ok
        assert results[0].error_type == "CircuitError"
        assert "nope" in results[0].error
        assert results[0].responses is None
        assert results[1].ok

    def test_singular_circuit_yields_failure_record(self):
        floating = Circuit("no ground path")
        floating.add_voltage_source("Vin", "in", "0")
        floating.add_resistor("R1", "in", "1", 1e3)
        floating.add_capacitor("C1", "1", "0", 1e-12)
        floating.add_resistor("Rdangling", "2", "3", 1e3)  # island
        good = AweJob(random_rc_tree(5, seed=5), ("5",), stimuli=STIM, order=1)
        results = BatchEngine().run(
            [AweJob(floating, ("1",), stimuli=STIM), good]
        )
        assert not results[0].ok and results[1].ok
        assert results[0].error_type in ("SingularCircuitError", "CircuitError")


class TestTimeout:
    def test_per_job_timeout_becomes_failure_record(self):
        # ~3600 unknowns: analysis takes ≫ 20 ms even on the sparse
        # backend (the old 20x20 mesh dipped under the deadline once
        # stamping went sparse).
        big = rc_mesh(60, 60)
        fast = AweJob(random_rc_tree(4, seed=0), ("4",), stimuli=STIM, order=1)
        slow = AweJob(big, ("n59_59",), stimuli=STIM, order=4)
        results = BatchEngine().run([slow, fast], timeout=0.02)
        assert not results[0].ok
        assert results[0].error_type == "BatchTimeoutError"
        assert "timeout" in results[0].error
        # The fast job still completes (a few ms of analysis).
        assert results[1].ok

    def test_timed_out_job_then_good_job_in_same_chunk(self):
        # Both jobs share one circuit (one group, one reused analyzer).
        # The first asks for every mesh node with an impossible 1e-14
        # target (~1 s of per-node escalations, far past the deadline) and
        # is killed by the timer mid-group; the second, trivial job must
        # then still run under a correctly re-armed alarm and succeed.
        # Regression for the timeout path leaving the timer disarmed (or
        # stale) for the rest of the group once one job's deadline fired.
        big = rc_mesh(20, 20)
        nodes = tuple(cap.positive for cap in big.capacitors)  # all 400
        doomed = AweJob(big, nodes, stimuli=STIM,
                        error_target=1e-14, label="doomed")
        quick = AweJob(big, (nodes[0],), stimuli=STIM, order=1,
                       label="quick")
        results = BatchEngine().run([doomed, quick], timeout=0.25)
        assert not results[0].ok
        assert results[0].error_type == "BatchTimeoutError"
        assert results[1].ok, results[1].error

    def test_signal_state_restored_after_run(self):
        import signal

        before_handler = signal.getsignal(signal.SIGALRM)
        big = rc_mesh(60, 60)
        results = BatchEngine().run(
            [AweJob(big, ("n59_59",), stimuli=STIM, order=4)], timeout=0.02
        )
        assert not results[0].ok
        assert signal.getsignal(signal.SIGALRM) is before_handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_nested_deadline_rearms_outer_timer(self):
        # An inner _deadline must hand the leftover budget back to the
        # enclosing one: before the fix, arming the inner timer silently
        # cancelled the outer alarm for good.
        import time

        from repro.engine.batch import _deadline
        from repro.errors import BatchTimeoutError

        with pytest.raises(BatchTimeoutError):
            with _deadline(0.08):
                with _deadline(0.05):
                    pass  # inner completes instantly, must re-arm outer
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    pass  # burn CPU until the outer alarm fires

    def test_swallowed_timeout_is_raised_on_exit(self):
        # The alarm can land in code that catches every exception (a gc
        # callback, say); the block must not then run on past its budget.
        import time

        from repro.engine.batch import _deadline
        from repro.errors import BatchTimeoutError

        caught = []
        with pytest.raises(BatchTimeoutError):
            with _deadline(0.01):
                deadline = time.monotonic() + 0.1
                while time.monotonic() < deadline:
                    try:
                        time.sleep(0.005)
                    except BatchTimeoutError:
                        caught.append(True)
        assert caught == [True]

    def test_sigterm_during_deadline_is_survivable(self):
        # The serve daemon's SIGTERM handler only flips a drain flag; a
        # job running under _deadline when the signal lands must finish
        # normally, and later runs must still enforce their budgets.
        import os
        import signal
        import threading

        seen = []
        before = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, lambda signum, frame: seen.append(signum))
        big = rc_mesh(60, 60)
        killer = threading.Timer(
            0.02, os.kill, args=(os.getpid(), signal.SIGTERM))
        try:
            killer.start()
            results = BatchEngine().run(
                [AweJob(big, ("n59_59",), stimuli=STIM, order=4)], timeout=30.0
            )
        finally:
            killer.join()
            signal.signal(signal.SIGTERM, before)
        assert seen == [signal.SIGTERM]
        assert results[0].ok, results[0].error
        # The deadline machinery is intact after the interruption.
        late = BatchEngine().run(
            [AweJob(big, ("n59_59",), stimuli=STIM, order=4)], timeout=0.02
        )
        assert late[0].error_type == "BatchTimeoutError"

    def test_nested_deadline_inner_timeout_preserves_outer(self):
        import signal
        import time

        from repro.engine.batch import _deadline
        from repro.errors import BatchTimeoutError

        with pytest.raises(BatchTimeoutError):
            with _deadline(0.5):
                try:
                    with _deadline(0.01):
                        deadline = time.monotonic() + 1.0
                        while time.monotonic() < deadline:
                            pass
                except BatchTimeoutError:
                    pass  # the inner timeout fired and was absorbed
                # The outer timer must still be live after the inner fired.
                assert signal.getitimer(signal.ITIMER_REAL)[0] > 0.0
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    pass
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestInstrumentation:
    def test_analyzer_reuse_per_distinct_circuit(self):
        circuit = random_rc_tree(10, seed=7)
        other = random_rc_tree(10, seed=8)
        jobs = [
            AweJob(circuit, (str(n),), stimuli=STIM, order=2) for n in (4, 7, 10)
        ] + [AweJob(other, ("10",), stimuli=STIM, order=2)]
        engine = BatchEngine()
        results = engine.run(jobs)
        assert all(r.ok for r in results)
        stats = engine.stats()
        assert stats["jobs"] == 4
        assert stats["jobs_failed"] == 0
        assert stats["distinct_circuits"] == 2
        # One analyzer (and one LU factorisation) per distinct circuit,
        # not per job — the amortisation the batch engine exists for.
        assert stats["analyzers_built"] == 2
        assert stats["lu_factorizations"] == 2
        assert stats["responses"] == 4

    def test_stats_merged_from_pool_workers(self):
        """Each circuit group's solver counters are merged into the
        engine's totals.  The groups once ran on pool workers; they now
        run in process, and the merged totals must still count every
        group."""
        circuits = [random_rc_tree(8, seed=s) for s in range(3)]
        engine = BatchEngine()
        engine.run([AweJob(c, ("8",), stimuli=STIM, order=1) for c in circuits])
        stats = engine.stats()
        assert stats["lu_factorizations"] == 3
        assert stats["responses"] == 3
        assert stats["moment_solves"] > 0
        assert stats["batch_wall_time_s"] > 0.0

    def test_reset_stats(self):
        engine = BatchEngine()
        engine.run([AweJob(random_rc_tree(4, seed=1), ("4",), stimuli=STIM, order=1)])
        engine.reset_stats()
        assert engine.stats()["jobs"] == 0
        assert engine.stats()["lu_factorizations"] == 0
