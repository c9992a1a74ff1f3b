"""Resilience tests for the batch engine (`repro.engine.batch`).

Covers the self-healing process pool under injected worker crashes (one
rebuild re-runs only the lost jobs; a second loss becomes a structured
``WorkerCrashError`` record), the ``pool_rebuilds`` counter, numeric
equivalence of recovered results, and the nested ``_deadline`` branch
where the outer budget expires while an inner block runs.
"""

import time

import numpy as np
import pytest

from repro import AweJob, BatchEngine, Step, faults
from repro.engine.batch import _deadline
from repro.errors import BatchTimeoutError, WorkerCrashError
from repro.faults import FaultPlan
from repro.papercircuits import random_rc_tree

STIM = {"Vin": Step(0.0, 5.0)}


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.reset()
    yield
    faults.reset()


def distinct_jobs(count):
    """One job per distinct circuit so every job is its own pool chunk."""
    return [
        AweJob(random_rc_tree(5, seed=seed), ("3",), stimuli=STIM, order=2,
               label=f"net{seed}")
        for seed in range(count)
    ]


def poles_by_label(results):
    return {
        result.label: {node: response.poles
                       for node, response in result.responses.items()}
        for result in results
    }


class TestSelfHealingPool:
    def test_single_crash_recovers_with_one_rebuild(self):
        faults.install(FaultPlan.parse("worker_crash=1:x1"))
        engine = BatchEngine(workers=2)
        results = engine.run(distinct_jobs(4))
        assert [result.ok for result in results] == [True] * 4
        assert engine.stats()["pool_rebuilds"] == 1

    def test_recovered_results_match_fault_free_run(self):
        jobs = distinct_jobs(4)
        clean = BatchEngine(workers=2).run(jobs)

        faults.install(FaultPlan.parse("worker_crash=1:x1"))
        engine = BatchEngine(workers=2)
        healed = engine.run(jobs)
        assert engine.stats()["pool_rebuilds"] == 1

        clean_poles, healed_poles = poles_by_label(clean), poles_by_label(healed)
        assert clean_poles.keys() == healed_poles.keys()
        for label in clean_poles:
            for node in clean_poles[label]:
                np.testing.assert_array_equal(
                    clean_poles[label][node], healed_poles[label][node])

    def test_retried_jobs_carry_a_rebuild_trace_event(self):
        faults.install(FaultPlan.parse("worker_crash=1:x1"))
        results = BatchEngine(workers=2).run(distinct_jobs(3), trace=True)
        retried = [
            result for result in results
            if any(event["name"] == "pool_rebuild_retry"
                   for _, event in _iter_events(result.trace))
        ]
        # A broken pool loses every unfinished chunk, so anywhere from
        # one chunk to all of them may be re-run; what matters is that
        # the retried ones say so and everything still succeeded.
        assert retried, "no job recorded a pool_rebuild_retry event"
        assert all(result.ok for result in results)

    def test_persistent_crash_becomes_structured_failure(self):
        faults.install(FaultPlan.parse("worker_crash=1"))
        engine = BatchEngine(workers=2)
        results = engine.run(distinct_jobs(3))
        assert all(not result.ok for result in results)
        assert {result.error_type for result in results} == {
            WorkerCrashError.__name__}
        assert all("rebuilt once" in result.error for result in results)
        # One rebuild was attempted, not one per chunk — the pool is
        # rebuilt at most once per run.
        assert engine.stats()["pool_rebuilds"] == 1
        assert engine.stats()["jobs_failed"] == 3

    def test_inline_execution_ignores_worker_crash_probe(self):
        # workers=1 runs in-process: there is no pool to crash, and the
        # probe must not take the whole test process down.
        faults.install(FaultPlan.parse("worker_crash=1"))
        engine = BatchEngine(workers=1)
        results = engine.run(distinct_jobs(2))
        assert all(result.ok for result in results)
        assert engine.stats()["pool_rebuilds"] == 0


class TestSlowJobProbe:
    def test_injected_stall_trips_the_job_deadline(self):
        faults.install(FaultPlan.parse("slow_job=1:5"))
        results = BatchEngine().run(distinct_jobs(1), timeout=0.05)
        assert not results[0].ok
        assert results[0].error_type == "BatchTimeoutError"


class TestNestedDeadline:
    def test_inner_exit_rearms_expired_outer_budget(self):
        """The outer timer's budget can be fully spent while an inner
        block runs; on inner exit it must be re-armed with the minimal
        delay (not a negative one) so it still fires promptly."""
        with pytest.raises(BatchTimeoutError):
            with _deadline(0.05):
                with _deadline(5.0):
                    time.sleep(0.2)  # outer 50 ms budget expires in here
                # The outer alarm fires during this spin, not before the
                # inner block exits (the inner timer masked it).
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pass

    def test_inner_exit_rearms_remaining_outer_budget(self):
        began = time.monotonic()
        with pytest.raises(BatchTimeoutError):
            with _deadline(0.4):
                with _deadline(5.0):
                    time.sleep(0.05)
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    pass
        elapsed = time.monotonic() - began
        # Fired on the *remaining* outer budget (~0.35 s), not a fresh
        # 0.4 s and certainly not the inner 5 s.
        assert elapsed < 2.0


def _iter_events(trace):
    from repro.trace import iter_events

    return iter_events(trace)
