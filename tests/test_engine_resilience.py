"""Resilience tests for the batch engine (`repro.engine.batch`).

Covers the ``slow_job`` fault probe tripping a job's deadline, and the
nested ``_deadline`` branch where the outer budget expires while an
inner block runs.
"""

import time

import pytest

from repro import AweJob, BatchEngine, Step, faults
from repro.engine.batch import _deadline
from repro.errors import BatchTimeoutError
from repro.faults import FaultPlan
from repro.papercircuits import random_rc_tree

STIM = {"Vin": Step(0.0, 5.0)}


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.reset()
    yield
    faults.reset()


def distinct_jobs(count):
    """One job per distinct circuit."""
    return [
        AweJob(random_rc_tree(5, seed=seed), ("3",), stimuli=STIM, order=2,
               label=f"net{seed}")
        for seed in range(count)
    ]


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
