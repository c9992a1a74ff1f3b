"""Tests for the fault-injection layer (`repro.faults`)."""

import pytest

from repro import faults
from repro.faults import NO_FAULTS, FaultPlan, FaultProbe


@pytest.fixture(autouse=True)
def _clean_plan():
    """Every test starts and ends without an installed process plan."""
    faults.reset()
    yield
    faults.reset()


class TestProbe:
    def test_rate_one_always_fires(self):
        probe = FaultProbe("http_503", 1.0)
        assert all(probe.fire() for _ in range(20))
        assert probe.checks == 20
        assert probe.fires == 20

    def test_rate_zero_never_fires(self):
        probe = FaultProbe("http_503", 0.0)
        assert not any(probe.fire() for _ in range(20))
        assert probe.fires == 0

    def test_cap_stops_firing_but_keeps_counting_checks(self):
        probe = FaultProbe("slow_job", 1.0, times=2)
        assert [probe.fire() for _ in range(5)] == [True, True, False, False, False]
        assert probe.checks == 5
        assert probe.fires == 2

    def test_same_seed_same_sequence(self):
        draws = []
        for _ in range(2):
            probe = FaultProbe("http_429", 0.5, seed=7)
            draws.append([probe.fire() for _ in range(50)])
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])  # a real mix at p=0.5

    def test_different_seeds_differ(self):
        first = FaultProbe("http_429", 0.5, seed=1)
        second = FaultProbe("http_429", 0.5, seed=2)
        assert ([first.fire() for _ in range(50)]
                != [second.fire() for _ in range(50)])

    def test_probes_draw_independent_streams(self):
        """Adding a second probe must not perturb the first one's draws."""
        alone = FaultPlan.parse("http_429=0.5", seed=3)
        paired = FaultPlan.parse("http_429=0.5,http_503=0.5", seed=3)
        solo = [alone.fire("http_429") for _ in range(40)]
        mixed = []
        for _ in range(40):
            mixed.append(paired.fire("http_429"))
            paired.fire("http_503")  # interleave the other stream
        assert solo == mixed

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            FaultProbe("http_429", 1.5)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="cap"):
            FaultProbe("http_429", 1.0, times=-1)


class TestParse:
    def test_full_grammar_round_trips(self):
        spec = "slow_job=1:x1,http_429=0.1:0.05,http_timeout=0.2:1.5:x3"
        plan = FaultPlan.parse(spec, seed=11)
        assert FaultPlan.parse(plan.spec(), seed=11).spec() == plan.spec()
        assert "slow_job" in plan
        assert "shard_crash" not in plan
        assert plan.arg("http_429", 9.9) == 0.05
        assert plan.arg("slow_job", 9.9) == 9.9  # no arg: default
        assert plan.arg("http_timeout", 0.0) == 1.5

    def test_cap_and_arg_order_is_free(self):
        a = FaultPlan.parse("slow_job=1:x2:0.5")
        b = FaultPlan.parse("slow_job=1:0.5:x2")
        assert a.spec() == b.spec()

    def test_unknown_probe_rejected(self):
        with pytest.raises(ValueError, match="unknown fault probe"):
            FaultPlan.parse("segfault=1")

    def test_missing_rate_rejected(self):
        with pytest.raises(ValueError, match="name=rate"):
            FaultPlan.parse("slow_job")

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError, match="not.*number"):
            FaultPlan.parse("slow_job=often")

    def test_bad_cap_rejected(self):
        with pytest.raises(ValueError, match="fire cap"):
            FaultPlan.parse("slow_job=1:xtwo")

    def test_duplicate_probe_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.parse("http_429=1,http_429=0.5")

    def test_empty_terms_are_skipped(self):
        plan = FaultPlan.parse(" http_503=1 , ")
        assert plan.spec() == "http_503=1"


class TestPlanApi:
    def test_absent_probe_never_fires(self):
        plan = FaultPlan.parse("http_429=1")
        assert not plan.fire("http_503")

    def test_stats_snapshot(self):
        plan = FaultPlan.parse("http_429=1:x1,http_503=0")
        plan.fire("http_429")
        plan.fire("http_429")
        plan.fire("http_503")
        stats = plan.stats()
        assert stats["http_429"] == {"rate": 1.0, "checks": 2, "fires": 1}
        assert stats["http_503"]["fires"] == 0

    def test_sleep_reports_whether_it_fired(self):
        plan = FaultPlan.parse("slow_job=1:0,http_timeout=0")
        assert plan.sleep("slow_job", 0.0) is True
        assert plan.sleep("http_timeout", 0.0) is False


class TestActivation:
    def test_default_is_the_shared_noop(self):
        plan = faults.active()
        assert plan is NO_FAULTS
        assert not plan.enabled
        assert not plan.fire("slow_job")
        assert plan.stats() == {}
        assert "slow_job" not in plan

    def test_install_wins_and_reset_forgets(self):
        plan = faults.install(FaultPlan.parse("http_429=1"))
        assert faults.active() is plan
        faults.reset()
        assert faults.active() is NO_FAULTS

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "http_503=0.5")
        monkeypatch.setenv(faults.ENV_SEED, "42")
        faults.reset()
        plan = faults.active()
        assert plan.enabled
        assert plan.seed == 42
        assert "http_503" in plan
        # Resolved once: the plan is stable until reset even if the
        # environment changes underneath it.
        monkeypatch.setenv(faults.ENV_SPEC, "http_429=1")
        assert faults.active() is plan

    def test_env_seed_defaults_to_zero(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "http_503=1")
        monkeypatch.delenv(faults.ENV_SEED, raising=False)
        faults.reset()
        assert faults.active().seed == 0
