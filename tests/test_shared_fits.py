"""One Padé fit per distinct moment sequence (paper Sec. 4.3, Fig. 13).

A finite-rise input is the difference of time-shifted ramp responses of
one circuit, so its subproblems' moment chains are exact ± copies of each
other.  ``AweAnalyzer`` marks such *mirror* subproblems once, and each
response escalates only the first of every family; a mirror reuses that
fit.  The sharing must be exact: every mirror component is what fitting
its own subproblem directly gives, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (PWL, AweAnalyzer, AweJob, BatchEngine, Pulse, Ramp, Step,
                   Tracer)
from repro.papercircuits import fig25_rlc_ladder, random_rc_tree
from repro.report import build_report, render_markdown, validate_report
from repro.trace import iter_events


#: Edges and width that are exact binary fractions, so the rising and
#: falling slopes are exact negatives (1e-10-style times round, and then
#: only each edge's own two events mirror each other).
_EQUAL_EDGES = {"Vin": Pulse(0.0, 1.0, rise=2.0**-33, width=2.0**-31,
                             fall=2.0**-33)}


def _mirror_cases():
    cases = {}
    for n in range(4, 11):
        for seed in (0, 1):
            circuit = random_rc_tree(n, seed=seed)
            nodes = tuple(str(k) for k in range(1, n + 1))
            ramp = {"Vin": Ramp(0.0, 1.0, rise_time=2e-10)}
            cases[f"ramp_tree_{n}_{seed}"] = (circuit, ramp, nodes, {})
            cases[f"pwl_tree_{n}_{seed}"] = (
                circuit, {"Vin": PWL([(0.0, 0.0), (1.5e-10, 3.3)])}, nodes, {})
            cases[f"pulse_tree_{n}_{seed}"] = (circuit, _EQUAL_EDGES, nodes, {})
        cases[f"slope_matched_tree_{n}"] = (
            random_rc_tree(n, seed=3), {"Vin": Ramp(0.0, 1.0, rise_time=2e-10)},
            tuple(str(k) for k in range(1, n + 1)),
            {"order": 3, "match_initial_slope": True})
    # Trees whose fixed-order fit has a right-half-plane pole to discard.
    for n, seed, order in ((4, 6, 3), (5, 6, 4), (7, 4, 3), (8, 7, 3), (9, 2, 4)):
        cases[f"stabilized_order_{order}_tree_{n}_{seed}"] = (
            random_rc_tree(n, seed=seed), {"Vin": Ramp(0.0, 1.0, rise_time=2e-10)},
            tuple(str(k) for k in range(1, n + 1)),
            {"order": order, "stabilize": True})
    rlc_ramp = {"Vin": Ramp(0.0, 5.0, rise_time=1e-9)}
    cases["fig27_rlc_ramp_auto"] = (fig25_rlc_ladder(), rlc_ramp, ("1", "2", "3"), {})
    cases["fig27_rlc_ramp_order_2"] = (fig25_rlc_ladder(), rlc_ramp, ("1", "2", "3"),
                                       {"order": 2})
    return cases


_CASES = _mirror_cases()


def _direct(analyzer, sub, node, options):
    row = analyzer.system.index.node(node)
    return analyzer._approximate_component(
        sub, row, node, options.get("order"), 0.01,
        options.get("match_initial_slope", False), True, "exact",
        options.get("stabilize", False),
    )


@pytest.mark.parametrize("case", sorted(_CASES))
def test_mirror_components_equal_their_direct_fits(case):
    circuit, stimuli, nodes, options = _CASES[case]
    tracer = Tracer(case)
    analyzer = AweAnalyzer(circuit, stimuli, tracer=tracer)
    subproblems = analyzer.subproblems()
    mirrors = [i for i, sub in enumerate(subproblems) if sub.mirror is not None]
    assert mirrors, "a ramp from rest has a mirror"
    compared = 0
    for node in nodes:
        try:
            response = analyzer.response(node, **options)
        except Exception as exc:  # noqa: BLE001 - the direct fit must agree
            with pytest.raises(type(exc)):
                for sub in subproblems:
                    _direct(analyzer, sub, node, options)
            continue
        models = response.waveform.models
        infos = {info.label: info for info in response.components}
        for i in mirrors:
            sub = subproblems[i]
            source, sign = sub.mirror
            model, info = _direct(analyzer, sub, node, options)
            shared = models[i]
            assert (shared.offset, shared.slope, shared.t0, shared.name) == (
                model.offset, model.slope, model.t0, model.name)
            # Bitwise, signed zeros included: the run report prints them.
            assert shared.poles.tobytes() == model.poles.tobytes()
            assert shared.residues.tobytes() == model.residues.tobytes()
            assert np.array_equal(shared.residues, sign * models[source].residues)
            assert np.array_equal(shared.poles, models[source].poles)
            if info is None:
                assert sub.label not in infos
                continue
            mine = infos[sub.label]
            assert mine.order == info.order
            assert mine.error_estimate == info.error_estimate
            assert mine.escalations == info.escalations
            assert np.array_equal(mine.poles, info.poles)
            compared += 1
    assert compared > 0
    events = [event["name"] for _, event in iter_events(tracer.to_record())]
    assert events.count("fit_shared") == compared  # none fell back to a refit
    if options.get("stabilize"):
        assert "partial_pade" in events


def test_equal_edge_pulse_has_mirrors_of_both_signs():
    analyzer = AweAnalyzer(random_rc_tree(6, seed=4), _EQUAL_EDGES)
    assert [sub.mirror for sub in analyzer.subproblems()] == [
        None, (0, -1), (0, -1), (0, 1)]


def test_three_point_pwl_with_unequal_slopes_shares_nothing():
    analyzer = AweAnalyzer(random_rc_tree(7, seed=5), {
        "Vin": PWL([(0.0, 0.0), (1e-10, 0.3), (3e-10, 1.0)])})
    subproblems = analyzer.subproblems()
    assert len(subproblems) == 3
    assert all(sub.mirror is None for sub in subproblems)


def test_step_has_one_subproblem_and_no_mirror():
    analyzer = AweAnalyzer(random_rc_tree(7, seed=5), {"Vin": Step(0.0, 1.0)})
    assert [sub.mirror for sub in analyzer.subproblems()] == [None]


class TestCountersAndEvents:
    def test_traced_ramp_job_fits_each_distinct_sequence_once(self):
        nodes = ("3", "5", "8")
        job = AweJob(random_rc_tree(8, seed=1), nodes, label="ramp",
                     stimuli={"Vin": Ramp(0.0, 1.0, rise_time=2e-10)})
        (result,) = BatchEngine().run([job], trace=True)
        events = [event for _, event in iter_events(result.trace)]
        accepted = [e["data"] for e in events if e["name"] == "order_accepted"]
        shared = [e["data"] for e in events if e["name"] == "fit_shared"]
        assert len(accepted) == len(nodes)      # "main" once per node
        assert len(shared) == len(nodes)        # its mirror once per node
        assert {d["subproblem"] for d in accepted} == {"main"}
        for data in shared:
            assert data["subproblem"].startswith("event@")
            assert data["source"] == "main"
            assert data["sign"] == -1
            order = next(a["order"] for a in accepted if a["node"] == data["node"])
            assert data["order"] == order
        # No mirror replays its source's trajectory.
        assert not [e for e in events if e["name"] == "order_escalation"
                    and e["data"]["subproblem"] != "main"]

    def test_order_escalations_count_only_performed_escalations(self):
        tracer = Tracer("ramp")
        analyzer = AweAnalyzer(random_rc_tree(9, seed=3),
                               {"Vin": Ramp(0.0, 1.0, rise_time=2e-10)},
                               tracer=tracer)
        for node in ("2", "6", "9"):
            analyzer.response(node, error_target=0.001)
        escalations = [e for _, e in iter_events(tracer.to_record())
                       if e["name"] == "order_escalation"]
        assert escalations
        assert {e["data"]["subproblem"] for e in escalations} == {"main"}
        assert analyzer.stats()["order_escalations"] == len(escalations)

    def test_markdown_trajectory_shows_shared_components(self):
        job = AweJob(random_rc_tree(6, seed=2), ("4",), label="ramp",
                     stimuli={"Vin": Ramp(0.0, 1.0, rise_time=2e-10)})
        document = validate_report(build_report(BatchEngine().run([job], trace=True)))
        markdown = render_markdown(document)
        assert "| event@2e-10 | 4 |" in markdown
        assert "| shared |" in markdown
        assert "fit of main, residue sign -1" in markdown
