"""Run-report tests: document building, schema validation, CLI output.

The acceptance bar: ``python -m repro report`` over a 10+ job batch must
emit a schema-valid JSON document and a Markdown report containing the
per-phase timings, per-response pole/residue tables, and every traced
order-escalation event with its error estimate.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (AweJob, BatchEngine, Design, Step, SweepEngine, SweepPlan,
                   SweepPoint, Tracer, run_sta)
from repro.cli import main
from repro.papercircuits import fig22_floating_cap, random_rc_tree
from repro.report import (
    REPORT_SCHEMA,
    build_report,
    build_sta_report,
    build_sweep_report,
    render_markdown,
    render_sta_markdown,
    render_sweep_markdown,
    response_record,
    validate_report,
    validate_sta_report,
    validate_sweep_report,
)
from tests.test_sta_service import demo_design_dict

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _ladder_deck(index: int, sections: int) -> str:
    """An RC ladder deck with a distinct title and an ``out`` node."""
    # The title must not parse as a card (an 'R…' first line with a
    # numeric tail would become a resistor), so start with a safe word.
    lines = [f"acceptance ladder {index}",
             "Vin in 0 PWL(0 0 0.2n 3.3)"]
    previous = "in"
    for s in range(1, sections):
        lines.append(f"R{s} {previous} n{s} {200 + 37 * index}")
        lines.append(f"C{s} n{s} 0 {120 + 11 * s}f")
        previous = f"n{s}"
    lines.append(f"Rout {previous} out {150 + 13 * index}")
    lines.append("Cout out 0 300f")
    lines.append(".end")
    return "\n".join(lines) + "\n"


@pytest.fixture()
def deck_files(tmp_path):
    paths = []
    for index in range(10):
        path = tmp_path / f"ladder{index}.sp"
        path.write_text(_ladder_deck(index, sections=3 + index % 4),
                        encoding="utf-8")
        paths.append(str(path))
    return paths


class TestCliAcceptance:
    """The ISSUE acceptance criterion, end to end over 10 jobs."""

    def test_ten_job_batch_json_and_markdown(self, deck_files, tmp_path, capsys):
        json_path = tmp_path / "run.json"
        md_path = tmp_path / "run.md"
        code = main(["report", *deck_files, "--node", "out",
                     "--target", "0.001",
                     "--json", str(json_path), "--markdown", str(md_path)])
        assert code == 0

        document = json.loads(json_path.read_text(encoding="utf-8"))
        validate_report(document)  # schema check on what the CLI wrote
        assert document["schema"] == REPORT_SCHEMA
        assert document["kind"] == "batch"
        assert document["totals"]["jobs"] == 10
        assert document["totals"]["jobs_failed"] == 0

        markdown = md_path.read_text(encoding="utf-8")

        # Per-phase timings, for the batch and per job.
        assert "## Solver phase breakdown" in markdown
        for phase in ("parse", "mna_assembly", "lu", "moment_recursion",
                      "pade"):
            assert f"| {phase} |" in markdown, phase

        # Per-response pole/residue tables.
        assert markdown.count("Poles and residues:") >= 10
        assert "| model | pole (1/s) | power | residue |" in markdown

        # Every traced order-escalation event appears with its estimate.
        escalations = [event for job in document["jobs"]
                       for event in job["events"]
                       if event["name"] == "order_escalation"]
        assert escalations, "a 0.1% target must force escalations"
        assert (document["totals"]["order_escalations_traced"]
                == len(escalations))
        for event in escalations:
            assert "error_estimate" in event["data"]
        assert markdown.count("| escalated") + markdown.count("escalated |") \
            >= len(escalations)

    def test_module_entry_point_streams_json(self, deck_files):
        process = subprocess.run(
            [sys.executable, "-m", "repro", "report", *deck_files[:3],
             "--node", "out", "--json", "-"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        assert process.returncode == 0, process.stderr
        document = json.loads(process.stdout)  # stdout is pure JSON
        validate_report(document)
        assert document["totals"]["jobs"] == 3

    def test_failed_job_reported_not_fatal(self, deck_files, tmp_path, capsys):
        # Parses fine but has no 'out' node, so the *job* fails while the
        # batch (and the report) survives.
        bad = tmp_path / "bad.sp"
        bad.write_text(
            "a deck without the requested node\n"
            "Vin x 0 DC 1\nR1 x y 50\nC1 y 0 1p\n.end\n",
            encoding="utf-8")
        json_path = tmp_path / "run.json"
        code = main(["report", deck_files[0], str(bad), "--node", "out",
                     "--json", str(json_path)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        document = json.loads(json_path.read_text(encoding="utf-8"))
        validate_report(document)
        assert document["totals"]["jobs_failed"] == 1
        failed = [job for job in document["jobs"] if not job["ok"]]
        assert failed and failed[0]["error_type"]

    def test_multi_deck_text_mode(self, deck_files, capsys):
        assert main(["report", *deck_files[:2], "--node", "out"]) == 0
        out = capsys.readouterr().out
        assert out.count("AWE timing report:") == 2
        assert "acceptance ladder 0" in out
        assert "acceptance ladder 1" in out


class TestBuildReport:
    def _results(self, n=2, trace=True, **engine_kwargs):
        jobs = [
            AweJob(fig22_floating_cap(), ("7",),
                   stimuli={"Vin": Step(0.0, 5.0)},
                   error_target=0.01, label=f"fig22-{i}")
            for i in range(n)
        ]
        engine = BatchEngine(**engine_kwargs)
        return engine.run(jobs, trace=trace), engine

    def test_kind_analysis_for_single_job(self):
        results, engine = self._results(n=1)
        document = validate_report(build_report(results,
                                                engine_stats=engine.stats()))
        assert document["kind"] == "analysis"
        assert document["totals"]["batching_factor"] is not None

    def test_untraced_results_still_valid(self):
        results, engine = self._results(n=2, trace=False)
        document = validate_report(build_report(results))
        assert all(job["traced"] is False for job in document["jobs"])
        assert all(job["phase_seconds"] == {} for job in document["jobs"])
        assert document["totals"]["batching_factor"] is None

    def test_include_traces_embeds_span_tree(self):
        results, engine = self._results(n=1)
        document = build_report(results, include_traces=True)
        trace = document["jobs"][0]["trace"]
        assert trace["name"] == "fig22-0"
        json.dumps(document)

    def test_title_and_threshold(self):
        results, engine = self._results(n=1)
        document = validate_report(build_report(
            results, engine_stats=engine.stats(), threshold=2.5,
            title="titled run"))
        assert document["title"] == "titled run"
        response = document["jobs"][0]["responses"][0]
        assert response["delay_threshold_s"] is not None

    def test_impossible_threshold_degrades_to_null(self):
        results, _ = self._results(n=1)
        document = validate_report(build_report(results, threshold=1e6))
        response = document["jobs"][0]["responses"][0]
        assert response["delay_threshold_s"] is None

    def test_victim_without_transition_has_no_50_percent_delay(self):
        from repro import AweAnalyzer, parse_netlist_file

        deck = parse_netlist_file(str(Path(__file__).resolve().parent.parent
                                      / "examples" / "decks" / "bus_segment.sp"))
        response = AweAnalyzer(deck.circuit, deck.stimuli).response(
            "v2", error_target=0.05)
        record = response_record("v2", response)
        assert record["final_value"] == pytest.approx(0.0, abs=1e-9)
        assert record["delay_50_s"] is None

    def test_response_record_terms_match_poles(self):
        results, _ = self._results(n=1)
        node, response = next(iter(results[0].responses.items()))
        record = response_record(node, response)
        assert record["node"] == node
        assert record["order"] == response.order
        assert len(record["poles"]) == response.order
        assert record["terms"], "pole/residue table must not be empty"
        for term in record["terms"]:
            assert set(term) == {"model", "t0_s", "pole", "power", "residue"}
        assert record["components"][0]["label"] == "main"


class TestValidateReport:
    def _document(self):
        results, engine = TestBuildReport()._results(n=1)
        return build_report(results, engine_stats=engine.stats())

    def test_round_trips_through_json(self):
        document = self._document()
        validate_report(json.loads(json.dumps(document)))

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(schema="nope/9"), "$.schema"),
        (lambda d: d.update(kind="sideways"), "$.kind"),
        (lambda d: d.update(jobs=[]), "$.jobs"),
        pytest.param(lambda d: d.update(jobs=-1), "$.jobs",
                     id="jobs-not-a-list"),
        (lambda d: d["jobs"][0].update(ok="yes"), ".ok"),
        (lambda d: d["jobs"][0].update(responses=[]), ".responses"),
        (lambda d: d["jobs"][0]["phase_seconds"].update(lu=-1.0), "phase_seconds"),
        (lambda d: d["totals"].update(jobs=99), "$.totals.jobs"),
        (lambda d: d["totals"].update(batching_factor="fast"), "batching_factor"),
        (lambda d: d["jobs"][0]["responses"][0].pop("node"), ".node"),
        (lambda d: d["jobs"][0]["events"].append(
            {"name": "order_escalation", "span": "x", "t_s": 0.0,
             "data": {"order": 1}}), "order_escalation"),
    ])
    def test_rejects_structural_damage(self, mutate, fragment):
        document = copy.deepcopy(self._document())
        mutate(document)
        with pytest.raises(ValueError) as excinfo:
            validate_report(document)
        assert fragment in str(excinfo.value)

    def test_reports_all_problems_at_once(self):
        document = copy.deepcopy(self._document())
        document["schema"] = "nope"
        document["kind"] = "sideways"
        with pytest.raises(ValueError) as excinfo:
            validate_report(document)
        message = str(excinfo.value)
        assert "$.schema" in message and "$.kind" in message

    def test_not_a_dict(self):
        with pytest.raises(ValueError):
            validate_report([1, 2, 3])


class TestRenderMarkdown:
    def test_failed_job_rendering(self):
        jobs = [AweJob(fig22_floating_cap(), ("missing",),
                       stimuli={"Vin": Step(0.0, 5.0)}, label="doomed")]
        results = BatchEngine().run(jobs, trace=True)
        document = validate_report(build_report(results))
        markdown = render_markdown(document)
        assert "**FAILED**" in markdown
        assert "`CircuitError`" in markdown

    def test_escalation_table_includes_estimates(self):
        jobs = [AweJob(fig22_floating_cap(), ("12",),
                       stimuli={"Vin": Step(0.0, 5.0)},
                       error_target=0.001, label="deep")]
        results = BatchEngine().run(jobs, trace=True)
        document = validate_report(build_report(results))
        markdown = render_markdown(document)
        assert "### Order trajectory" in markdown
        assert "| escalated" in markdown or "escalated |" in markdown
        assert "%" in markdown


def _sta_document() -> dict:
    tracer = Tracer("sta")
    run = run_sta(Design.from_dict(demo_design_dict()), k=3, tracer=tracer)
    return build_sta_report(run, trace=tracer.to_record(), parse_s=1e-3)


def _sweep_document() -> dict:
    tracer = Tracer("sweep")
    engine = SweepEngine(random_rc_tree(12, seed=7),
                         {"Vin": Step(0.0, 1.0)}, tracer=tracer)
    plan = SweepPlan(node="5", points=(
        SweepPoint(element="R2", scale=1.02, label="small"),
        SweepPoint(element="C5", scale=2.0, label="big"),
        SweepPoint(element="Vin", value=0.9, label="retune")))
    return build_sweep_report(engine.evaluate(plan), trace=tracer.to_record(),
                              parse_s=1e-3)


def _run_document() -> dict:
    jobs = [AweJob(fig22_floating_cap(), ("7", "12"),
                   stimuli={"Vin": Step(0.0, 5.0)}, error_target=0.001,
                   label="deep"),
            AweJob(fig22_floating_cap(), ("missing",),
                   stimuli={"Vin": Step(0.0, 5.0)}, label="doomed")]
    engine = BatchEngine()
    return build_report(engine.run(jobs, trace=True),
                        engine_stats=engine.stats(),
                        parse_seconds={"deep": 1e-3}, threshold=2.5)


KINDS = {
    "run": (_run_document, validate_report),
    "sta": (_sta_document, validate_sta_report),
    "sweep": (_sweep_document, validate_sweep_report),
}


@pytest.fixture(scope="module")
def documents():
    return {kind: build() for kind, (build, _) in KINDS.items()}


def _fields(value, path="$"):
    """``(path, container, key)`` of every object field of a document, in
    the validators' path notation.  Event payloads are free-form."""
    if isinstance(value, dict):
        free = path.endswith(("phase_seconds", "counters"))
        for key, item in value.items():
            field = f"{path}[{key!r}]" if free else f"{path}.{key}"
            yield field, value, key
            if key != "data":
                yield from _fields(item, field)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _fields(item, f"{path}[{index}]")


class TestOneChecker:
    """The three validators share one checker: every field the build_*
    functions write is checked, and damage is reported by its path."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_damaged_field_is_named_by_its_path(self, kind, documents):
        document = copy.deepcopy(documents[kind])
        validate = KINDS[kind][1]
        validate(json.loads(json.dumps(document)))
        fields = list(_fields(document))
        assert len(fields) > 40
        for path, container, key in fields:
            original = container[key]
            container[key] = object()  # no field accepts a bare object
            try:
                with pytest.raises(ValueError) as excinfo:
                    validate(document)
            finally:
                container[key] = original
            assert f"\n  {path}: " in str(excinfo.value), path

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(kind="analysis"), "$.kind"),
        (lambda d: d.update(interconnect="spice"), "$.interconnect"),
        (lambda d: d.update(k=True), "$.k"),
        (lambda d: d.update(corners=[]), "$.corners"),
        (lambda d: d["corners"][0].update(name=""), "$.corners[0].name"),
        (lambda d: d["corners"][0]["endpoints"][0].update(required_s=None),
         "$.corners[0].endpoints[0].required_s"),
        (lambda d: d["corners"][0]["paths"][0].update(rank=2),
         "$.corners[0].paths[0].rank"),
        (lambda d: d["corners"][0]["paths"][0]["edges"].pop(),
         "$.corners[0].paths[0].edges"),
        (lambda d: d["phase_seconds"].update(parse=-1.0), "phase_seconds"),
        (lambda d: d["events"].append("late"), "$.events["),
    ])
    def test_sta_rejects_structural_damage(self, documents, mutate, fragment):
        document = copy.deepcopy(documents["sta"])
        mutate(document)
        with pytest.raises(ValueError, match="invalid STA report") as excinfo:
            validate_sta_report(document)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: d.update(schema="repro.sweep-report/0"), "$.schema"),
        (lambda d: d.update(node=""), "$.node"),
        (lambda d: d["base"].update(mode="exact"), "$.base.mode"),
        (lambda d: d["points"][0].update(mode="base"), "$.points[0].mode"),
        (lambda d: d["points"][0].update(dc="high"), "$.points[0].dc"),
        (lambda d: d["points"][0].update(fallback=0), "$.points[0].fallback"),
        (lambda d: d["stats"].update(exact=d["stats"]["exact"] + 1), "$.stats"),
        (lambda d: d.update(incremental_points=-1), "$.incremental_points"),
        (lambda d: d.update(points=[]), "$.points"),
        (lambda d: d.update(traced="yes"), "$.traced"),
    ])
    def test_sweep_rejects_structural_damage(self, documents, mutate, fragment):
        document = copy.deepcopy(documents["sweep"])
        mutate(document)
        with pytest.raises(ValueError, match="invalid sweep report") as excinfo:
            validate_sweep_report(document)
        assert fragment in str(excinfo.value)

    def test_sta_and_sweep_list_every_problem_at_once(self, documents):
        for kind, validate in (("sta", validate_sta_report),
                               ("sweep", validate_sweep_report)):
            document = dict(documents[kind], generator=7, traced=None)
            with pytest.raises(ValueError) as excinfo:
                validate(document)
            assert "$.generator" in str(excinfo.value)
            assert "$.traced" in str(excinfo.value)

    def test_markdown_renderers_share_the_phase_table(self, documents):
        for markdown in (render_markdown(documents["run"]),
                         render_sta_markdown(documents["sta"]),
                         render_sweep_markdown(documents["sweep"])):
            assert "| phase | wall time | share |" in markdown
            assert "| parse | " in markdown

