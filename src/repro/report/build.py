"""Run-report document builder + schema validator.

:func:`build_report` turns a list of
:class:`~repro.engine.batch.BatchResult`\\ s (usually from
``BatchEngine.run(..., trace=True)``) into one machine-readable document
— plain dicts/lists/numbers, ready for ``json.dump`` — that captures
everything the paper's economic argument needs per response: where the
wall time went (per-phase breakdown from the trace spans), what the
solver did (counter totals, achieved batching factor), which poles and
residues each response ended up with, and the full order-escalation
trajectory with its error estimates.

The document shape is versioned by :data:`REPORT_SCHEMA` and enforced by
:func:`validate_report`, which walks the field spec below with the
checker every report kind shares (:mod:`repro.report.schema`).  The
field-by-field description lives in ``docs/observability.md``.
"""

from __future__ import annotations

from repro.errors import ApproximationError, ReproError
from repro.report.schema import (
    BOOL, COUNT, NUMBER, NUMBER_OR_NULL, SECONDS, STRING, STRING_OR_NULL,
    TRACE_TAIL, ListOf, MapOf, Optional, check, header, header_spec, items,
    trace_tail,
)

#: Version tag stamped into (and required from) every report document.
REPORT_SCHEMA = "repro.run-report/1"


def _complex_record(value) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def response_record(node: str, response, threshold: float | None = None) -> dict:
    """One response's report entry: order, accuracy, poles/residues, delays.

    ``response`` is an :class:`~repro.core.driver.AweResponse`.  Delay and
    final-value fields degrade to ``None`` where the quantity does not
    exist: an unstable fixed-order fit has no final value, a threshold
    the waveform never reaches has no crossing, and a node with no net
    transition (``|final − initial| < 10⁻⁶·max(|final|, |initial|, 1)``,
    e.g. a crosstalk victim) has no 50 % delay.  Every surface prints
    its tables from these records.
    """
    estimate = response.error_estimate
    record: dict = {
        "node": node,
        "order": int(response.order),
        "error_estimate": None if estimate is None else float(estimate),
        "poles": [_complex_record(p) for p in response.poles],
        "terms": [
            {
                "model": model.name,
                "t0_s": float(model.t0),
                "pole": _complex_record(pole),
                "power": int(power),
                "residue": _complex_record(residue),
            }
            for model in response.waveform.models
            for pole, power, residue in model.terms
        ],
        "components": [
            {
                "label": component.label,
                "order": int(component.order),
                "error_estimate": (
                    None if component.error_estimate is None
                    else float(component.error_estimate)
                ),
                "escalations": list(component.escalations),
            }
            for component in response.components
        ],
    }
    try:
        final = float(response.waveform.final_value())
    except ApproximationError:
        final = None
    record["final_value"] = final
    initial = float(response.waveform.evaluate(0.0))
    switches = final is not None and abs(final - initial) >= 1e-6 * max(
        abs(final), abs(initial), 1.0)
    # One scan reads both delays: the 50 % level in the switching
    # direction, the threshold in either.
    levels = [(0.5 * (initial + final), final > initial)] if switches else []
    if threshold is not None:
        levels.append((threshold, None))
    delays = _delays_or_none(response.waveform, levels)
    record["delay_50_s"] = delays.pop(0) if switches else None
    if threshold is not None:
        record["delay_threshold_s"] = delays.pop(0)
    return record


def _delays_or_none(waveform, levels: list) -> list:
    """First crossings of ``(level, rising)`` pairs; ``None`` where the
    delay does not exist ("never crosses" and friends)."""
    if not levels:
        return []
    try:
        crossings = waveform.first_crossings(levels)
    except (ReproError, ValueError):
        return [None] * len(levels)
    return [None if value is None or value != value else float(value)  # NaN → None
            for value in crossings]


def job_record(result, parse_s: float | None = None,
               threshold: float | None = None,
               include_trace: bool = False) -> dict:
    """One :class:`~repro.engine.batch.BatchResult` as a report entry."""
    record: dict = {
        "index": int(result.index),
        "label": result.label,
        "ok": result.ok,
        "error": result.error,
        "error_type": result.error_type,
        "elapsed_s": float(result.elapsed_s),
        "responses": [
            response_record(node, response, threshold)
            for node, response in (result.responses or {}).items()
        ],
        **trace_tail(result.trace, parse_s),
    }
    if include_trace:
        record["trace"] = result.trace
    return record


def build_report(
    results,
    engine_stats: dict | None = None,
    parse_seconds: dict | None = None,
    threshold: float | None = None,
    title: str | None = None,
    include_traces: bool = False,
) -> dict:
    """Assemble the versioned run-report document.

    Parameters
    ----------
    results:
        Ordered :class:`~repro.engine.batch.BatchResult` list (one job's
        worth is fine — ``kind`` becomes ``"analysis"`` for a single job,
        ``"batch"`` otherwise).
    engine_stats:
        :meth:`BatchEngine.stats` output, recorded under
        ``totals.counters`` and used for the achieved batching factor.
    parse_seconds:
        Optional ``{job label: seconds}`` of front-end parse time (the
        CLI measures it; the engine never sees the deck file), merged
        into each job's phase table as the ``parse`` phase.
    threshold:
        Optional voltage for an extra per-response threshold delay.
    include_traces:
        Embed each job's full trace record (can be large).
    """
    results = list(results)
    parse_seconds = parse_seconds or {}
    jobs = [
        job_record(result, parse_seconds.get(result.label), threshold,
                   include_traces)
        for result in results
    ]

    phase_totals: dict = {}
    for job in jobs:
        for name, seconds in job["phase_seconds"].items():
            phase_totals[name] = phase_totals.get(name, 0.0) + seconds

    counters = dict(engine_stats or {})
    solves = counters.get("triangular_solves", 0)
    batching_factor = (
        counters["solve_columns"] / solves
        if solves and "solve_columns" in counters else None
    )
    escalation_count = sum(
        1 for job in jobs for event in job["events"]
        if event["name"] == "order_escalation"
    )

    document = {
        **header(REPORT_SCHEMA, "analysis" if len(jobs) == 1 else "batch"),
        "jobs": jobs,
        "totals": {
            "jobs": len(jobs),
            "jobs_failed": sum(1 for job in jobs if not job["ok"]),
            "wall_time_s": sum(job["elapsed_s"] for job in jobs),
            "phase_seconds": phase_totals,
            "counters": counters,
            "batching_factor": batching_factor,
            "order_escalations_traced": escalation_count,
        },
    }
    if title:
        document["title"] = title
    return document


_COMPLEX = {"re": NUMBER, "im": NUMBER}

_RESPONSE = {
    "node": STRING,
    "order": COUNT,
    "error_estimate": NUMBER_OR_NULL,
    "poles": ListOf(_COMPLEX),
    "terms": ListOf({"model": STRING, "t0_s": NUMBER, "pole": _COMPLEX,
                     "power": COUNT, "residue": _COMPLEX}),
    "components": ListOf({"label": STRING, "order": COUNT,
                          "error_estimate": NUMBER_OR_NULL,
                          "escalations": ListOf(STRING)}),
    "final_value": NUMBER_OR_NULL,
    "delay_50_s": NUMBER_OR_NULL,
    "delay_threshold_s": Optional(NUMBER_OR_NULL),
}

_SPEC = {
    **header_spec(REPORT_SCHEMA, "analysis", "batch"),
    "title": Optional(STRING),
    "jobs": ListOf({
        "index": COUNT,
        "label": STRING,
        "ok": BOOL,
        "error": STRING_OR_NULL,
        "error_type": STRING_OR_NULL,
        "elapsed_s": SECONDS,
        "responses": ListOf(_RESPONSE),
        **TRACE_TAIL,
    }, nonempty=True),
    "totals": {
        "jobs": COUNT,
        "jobs_failed": COUNT,
        "wall_time_s": SECONDS,
        "phase_seconds": MapOf(SECONDS),
        "counters": MapOf(NUMBER),
        "batching_factor": NUMBER_OR_NULL,
        "order_escalations_traced": COUNT,
    },
}


def _rules(document: dict, need) -> None:
    for j, job in enumerate(items(document, "jobs")):
        if not isinstance(job, dict):
            continue
        path = f"$.jobs[{j}]"
        if job.get("ok"):
            need(items(job, "responses"), f"{path}.responses",
                 "a successful job must carry at least one response")
            need(job.get("error") is None, f"{path}.error",
                 "must be null on success")
        else:
            need(isinstance(job.get("error"), str), f"{path}.error",
                 "must describe the failure")
            need(isinstance(job.get("error_type"), str), f"{path}.error_type",
                 "must name the exception type")
        for e, event in enumerate(items(job, "events")):
            if isinstance(event, dict) and event.get("name") == "order_escalation":
                data = event.get("data")
                need(isinstance(data, dict) and all(
                    key in data for key in ("order", "reason", "error_estimate")),
                    f"{path}.events[{e}].data",
                    "order_escalation needs order/reason/error_estimate")
    totals = document.get("totals")
    if isinstance(totals, dict) and isinstance(document.get("jobs"), list):
        need(totals.get("jobs") == len(document["jobs"]), "$.totals.jobs",
             "must equal the number of job entries")


def validate_report(document) -> dict:
    """Check a run-report document against :data:`REPORT_SCHEMA`.

    Raises :class:`ValueError` listing *every* structural problem found;
    returns the document unchanged when it is valid.  This is the check
    the CLI runs before writing and the tests run on what it wrote.
    """
    return check(document, _SPEC, _rules, "run")
