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
:func:`validate_report` (a hand-rolled structural check — no external
schema library).  The field-by-field description lives in
``docs/observability.md``.
"""

from __future__ import annotations

from repro.errors import ApproximationError, ReproError
from repro.trace import iter_events, phase_seconds

#: Version tag stamped into (and required from) every report document.
REPORT_SCHEMA = "repro.run-report/1"

#: Phases the Markdown renderer orders first; anything else (custom span
#: names, the root's own time as ``other``) follows alphabetically.
PHASE_ORDER = (
    "parse", "mna_assembly", "lu", "operating_points", "t0_lu",
    "moment_recursion", "response", "pade_escalation", "pade", "residues",
    "waveform", "other",
)


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
    record["delay_50_s"] = _delay_or_none(response.delay_50) if switches else None
    if threshold is not None:
        record["delay_threshold_s"] = _delay_or_none(
            lambda: response.delay(threshold))
    return record


def _delay_or_none(compute) -> float | None:
    try:
        value = compute()
    except (ReproError, ValueError):
        # "never crosses the threshold" and friends: the delay simply
        # does not exist for this response.
        return None
    return None if value != value else float(value)  # NaN → None


def job_record(result, parse_s: float | None = None,
               threshold: float | None = None,
               include_trace: bool = False) -> dict:
    """One :class:`~repro.engine.batch.BatchResult` as a report entry."""
    phases = phase_seconds(result.trace)
    if result.trace is not None:
        # The root span's own (exclusive) time is inter-phase overhead.
        root_name = result.trace.get("name")
        if root_name in phases:
            phases["other"] = phases.pop(root_name)
    if parse_s is not None:
        phases["parse"] = float(parse_s)
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
        "phase_seconds": {name: float(s) for name, s in phases.items()},
        "events": [
            {"span": span_name, **event}
            for span_name, event in iter_events(result.trace)
        ],
        "traced": result.trace is not None,
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
    from repro import __version__

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
        "schema": REPORT_SCHEMA,
        "generator": f"repro {__version__}",
        "kind": "analysis" if len(jobs) == 1 else "batch",
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


# ----------------------------------------------------------------------
# Structural validation (the "schema check")
# ----------------------------------------------------------------------

_NUMBER = (int, float)


def validate_report(document) -> dict:
    """Check a run-report document against :data:`REPORT_SCHEMA`.

    Raises :class:`ValueError` listing *every* structural problem found;
    returns the document unchanged when it is valid.  This is the check
    the CLI runs before writing and the tests run on what it wrote.
    """
    problems: list[str] = []

    def need(condition, path, message):
        if not condition:
            problems.append(f"{path}: {message}")
        return condition

    def number_or_none(container, path, name):
        v = container.get(name)
        need(v is None or (isinstance(v, _NUMBER) and not isinstance(v, bool)),
             f"{path}.{name}", "must be a number or null")

    if not need(isinstance(document, dict), "$", "report must be an object"):
        raise ValueError("invalid run report:\n  " + "\n  ".join(problems))
    need(document.get("schema") == REPORT_SCHEMA, "$.schema",
         f"must be {REPORT_SCHEMA!r}, got {document.get('schema')!r}")
    need(isinstance(document.get("generator"), str), "$.generator",
         "must be a string")
    need(document.get("kind") in ("analysis", "batch"), "$.kind",
         "must be 'analysis' or 'batch'")

    jobs = document.get("jobs")
    if need(isinstance(jobs, list) and jobs, "$.jobs", "must be a non-empty list"):
        for j, job in enumerate(jobs):
            path = f"$.jobs[{j}]"
            if not need(isinstance(job, dict), path, "must be an object"):
                continue
            need(isinstance(job.get("index"), int), f"{path}.index", "must be an int")
            need(isinstance(job.get("label"), str), f"{path}.label", "must be a string")
            need(isinstance(job.get("ok"), bool), f"{path}.ok", "must be a bool")
            need(isinstance(job.get("elapsed_s"), _NUMBER), f"{path}.elapsed_s",
                 "must be a number")
            need(isinstance(job.get("traced"), bool), f"{path}.traced", "must be a bool")
            responses = job.get("responses")
            if not need(isinstance(responses, list), f"{path}.responses",
                        "must be a list"):
                responses = []
            if job.get("ok"):
                need(bool(responses), f"{path}.responses",
                     "a successful job must carry at least one response")
                need(job.get("error") is None, f"{path}.error",
                     "must be null on success")
            else:
                need(isinstance(job.get("error"), str), f"{path}.error",
                     "must describe the failure")
                need(isinstance(job.get("error_type"), str), f"{path}.error_type",
                     "must name the exception type")
            for r, response in enumerate(responses):
                rpath = f"{path}.responses[{r}]"
                if not need(isinstance(response, dict), rpath, "must be an object"):
                    continue
                need(isinstance(response.get("node"), str), f"{rpath}.node",
                     "must be a string")
                need(isinstance(response.get("order"), int)
                     and response.get("order", -1) >= 0,
                     f"{rpath}.order", "must be a non-negative int")
                number_or_none(response, rpath, "error_estimate")
                number_or_none(response, rpath, "final_value")
                for listname, fields in (("poles", ("re", "im")),
                                         ("terms", ("pole", "power", "residue"))):
                    items = response.get(listname)
                    if not need(isinstance(items, list), f"{rpath}.{listname}",
                                "must be a list"):
                        continue
                    for i, item in enumerate(items):
                        need(isinstance(item, dict)
                             and all(field in item for field in fields),
                             f"{rpath}.{listname}[{i}]",
                             f"must be an object with {fields}")
                need(isinstance(response.get("components"), list),
                     f"{rpath}.components", "must be a list")
            phases = job.get("phase_seconds")
            if need(isinstance(phases, dict), f"{path}.phase_seconds",
                    "must be an object"):
                for name, seconds in phases.items():
                    need(isinstance(seconds, _NUMBER) and seconds >= 0.0,
                         f"{path}.phase_seconds[{name!r}]",
                         "must be a non-negative number")
            events = job.get("events")
            if need(isinstance(events, list), f"{path}.events", "must be a list"):
                for e, event in enumerate(events):
                    epath = f"{path}.events[{e}]"
                    if not need(isinstance(event, dict), epath, "must be an object"):
                        continue
                    need(isinstance(event.get("name"), str), f"{epath}.name",
                         "must be a string")
                    need(isinstance(event.get("span"), str), f"{epath}.span",
                         "must name the owning span")
                    need(isinstance(event.get("t_s"), _NUMBER), f"{epath}.t_s",
                         "must be a number")
                    need(isinstance(event.get("data"), dict), f"{epath}.data",
                         "must be an object")
                    if event.get("name") == "order_escalation":
                        data = event.get("data") or {}
                        need("order" in data and "reason" in data
                             and "error_estimate" in data,
                             f"{epath}.data",
                             "order_escalation needs order/reason/error_estimate")

    totals = document.get("totals")
    if need(isinstance(totals, dict), "$.totals", "must be an object"):
        need(totals.get("jobs") == len(jobs or []), "$.totals.jobs",
             "must equal the number of job entries")
        need(isinstance(totals.get("jobs_failed"), int), "$.totals.jobs_failed",
             "must be an int")
        need(isinstance(totals.get("phase_seconds"), dict),
             "$.totals.phase_seconds", "must be an object")
        need(isinstance(totals.get("counters"), dict), "$.totals.counters",
             "must be an object")
        number_or_none(totals, "$.totals", "batching_factor")

    if problems:
        raise ValueError("invalid run report:\n  " + "\n  ".join(problems))
    return document
