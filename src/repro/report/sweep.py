"""Sweep report documents: build, validate, and render to Markdown.

Mirrors :mod:`repro.report.sta` for the incremental what-if sweep
pipeline: a :class:`~repro.sweep.SweepResult` (plus an optional trace
record) turns into one versioned JSON document in the shared envelope,
the shared checker walks its field spec, and a Markdown renderer
produces the human-facing table.  The document is what ``POST /sweep``
returns and what the cache stores bit for bit.
"""

from __future__ import annotations

from repro.report.render import phase_table, picoseconds, table
from repro.report.schema import (
    BOOL, COUNT, NAME, NUMBER, NUMBER_OR_NULL, STRING, TRACE_TAIL, ListOf,
    check, header, header_spec, one_of, trace_tail,
)

#: Version tag stamped into (and required from) every sweep report.
SWEEP_REPORT_SCHEMA = "repro.sweep-report/1"

_TIERS = ("first_order", "rank1", "exact")


def build_sweep_report(result, trace: dict | None = None,
                       parse_s: float | None = None) -> dict:
    """Assemble the versioned sweep report document.

    Parameters
    ----------
    result:
        The :class:`~repro.sweep.SweepResult` to serialise.
    trace:
        Optional :meth:`~repro.trace.Tracer.to_record` output of the
        tracer passed to the engine; span times and the per-point
        ``sweep_point`` / ``sweep_fallback`` events are folded in.
    parse_s:
        Optional front-end parse time, merged into the phase table.
    """
    payload = result.to_payload()
    return {
        **header(SWEEP_REPORT_SCHEMA, "sweep"),
        "node": payload["node"],
        "base": payload["base"],
        "points": payload["points"],
        "stats": payload["stats"],
        "incremental_points": int(result.incremental_points),
        **trace_tail(trace, parse_s),
    }


def _point(*modes: str) -> dict:
    return {"element": STRING, "value": NUMBER, "label": STRING,
            "mode": one_of(*modes), "dc": NUMBER, "m1": NUMBER,
            "elmore_delay": NUMBER, "error_estimate": NUMBER_OR_NULL,
            "fallback": BOOL}


_SPEC = {
    **header_spec(SWEEP_REPORT_SCHEMA, "sweep"),
    "node": NAME,
    "base": _point("base"),
    "points": ListOf(_point(*_TIERS), nonempty=True),
    "stats": dict.fromkeys((*_TIERS, "fallbacks", "factorizations"), COUNT),
    "incremental_points": COUNT,
    **TRACE_TAIL,
}


def _rules(document: dict, need) -> None:
    stats, points = document.get("stats"), document.get("points")
    if isinstance(stats, dict) and isinstance(points, list):
        tiers = [stats.get(tier) for tier in _TIERS]
        if all(isinstance(count, int) for count in tiers):
            need(sum(tiers) == len(points), "$.stats",
                 "tier counts must sum to the point count")


def validate_sweep_report(document) -> dict:
    """Check a sweep report against :data:`SWEEP_REPORT_SCHEMA`.

    Raises :class:`ValueError` listing every structural problem found;
    returns the document unchanged when valid.
    """
    return check(document, _SPEC, _rules, "sweep")


def render_sweep_markdown(document: dict) -> str:
    """Human-facing Markdown for a validated sweep report."""
    base, stats = document["base"], document["stats"]
    lines = [
        f"# Sweep report — node {document['node']}", "",
        f"- generator: `{document['generator']}`",
        f"- base Elmore delay: {picoseconds(base['elmore_delay'])} (dc {base['dc']:g})",
        f"- points: {len(document['points'])} "
        f"({document['incremental_points']} incremental, "
        f"{stats['factorizations']} extra factorizations, "
        f"{stats['fallbacks']} fallbacks)",
        f"- tier mix: first_order {stats['first_order']}, "
        f"rank1 {stats['rank1']}, exact {stats['exact']}", "",
        *table(["element", "value", "mode", "dc", "Elmore delay", "est. error"], [
            (f"`{entry['element']}`", f"{entry['value']:g}",
             entry["mode"] + (" (fallback)" if entry["fallback"] else ""),
             f"{entry['dc']:g}", picoseconds(entry["elmore_delay"]),
             "—" if entry["error_estimate"] is None
             else f"{entry['error_estimate']:.3g}")
            for entry in document["points"]]), ""]
    if document["phase_seconds"]:
        lines += ["## Where the time went", "",
                  *phase_table(document["phase_seconds"]), ""]
    return "\n".join(lines)
