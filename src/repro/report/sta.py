"""STA report documents: build, validate, and render to Markdown.

Mirrors :mod:`repro.report.build` for the STA pipeline: an
:class:`~repro.sta.engine.StaRun` (plus an optional trace record) turns
into one JSON-ready document in the shared envelope, the shared checker
walks its field spec, and a Markdown renderer produces the human-facing
tables.  Unconstrained quantities (``±inf`` arrivals/slacks — endpoints
no launch point reaches) serialise as ``null``.
"""

from __future__ import annotations

import math

from repro.report.render import phase_table, picoseconds, table
from repro.report.schema import (
    COUNT, INT, NAME, NUMBER, NUMBER_OR_NULL, STRING, TRACE_TAIL, ListOf,
    check, header, header_spec, items, one_of, trace_tail,
)

#: Version tag stamped into (and required from) every STA report.
STA_REPORT_SCHEMA = "repro.sta-report/1"


def _finite_or_none(value: float) -> float | None:
    return None if not math.isfinite(value) else float(value)


def _path_record(rank: int, path) -> dict:
    return {
        "rank": rank,
        "endpoint": path.endpoint,
        "start": path.start,
        "slack_s": float(path.slack),
        "arrival_s": float(path.arrival),
        "required_s": float(path.required),
        "nodes": list(path.nodes),
        "edges": [
            {"src": edge.src, "dst": edge.dst, "kind": edge.kind,
             "label": edge.label, "delay_s": float(edge.delay)}
            for edge in path.edges
        ],
    }


def _corner_record(analysis) -> dict:
    corner = analysis.corner
    result = analysis.result
    worst = analysis.worst_slack
    return {
        "name": corner.name,
        "factors": {"wire_r": corner.wire_r, "wire_c": corner.wire_c,
                    "cell": corner.cell},
        "nodes": analysis.built.graph.node_count,
        "edges": analysis.built.graph.edge_count,
        "worst_slack_s": None if worst is None else float(worst),
        "endpoints": [
            {
                "endpoint": endpoint,
                "arrival_s": _finite_or_none(result.arrival[endpoint]),
                "required_s": float(result.required_time[endpoint]),
                "slack_s": _finite_or_none(result.slack[endpoint]),
            }
            for endpoint in result.endpoints
        ],
        "paths": [_path_record(rank, path)
                  for rank, path in enumerate(analysis.paths, start=1)],
    }


def build_sta_report(run, trace: dict | None = None,
                     parse_s: float | None = None) -> dict:
    """Assemble the versioned STA report document.

    Parameters
    ----------
    run:
        The :class:`~repro.sta.engine.StaRun` to serialise.
    trace:
        Optional :meth:`~repro.trace.Tracer.to_record` output of the
        tracer passed to :func:`~repro.sta.engine.run_sta`; its span
        times and events are folded in like the run-report does.
    parse_s:
        Optional front-end parse time, merged into the phase table.
    """
    worst = run.worst_slack
    return {
        **header(STA_REPORT_SCHEMA, "sta"),
        "design": run.design.name,
        "interconnect": run.interconnect,
        "k": int(run.k),
        "worst_slack_s": None if worst is None else float(worst),
        "corners": [_corner_record(analysis) for analysis in run.corners],
        **trace_tail(trace, parse_s),
    }


_PATH = {
    "rank": INT,
    "endpoint": STRING,
    "start": STRING,
    "slack_s": NUMBER,
    "arrival_s": NUMBER,
    "required_s": NUMBER,
    "nodes": ListOf(STRING, nonempty=True),
    "edges": ListOf({"src": STRING, "dst": STRING, "kind": STRING,
                     "label": STRING, "delay_s": NUMBER}),
}

_SPEC = {
    **header_spec(STA_REPORT_SCHEMA, "sta"),
    "design": STRING,
    "interconnect": one_of("awe", "elmore"),
    "k": COUNT,
    "worst_slack_s": NUMBER_OR_NULL,
    "corners": ListOf({
        "name": NAME,
        "factors": {"wire_r": NUMBER, "wire_c": NUMBER, "cell": NUMBER},
        "nodes": COUNT,
        "edges": COUNT,
        "worst_slack_s": NUMBER_OR_NULL,
        "endpoints": ListOf({"endpoint": STRING, "arrival_s": NUMBER_OR_NULL,
                             "required_s": NUMBER, "slack_s": NUMBER_OR_NULL},
                            nonempty=True),
        "paths": ListOf(_PATH),
    }, nonempty=True),
    **TRACE_TAIL,
}


def _rules(document: dict, need) -> None:
    for c, corner in enumerate(items(document, "corners")):
        for p, entry in enumerate(items(corner, "paths")):
            if not isinstance(entry, dict):
                continue
            path = f"$.corners[{c}].paths[{p}]"
            need(entry.get("rank") == p + 1, f"{path}.rank",
                 f"must be {p + 1} (1-based, dense)")
            nodes, edges = entry.get("nodes"), entry.get("edges")
            if isinstance(edges, list):
                need(isinstance(nodes, list)
                     and len(edges) == max(0, len(nodes) - 1),
                     f"{path}.edges", "must have exactly len(nodes) - 1 entries")


def validate_sta_report(document) -> dict:
    """Check an STA report against :data:`STA_REPORT_SCHEMA`.

    Raises :class:`ValueError` listing every structural problem found;
    returns the document unchanged when valid.
    """
    return check(document, _SPEC, _rules, "STA")


def render_sta_markdown(document: dict) -> str:
    """Human-facing Markdown for a validated STA report."""
    lines = [f"# STA report — {document['design']}", "",
             f"- generator: `{document['generator']}`",
             f"- interconnect: `{document['interconnect']}`",
             f"- paths requested per corner: {document['k']}",
             f"- worst slack: {picoseconds(document['worst_slack_s'])}", ""]
    for corner in document["corners"]:
        factors = corner["factors"]
        lines += [
            f"## Corner `{corner['name']}` "
            f"(wire_r ×{factors['wire_r']:g}, wire_c ×{factors['wire_c']:g}, "
            f"cell ×{factors['cell']:g})", "",
            f"Timing graph: {corner['nodes']} nodes, {corner['edges']} edges. "
            f"Worst slack: {picoseconds(corner['worst_slack_s'])}.", "",
            *table(["endpoint", "arrival", "required", "slack"], [
                (f"`{e['endpoint']}`", picoseconds(e["arrival_s"]),
                 picoseconds(e["required_s"]), picoseconds(e["slack_s"]))
                for e in corner["endpoints"]]), ""]
        if corner["paths"]:
            lines += table(["#", "slack", "endpoint", "path"], [
                (entry["rank"], picoseconds(entry["slack_s"]), f"`{entry['endpoint']}`",
                 " → ".join(f"`{n}`" for n in entry["nodes"]))
                for entry in corner["paths"]])
        else:
            lines.append("No reportable paths (no endpoint is reached "
                         "by any launch point).")
        lines.append("")
    if document["phase_seconds"]:
        lines += ["## Where the time went", "",
                  *phase_table(document["phase_seconds"]), ""]
    return "\n".join(lines)
