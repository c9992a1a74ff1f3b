"""Run reports: traced analyses rendered to JSON documents and Markdown.

The pipeline is ``BatchEngine.run(jobs, trace=True)`` →
:func:`build_report` → :func:`validate_report` → ``json.dump`` and/or
:func:`render_markdown`; ``python -m repro report`` drives the same
functions from the command line.  The document schema is described in
``docs/observability.md``.
"""

from repro.report.build import (
    REPORT_SCHEMA,
    build_report,
    job_record,
    response_record,
    validate_report,
)
from repro.report.render import PHASE_ORDER, render_markdown
from repro.report.sta import (
    STA_REPORT_SCHEMA,
    build_sta_report,
    render_sta_markdown,
    validate_sta_report,
)
from repro.report.sweep import (
    SWEEP_REPORT_SCHEMA,
    build_sweep_report,
    render_sweep_markdown,
    validate_sweep_report,
)

__all__ = [
    "PHASE_ORDER",
    "REPORT_SCHEMA",
    "STA_REPORT_SCHEMA",
    "SWEEP_REPORT_SCHEMA",
    "build_report",
    "build_sta_report",
    "build_sweep_report",
    "job_record",
    "render_markdown",
    "render_sta_markdown",
    "render_sweep_markdown",
    "response_record",
    "validate_report",
    "validate_sta_report",
    "validate_sweep_report",
]
