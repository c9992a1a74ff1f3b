"""Hierarchical trace spans and structured events.

A :class:`Tracer` records *where the time of one analysis went and why
the order escalated*: nested :class:`TraceSpan`\\ s (``parse`` →
``mna_assembly`` → ``lu`` → ``moment_recursion`` → ``pade_escalation`` →
``pade`` / ``residues`` → ``waveform``) carry wall time and
:class:`~repro.instrumentation.SolverStats` counter deltas, and
:class:`TraceEvent`\\ s mark the discrete decisions (order escalations
with their error estimates, partial-Padé stabilisations, sparse/dense
backend selection, trapped-charge resolutions).

The span hierarchy and the event taxonomy are documented in
``docs/observability.md``; ``repro.report`` renders the records.

Zero overhead when off
----------------------
Every traced object (:class:`~repro.analysis.mna.MnaSystem`,
:class:`~repro.core.driver.AweAnalyzer`) defaults to the shared
:data:`NULL_TRACER` singleton, whose ``span`` returns one preallocated
do-nothing context manager and whose ``event`` is a bare ``pass`` — the
hot paths pay a single attribute load and call per site, nothing is
allocated, and no time is read.  ``benchmarks/test_trace_overhead.py``
bounds the total at < 2 % of the 50-job batch benchmark.

Serialisation
-------------
:meth:`Tracer.to_record` produces a tree of plain dicts / lists / numbers
/ strings — JSON-ready, which is how per-job traces ride on
:class:`~repro.engine.batch.BatchResult` into reports and HTTP bodies.
:meth:`TraceSpan.from_record` rebuilds the object form when wanted;
:func:`phase_seconds` and :func:`iter_events` consume records directly.
"""

from __future__ import annotations

import dataclasses
import time

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "TraceSpan",
    "Tracer",
    "iter_events",
    "phase_seconds",
]


def _plain(value):
    """Coerce a value into the JSON-safe subset (numpy scalars included)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    for caster in (int, float):
        try:
            if isinstance(value, caster) or hasattr(value, "item"):
                return _plain(value.item())
        except (AttributeError, ValueError):
            break
    return str(value)


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One structured event: a name, a time offset, and a data payload.

    ``t_s`` is seconds since the owning trace started; ``data`` is a flat
    JSON-safe mapping whose keys depend on the event name (the taxonomy
    lives in ``docs/observability.md``).
    """

    name: str
    t_s: float
    data: dict

    def to_record(self) -> dict:
        return {"name": self.name, "t_s": self.t_s, "data": _plain(self.data)}

    @classmethod
    def from_record(cls, record: dict) -> "TraceEvent":
        return cls(record["name"], record["t_s"], dict(record.get("data", {})))


class TraceSpan:
    """One timed region of the pipeline, with children, counters, events.

    ``t_start_s``/``duration_s`` are relative to the trace start;
    ``counters`` holds the nonzero :class:`SolverStats` deltas accumulated
    while the span was open (when the span was given a stats object);
    ``meta`` carries identifying keys (node, subproblem label, ...).
    """

    __slots__ = ("name", "meta", "t_start_s", "duration_s",
                 "counters", "events", "children")

    def __init__(self, name: str, t_start_s: float = 0.0, meta: dict | None = None):
        self.name = name
        self.meta = meta or {}
        self.t_start_s = t_start_s
        self.duration_s = 0.0
        self.counters: dict = {}
        self.events: list[TraceEvent] = []
        self.children: list[TraceSpan] = []

    @property
    def self_seconds(self) -> float:
        """Duration minus the children's durations (exclusive time)."""
        return max(0.0, self.duration_s - sum(c.duration_s for c in self.children))

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_record(self) -> dict:
        record: dict = {
            "name": self.name,
            "t_start_s": self.t_start_s,
            "duration_s": self.duration_s,
        }
        if self.meta:
            record["meta"] = _plain(self.meta)
        if self.counters:
            record["counters"] = _plain(self.counters)
        if self.events:
            record["events"] = [event.to_record() for event in self.events]
        if self.children:
            record["children"] = [child.to_record() for child in self.children]
        return record

    @classmethod
    def from_record(cls, record: dict) -> "TraceSpan":
        span = cls(record["name"], record.get("t_start_s", 0.0),
                   dict(record.get("meta", {})))
        span.duration_s = record.get("duration_s", 0.0)
        span.counters = dict(record.get("counters", {}))
        span.events = [TraceEvent.from_record(e) for e in record.get("events", [])]
        span.children = [cls.from_record(c) for c in record.get("children", [])]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceSpan({self.name!r}, {self.duration_s:.6f}s, "
                f"{len(self.children)} child(ren), {len(self.events)} event(s))")


class _SpanContext:
    """Context manager opening/closing one span on its tracer's stack."""

    __slots__ = ("_tracer", "_span", "_stats", "_before", "_t0")

    def __init__(self, tracer: "Tracer", span: TraceSpan, stats):
        self._tracer = tracer
        self._span = span
        self._stats = stats
        self._before = None
        self._t0 = 0.0

    def __enter__(self) -> TraceSpan:
        tracer = self._tracer
        self._t0 = time.perf_counter()
        self._span.t_start_s = self._t0 - tracer._t0
        if self._stats is not None:
            self._before = self._stats.as_dict()
        tracer._stack[-1].children.append(self._span)
        tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        span.duration_s = time.perf_counter() - self._t0
        if self._before is not None:
            after = self._stats.as_dict()
            span.counters = {
                key: value - self._before.get(key, 0)
                for key, value in after.items()
                if value != self._before.get(key, 0)
            }
        if exc_type is not None:
            span.meta = dict(span.meta, error=exc_type.__name__)
        stack = self._tracer._stack
        if len(stack) > 1 and stack[-1] is span:
            stack.pop()
        return False


class Tracer:
    """A recording tracer: one root span plus a stack of open spans.

    Spans opened while another span's ``with`` block is active nest under
    it; events attach to the innermost open span.  The object is cheap to
    create (one clock read), single-threaded by design, and rendered via
    :meth:`to_record`.
    """

    enabled = True

    def __init__(self, name: str = "run", **meta):
        self._t0 = time.perf_counter()
        self.root = TraceSpan(name, 0.0, dict(meta))
        self._stack: list[TraceSpan] = [self.root]

    def span(self, name: str, stats=None, **meta):
        """Open a child span of the innermost active span.

        ``stats`` (a :class:`~repro.instrumentation.SolverStats`) attaches
        the counter deltas accumulated while the span is open.  Returns a
        context manager yielding the :class:`TraceSpan`.
        """
        return _SpanContext(self, TraceSpan(name, meta=meta), stats)

    def event(self, name: str, **data) -> None:
        """Record a structured event on the innermost open span."""
        self._stack[-1].events.append(
            TraceEvent(name, time.perf_counter() - self._t0, data)
        )

    def to_record(self) -> dict:
        """Close the root (duration = now − start) and serialize the tree."""
        self.root.duration_s = time.perf_counter() - self._t0
        return self.root.to_record()


class _NullSpanContext:
    """The do-nothing span context handed out by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The no-op tracer: every traced object's default.

    ``span`` hands back one shared preallocated context manager and
    ``event`` does nothing — no allocation, no clock read.  Call sites can
    also branch on :attr:`enabled` to skip building expensive payloads.
    """

    enabled = False
    __slots__ = ()

    def span(self, name: str, stats=None, **meta):
        return _NULL_SPAN_CONTEXT

    def event(self, name: str, **data) -> None:
        return None

    def to_record(self) -> None:
        return None


#: The shared no-op tracer instance (use this, don't instantiate your own).
NULL_TRACER = NullTracer()


def phase_seconds(record: dict | None, exclusive: bool = True) -> dict:
    """Aggregate a trace record's wall time by span name.

    With ``exclusive=True`` (the default) each span contributes its *self*
    time — duration minus its children's durations — so the totals add up
    to the root duration instead of double-counting nested phases.
    Returns ``{}`` for ``None`` (an untraced run).
    """
    totals: dict = {}
    if record is None:
        return totals

    def visit(span: dict) -> None:
        children = span.get("children", [])
        seconds = span.get("duration_s", 0.0)
        if exclusive:
            seconds = max(0.0, seconds - sum(c.get("duration_s", 0.0) for c in children))
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
        for child in children:
            visit(child)

    visit(record)
    return totals


def iter_events(record: dict | None):
    """Yield ``(span_name, event_record)`` for every event in a trace
    record, depth first.  Tolerates ``None`` (an untraced run)."""
    if record is None:
        return

    def visit(span: dict):
        for event in span.get("events", []):
            yield span["name"], event
        for child in span.get("children", []):
            yield from visit(child)

    yield from visit(record)
