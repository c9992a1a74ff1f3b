"""What every report document shares: the envelope and the checker.

Run, STA and sweep documents open with the same header (``schema``,
``generator``, ``kind``) and close with the same trace tail
(``phase_seconds``, ``events``, ``traced``; each run-report job closes
with it too).  Each kind describes its fields once, as a spec that
:func:`check` walks, plus the few cross-field rules a per-field spec
cannot say.

A spec is a :class:`Leaf` (a predicate and its message), a ``dict``
(an object that must carry each listed key; :class:`Optional` marks one
that may be absent), a :class:`ListOf` or a :class:`MapOf` (an object
with free keys).  Keys a spec does not list are not checked.
"""

from __future__ import annotations

import reprlib
from typing import Callable, NamedTuple

from repro.trace import iter_events, phase_seconds


def header(schema: str, kind: str) -> dict:
    """The keys every document opens with."""
    from repro import __version__

    return {"schema": schema, "generator": f"repro {__version__}", "kind": kind}


def trace_tail(trace: dict | None, parse_s: float | None = None) -> dict:
    """The keys every document (and every run-report job) closes with.

    ``phase_seconds`` is the self-time of each span of ``trace`` (a
    :meth:`~repro.trace.Tracer.to_record` output, or ``None`` for an
    untraced run), with the root span's own time as ``other`` and the
    front end's ``parse_s`` as ``parse``; ``events`` are the trace's
    events, each tagged with its owning ``span``.
    """
    phases = phase_seconds(trace)
    if trace is not None:
        # The root span's own (exclusive) time is inter-phase overhead.
        root_name = trace.get("name")
        if root_name in phases:
            phases["other"] = phases.pop(root_name)
    if parse_s is not None:
        phases["parse"] = float(parse_s)
    return {
        "phase_seconds": {name: float(s) for name, s in phases.items()},
        "events": [{"span": span_name, **event}
                   for span_name, event in iter_events(trace)],
        "traced": trace is not None,
    }


class Leaf(NamedTuple):
    """A value ``test`` accepts; ``message`` says what it must be."""
    test: Callable[[object], bool]
    message: str


class ListOf(NamedTuple):
    """A list whose items all match ``item``."""
    item: object
    nonempty: bool = False


class MapOf(NamedTuple):
    """An object with free keys whose values all match ``value``."""
    value: object


class Optional(NamedTuple):
    """A key that may be absent; when present it matches ``spec``."""
    spec: object


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


STRING = Leaf(lambda v: isinstance(v, str), "must be a string")
NAME = Leaf(lambda v: isinstance(v, str) and v != "", "must be a non-empty string")
STRING_OR_NULL = Leaf(lambda v: v is None or isinstance(v, str),
                      "must be a string or null")
BOOL = Leaf(lambda v: isinstance(v, bool), "must be a bool")
INT = Leaf(_int, "must be an int")
COUNT = Leaf(lambda v: _int(v) and v >= 0, "must be a non-negative int")
NUMBER = Leaf(_number, "must be a number")
NUMBER_OR_NULL = Leaf(lambda v: v is None or _number(v),
                      "must be a number or null")
SECONDS = Leaf(lambda v: _number(v) and v >= 0.0, "must be a non-negative number")
OBJECT = Leaf(lambda v: isinstance(v, dict), "must be an object")


def one_of(*values) -> Leaf:
    return Leaf(lambda v: isinstance(v, str) and v in values,
                "must be " + " or ".join(map(repr, values)))


def header_spec(schema: str, *kinds: str) -> dict:
    return {"schema": one_of(schema), "generator": STRING, "kind": one_of(*kinds)}


TRACE_TAIL = {
    "phase_seconds": MapOf(SECONDS),
    "events": ListOf({"span": STRING, "name": STRING, "t_s": NUMBER,
                      "data": OBJECT}),
    "traced": BOOL,
}


def _walk(value, spec, path: str, problems: list) -> None:
    if isinstance(spec, Leaf):
        if not spec.test(value):
            problems.append(f"{path}: {spec.message}, got {reprlib.repr(value)}")
    elif isinstance(spec, ListOf):
        if not isinstance(value, list) or (spec.nonempty and not value):
            problems.append(f"{path}: must be a "
                            f"{'non-empty ' if spec.nonempty else ''}list")
            return
        for index, item in enumerate(value):
            _walk(item, spec.item, f"{path}[{index}]", problems)
    elif not isinstance(value, dict):
        problems.append(f"{path}: must be an object")
    elif isinstance(spec, MapOf):
        for name, item in value.items():
            _walk(item, spec.value, f"{path}[{name!r}]", problems)
    else:
        for key, field in spec.items():
            if isinstance(field, Optional):
                if key not in value:
                    continue
                field = field.spec
            elif key not in value:
                problems.append(f"{path}.{key}: missing")
                continue
            _walk(value[key], field, f"{path}.{key}", problems)


def items(container, key: str) -> list:
    """``container[key]`` if that is a list, else ``[]``: cross-field
    rules also run over documents the walk has already faulted."""
    value = container.get(key) if isinstance(container, dict) else None
    return value if isinstance(value, list) else []


def check(document, spec: dict, rules, what: str) -> dict:
    """Walk ``document`` against ``spec``, then run ``rules(document,
    need)``, where ``need(condition, path, message)`` records a problem
    when ``condition`` is false.  Raises :class:`ValueError` listing
    every problem found; returns the document unchanged when valid."""
    problems: list[str] = []
    _walk(document, spec, "$", problems)
    if isinstance(document, dict):
        def need(condition, path, message):
            if not condition:
                problems.append(f"{path}: {message}")

        rules(document, need)
    if problems:
        raise ValueError(f"invalid {what} report:\n  " + "\n  ".join(problems))
    return document
