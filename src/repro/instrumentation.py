"""Solver instrumentation: cheap counters for the linear-algebra hot path.

The paper's economic argument (Sec. IV, Fig. 19) is an *operation count*:
one LU factorisation per circuit, then one forward/back substitution per
moment.  :class:`SolverStats` makes that count observable — every
:class:`~repro.analysis.mna.MnaSystem` owns one, the
:class:`~repro.core.driver.AweAnalyzer` layers its own counters on top of
the same object, and the :class:`~repro.engine.batch.BatchEngine` merges
the per-circuit objects into a batch-wide view (``stats()`` dicts, and
``python -m repro batch --stats`` on the command line).

The field-by-field counter semantics (what counts as one triangular
solve, how the achieved batching factor is derived, which fields are
seconds) live in ``docs/observability.md`` alongside the trace-span and
run-report documentation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Ordered counter/timer field names; the canonical dict layout.
STAT_FIELDS: tuple[str, ...] = (
    "lu_factorizations",
    "t0_factorizations",
    "triangular_solves",
    "solve_columns",
    "moment_solves",
    "moments_computed",
    "order_escalations",
    "responses",
    "factor_time_s",
    "solve_time_s",
    "wall_time_s",
)

_TIME_FIELDS = frozenset(f for f in STAT_FIELDS if f.endswith("_s"))


class SolverStats:
    """Mutable counter bundle shared along one analysis pipeline.

    All fields start at zero; integer counters stay integers, ``*_s``
    fields accumulate seconds as floats.  The object is deliberately
    permissive — unknown keys in :meth:`merge` are accumulated too, so
    higher layers (the batch engine) can add their own counters without
    subclassing.
    """

    __slots__ = ("_extra",) + STAT_FIELDS

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for field in STAT_FIELDS:
            setattr(self, field, 0.0 if field in _TIME_FIELDS else 0)
        self._extra: dict[str, float] = {}

    @contextmanager
    def timer(self, field: str):
        """Accumulate the wall time of a ``with`` block into ``field``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(field, time.perf_counter() - start)

    def add(self, field: str, amount) -> None:
        """Accumulate ``amount`` into a named (possibly new) counter."""
        if field in STAT_FIELDS:
            setattr(self, field, getattr(self, field) + amount)
        else:
            self._extra[field] = self._extra.get(field, 0) + amount

    def merge(self, other: "SolverStats | dict") -> "SolverStats":
        """Accumulate another stats object (or ``as_dict`` output)."""
        items = other.as_dict() if isinstance(other, SolverStats) else other
        for field, amount in items.items():
            self.add(field, amount)
        return self

    def as_dict(self) -> dict[str, float]:
        """Plain-dict snapshot (stable field order, extras appended)."""
        out: dict[str, float] = {f: getattr(self, f) for f in STAT_FIELDS}
        out.update(sorted(self._extra.items()))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"SolverStats({body})"


def format_stats(stats: dict[str, float], indent: str = "  ") -> str:
    """Render a stats dict as aligned ``name value`` lines (CLI output)."""
    if not stats:
        return f"{indent}(no counters)"
    width = max(len(name) for name in stats)
    lines = []
    for name, value in stats.items():
        if isinstance(value, float) and name.endswith("_s"):
            rendered = f"{value:.6f}"
        elif isinstance(value, float) and value == int(value):
            rendered = str(int(value))
        else:
            rendered = str(value)
        lines.append(f"{indent}{name:<{width}}  {rendered}")
    return "\n".join(lines)
