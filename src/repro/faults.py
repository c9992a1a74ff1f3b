"""Deterministic fault injection: seeded probes for chaos-style testing.

The serving stack (daemon, cache, batch engine, client) claims to
*degrade, retry, recover, and never silently drop a job* — the same
graceful-degradation standard the paper applies to the approximation
itself (order escalation with an error bound, Sec. 3.4).  That claim is
only testable if the faults are reproducible, so this module provides a
**seeded, counted, spec-driven** fault plan instead of ad-hoc
monkeypatching:

* a :class:`FaultProbe` is one named failure mode with a firing
  probability, an optional numeric argument (a delay, a Retry-After
  hint), and an optional cap on how many times it may fire;
* a :class:`FaultPlan` is a named set of probes parsed from a compact
  spec string (``"shard_crash=1:x1,http_429=0.1:0.05"``), seeded so the
  same spec + seed yields the same firing sequence;
* production code consults :func:`active`, which returns the shared
  :data:`NO_FAULTS` no-op unless a plan was installed explicitly
  (:func:`install`, e.g. from ``python -m repro serve --faults``) or via
  the ``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED`` environment variables —
  with no plan configured the hooks cost one attribute check and nothing
  else, so production code paths stay untouched.

Probe names the stack hooks today (see the call sites):

===================  ====================================================
``slow_job``         a batch job sleeps ``arg`` seconds (default 0.25)
                     before running
``cache_io_store``   :meth:`~repro.service.cache.ResultCache.put`'s disk
                     write-through raises :class:`OSError`
``cache_io_load``    the cache's disk read raises :class:`OSError`
``http_429``         the server refuses the request with an injected 429
                     (``Retry-After: arg``, default 0.05 s)
``http_503``         the server refuses with an injected 503
``http_timeout``     the server sleeps ``arg`` seconds (default 1.0)
                     before handling — long enough to trip a client
                     socket timeout when ``arg`` exceeds it
``shard_crash``      the gateway hard-kills the target shard process
                     (``SIGKILL``) just before forwarding a request to
                     it, exercising the respawn-and-retry path
===================  ====================================================

Spec grammar: comma-separated ``name=rate`` terms, each optionally
suffixed with ``:<float>`` (the probe argument) and/or ``:xN`` (fire at
most N times), in either order.  ``rate`` is a probability in [0, 1];
``1`` fires on every check (until an ``xN`` cap exhausts it).
"""

from __future__ import annotations

import dataclasses
import os
import random
import threading
import time

__all__ = [
    "NO_FAULTS",
    "FaultPlan",
    "FaultProbe",
    "NoFaults",
    "active",
    "install",
    "reset",
]

#: Environment variables the lazy :func:`active` lookup reads.
ENV_SPEC = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"

KNOWN_PROBES = frozenset({
    "slow_job",
    "cache_io_store",
    "cache_io_load",
    "http_429",
    "http_503",
    "http_timeout",
    "shard_crash",
})


@dataclasses.dataclass
class FaultProbe:
    """One named failure mode: probability, optional arg, optional cap.

    ``checks`` / ``fires`` count every :meth:`fire` consultation and
    every time it returned True — the plan's :meth:`FaultPlan.stats`
    snapshot exposes both so a test (or ``/metrics``) can verify that an
    injection campaign actually injected.
    """

    name: str
    rate: float
    arg: float | None = None
    times: int | None = None
    seed: int = 0
    checks: int = 0
    fires: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"fault probe {self.name!r}: rate must be in [0, 1], "
                f"got {self.rate!r}")
        if self.times is not None and self.times < 0:
            raise ValueError(
                f"fault probe {self.name!r}: xN cap must be >= 0, "
                f"got {self.times!r}")
        # One independent stream per (seed, name): adding a probe to a
        # spec never perturbs the draws of the others.
        self._rng = random.Random(f"{self.seed}:{self.name}")

    def fire(self) -> bool:
        """One draw (not thread-safe; the plan serialises calls)."""
        self.checks += 1
        if self.times is not None and self.fires >= self.times:
            return False
        if self.rate >= 1.0:
            fired = True
        elif self.rate <= 0.0:
            fired = False
        else:
            fired = self._rng.random() < self.rate
        if fired:
            self.fires += 1
        return fired


class FaultPlan:
    """A named set of seeded probes; the object production hooks consult.

    Thread-safe: the daemon's handler threads, its worker threads, and
    the batch engine's parent-side draws all share one plan.
    """

    enabled = True

    def __init__(self, probes=(), seed: int = 0):
        self.seed = seed
        self._probes: dict[str, FaultProbe] = {}
        self._lock = threading.Lock()
        for probe in probes:
            if probe.name in self._probes:
                raise ValueError(f"duplicate fault probe {probe.name!r}")
            self._probes[probe.name] = probe

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the compact spec grammar (see module doc).

        Raises :class:`ValueError` naming the offending term on any
        malformed input or unknown probe name.
        """
        probes = []
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            name, sep, rest = term.partition("=")
            name = name.strip()
            if not sep or not name:
                raise ValueError(f"fault spec term {term!r}: expected name=rate")
            if name not in KNOWN_PROBES:
                raise ValueError(
                    f"unknown fault probe {name!r}; known: "
                    f"{', '.join(sorted(KNOWN_PROBES))}")
            parts = [p.strip() for p in rest.split(":")]
            try:
                rate = float(parts[0])
            except ValueError:
                raise ValueError(
                    f"fault spec term {term!r}: rate {parts[0]!r} is not "
                    "a number") from None
            arg = None
            times = None
            for extra in parts[1:]:
                if extra.startswith("x"):
                    try:
                        times = int(extra[1:])
                    except ValueError:
                        raise ValueError(
                            f"fault spec term {term!r}: bad fire cap "
                            f"{extra!r}") from None
                else:
                    try:
                        arg = float(extra)
                    except ValueError:
                        raise ValueError(
                            f"fault spec term {term!r}: bad argument "
                            f"{extra!r}") from None
            probes.append(FaultProbe(name, rate, arg=arg, times=times, seed=seed))
        return cls(probes, seed=seed)

    # -- the hook API --------------------------------------------------

    def fire(self, name: str) -> bool:
        """True when the named probe fires now (False for absent probes)."""
        with self._lock:
            probe = self._probes.get(name)
            return probe.fire() if probe is not None else False

    def arg(self, name: str, default: float) -> float:
        """The probe's argument (the spec's ``:<float>``), or ``default``."""
        with self._lock:
            probe = self._probes.get(name)
            if probe is None or probe.arg is None:
                return default
            return probe.arg

    def sleep(self, name: str, default_s: float) -> bool:
        """Sleep the probe's argument when it fires; returns whether it did."""
        if not self.fire(name):
            return False
        time.sleep(self.arg(name, default_s))
        return True

    # -- introspection -------------------------------------------------

    def stats(self) -> dict:
        """Per-probe check/fire counters (feeds ``/metrics``)."""
        with self._lock:
            return {
                name: {"rate": probe.rate, "checks": probe.checks,
                       "fires": probe.fires}
                for name, probe in sorted(self._probes.items())
            }

    def spec(self) -> str:
        """A parseable spec round trip (for handing to subprocesses)."""
        terms = []
        with self._lock:
            for name, probe in self._probes.items():
                term = f"{name}={probe.rate:g}"
                if probe.arg is not None:
                    term += f":{probe.arg:g}"
                if probe.times is not None:
                    term += f":x{probe.times}"
                terms.append(term)
        return ",".join(terms)

    def __contains__(self, name: str) -> bool:
        return name in self._probes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec()!r}, seed={self.seed})"


class NoFaults:
    """The production default: every hook is an immediate no.

    ``enabled`` is False so hot paths can skip building probe arguments
    entirely; ``fire``/``sleep`` always answer False without locking.
    """

    enabled = False
    __slots__ = ()

    def fire(self, name: str) -> bool:
        return False

    def arg(self, name: str, default: float) -> float:
        return default

    def sleep(self, name: str, default_s: float) -> bool:
        return False

    def stats(self) -> dict:
        return {}

    def spec(self) -> str:
        return ""

    def __contains__(self, name: str) -> bool:
        return False


#: The shared no-op plan (use this, don't instantiate your own).
NO_FAULTS = NoFaults()

_active: FaultPlan | NoFaults | None = None
_active_lock = threading.Lock()


def active() -> "FaultPlan | NoFaults":
    """The process-wide fault plan.

    Resolved once, lazily: an installed plan wins; otherwise the
    ``REPRO_FAULTS`` environment variable (seeded by
    ``REPRO_FAULTS_SEED``) is parsed; otherwise :data:`NO_FAULTS`.
    """
    global _active
    plan = _active
    if plan is not None:
        return plan
    with _active_lock:
        if _active is None:
            spec = os.environ.get(ENV_SPEC, "")
            if spec:
                seed = int(os.environ.get(ENV_SEED, "0") or 0)
                _active = FaultPlan.parse(spec, seed=seed)
            else:
                _active = NO_FAULTS
        return _active


def install(plan: "FaultPlan | NoFaults") -> "FaultPlan | NoFaults":
    """Make ``plan`` the process-wide active plan (returns it)."""
    global _active
    with _active_lock:
        _active = plan
    return plan


def reset() -> None:
    """Forget the active plan; the next :func:`active` re-resolves."""
    global _active
    with _active_lock:
        _active = None
