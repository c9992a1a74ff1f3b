"""The analysis daemon, on the server core it shares with the gateway.

Architecture (one process, threads only, stdlib only)::

    HTTP handler threads            worker threads (persistent)
    ─────────────────────           ───────────────────────────
    parse request JSON              queue.get()
    parse deck, hash request  ──►   ENDPOINTS[kind].run(...)
    cache.get(key)? ─ hit ──► 200   validate → bytes → cache if clean
    bounded queue.put_nowait        future.set_result ──► handler replies
      └ Full ──► 429 Retry-After

The shared core: :data:`ENDPOINTS`, one row per request kind (fields,
parser, key function, worker function, clean-result rule) read by the
router, :meth:`ServerCore.submit`, the single worker path, the
gateway's canonicalizer and :func:`answer` (the in-process entry the
CLI's local runs take), so a new endpoint is one row;
:class:`ServerCore`, the request skeleton with its counters, drain,
fault probes, ``/healthz`` and ``/metrics``; :class:`Health`, the
degraded/canary policy the gateway keeps per shard; and
:class:`HttpFront`, the one stdlib HTTP front and foreground runner.
:mod:`repro.gateway.server` builds on all four.

Each worker thread owns one persistent, in-process
:class:`~repro.engine.batch.BatchEngine`, so engine/solver counters
accumulate into a service-lifetime view that ``GET /metrics`` reports
alongside the cache and queue counters.  Every request is traced, so a
client receives the same validated document (``repro.run-report/1``,
``repro.sta-report/1``, ``repro.sweep-report/1``) the in-process API
would have produced, cached bit-for-bit when clean.

Admission control is a bounded queue: when it is full the request is
refused *immediately* with HTTP 429 and a ``Retry-After`` estimated from
the recent per-job wall time — the backlog can never grow without bound.
``SIGTERM`` triggers a graceful drain: requests already accepted run to
completion and their reports are returned; new work is refused with 503
(cache hits are still served); the process exits once the queue is empty.
One daemon is one process; the gateway's shards are the unit of process
parallelism.

Fault injection (``repro.faults``) hooks the HTTP boundary here: the
``http_429`` / ``http_503`` / ``http_timeout`` probes fire at the top of
``submit`` (marked with an ``X-Repro-Fault`` header) so client
retry/backoff behaviour is testable against a live daemon or gateway.
"""

from __future__ import annotations

import json
import math
import signal
import sys
import threading
import time
import queue as queue_module
from concurrent import futures
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Callable, NamedTuple

from repro import faults
from repro.circuit.parser import parse_netlist
from repro.engine import AweJob, BatchEngine
from repro.errors import ReproError
from repro.instrumentation import SolverStats
from repro.report import (
    build_report,
    build_sta_report,
    build_sweep_report,
    validate_report,
    validate_sta_report,
    validate_sweep_report,
)
from repro.service.cache import ResultCache
from repro.service.canon import request_key, sta_request_key, sweep_request_key
from repro.service.client import Outcome
from repro.sweep import SweepEngine, SweepPlan, check_sweepable
from repro.sta import (
    INTERCONNECT_MODES,
    NOMINAL,
    CellLibrary,
    Corner,
    Design,
    default_library,
    run_sta,
)
from repro.trace import Tracer

#: Largest accepted request body; a deck bigger than this is almost
#: certainly a mistake and would stall a worker for minutes.
MAX_BODY_BYTES = 32 * 1024 * 1024

_STOP = object()  # worker-shutdown sentinel


def error_body(status: int, message: str, error_type: str = None) -> bytes:
    """The JSON error document every refusal carries."""
    payload = {"error": message}
    if error_type:
        payload["error_type"] = error_type
    payload["status"] = status
    return (json.dumps(payload) + "\n").encode("utf-8")


def _decode(raw: bytes, fields: frozenset) -> dict:
    """Decode a request body into a JSON object with only ``fields``."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(payload) - fields
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(sorted(unknown))}")
    return payload


def _number(payload: dict, name: str, default=None, integer=False,
            minimum=None):
    value = payload.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"'{name}' must be a number")
    if integer:
        if value != int(value):
            raise ValueError(f"'{name}' must be an integer")
        value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"'{name}' must be >= {minimum}")
    return value


def _deck_text(payload: dict) -> str:
    deck = payload.get("deck")
    if not isinstance(deck, str) or not deck.strip():
        raise ValueError("'deck' must be a non-empty string of netlist text")
    return deck


def _parse_analyze(payload: dict) -> dict:
    """Validate an ``/analyze`` request, then parse its deck (an absent
    ``reduce`` field means no RC-chain pre-reduction)."""
    text = _deck_text(payload)
    nodes = payload.get("nodes")
    if isinstance(nodes, str):
        nodes = [nodes]
    if (not isinstance(nodes, list) or not nodes
            or not all(isinstance(node, str) and node for node in nodes)):
        raise ValueError("'nodes' must be a non-empty list of node names")
    reduce = payload.get("reduce")
    if reduce is not None and not isinstance(reduce, bool):
        raise ValueError("'reduce' must be a boolean")
    params = {
        "nodes": tuple(nodes),
        "order": _number(payload, "order", integer=True, minimum=1),
        "error_target": _number(payload, "error_target", default=0.01,
                                minimum=0.0),
        "max_order": _number(payload, "max_order", default=8, integer=True,
                             minimum=1),
        "threshold": _number(payload, "threshold"),
        "timeout": _number(payload, "timeout", minimum=0.0),
        "reduce": bool(reduce),
    }
    params["deck"] = deck = parse_netlist(text)
    params["label"] = deck.title or "deck"
    return params


def _parse_sta(payload: dict) -> dict:
    """Validate a ``/sta`` request (cheap, structural only).

    Builds the :class:`~repro.sta.Design`, corners, and optional library
    and runs the structural validation (connectivity, single drivers,
    acyclicity) so every malformed graph is refused with 400 *before* a
    worker is committed; the expensive AWE freeze happens in the worker.
    """
    if "design" not in payload:
        raise ValueError("'design' is required")
    design = Design.from_dict(payload["design"])

    k = payload.get("k", 5)
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError("'k' must be a non-negative integer")

    interconnect = payload.get("interconnect", "awe")
    if interconnect not in INTERCONNECT_MODES:
        raise ValueError(
            f"'interconnect' must be one of {', '.join(INTERCONNECT_MODES)}")

    corners_payload = payload.get("corners")
    if corners_payload is None:
        corners = (NOMINAL,)
    else:
        if not isinstance(corners_payload, list) or not corners_payload:
            raise ValueError("'corners' must be a non-empty list")
        corners = tuple(Corner.from_dict(c) for c in corners_payload)
        names = [c.name for c in corners]
        if len(set(names)) != len(names):
            raise ValueError(f"corner names must be unique, got {names}")

    library_payload = payload.get("library")
    library = (None if library_payload is None
               else CellLibrary.from_dict(library_payload))
    timeout = _number(payload, "timeout", minimum=0.0)
    design.validate(library if library is not None else default_library())
    return {"design": design, "k": k, "corners": corners,
            "interconnect": interconnect, "library": library,
            "timeout": timeout, "label": design.name}


def _parse_sweep(payload: dict) -> dict:
    """Validate a ``/sweep`` request, then parse its deck.

    The plan is materialised as a :class:`~repro.sweep.SweepPlan` (its
    own validation rejects bad modes, empty point lists, and malformed
    points), every point must name an element of the deck, and the deck
    must pass :func:`~repro.sweep.check_sweepable` (what the engine
    refuses before it factors), so each structural problem is refused
    with 400 before a worker is committed.
    """
    text = _deck_text(payload)
    node = payload.get("node")
    if not isinstance(node, str) or not node:
        raise ValueError("'node' must be a non-empty node name")
    points = payload.get("points")
    if (not isinstance(points, list) or not points
            or not all(isinstance(point, dict) for point in points)):
        raise ValueError("'points' must be a non-empty list of objects")
    timeout = _number(payload, "timeout", minimum=0.0)
    plan_payload = {
        "node": node,
        "points": points,
        "mode": payload.get("mode", "auto"),
        "first_order_threshold": payload.get("first_order_threshold", 0.05),
        "error_bound": payload.get("error_bound", 1e-3),
    }
    try:
        plan = SweepPlan.from_payload(plan_payload)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sweep plan: {exc}") from exc
    deck = parse_netlist(text)
    for point in plan.points:
        try:
            deck.circuit[point.element]
        except KeyError:
            raise ValueError(f"sweep point names unknown element "
                             f"{point.element!r}") from None
    check_sweepable(deck.circuit)
    return {"deck": deck, "plan": plan, "timeout": timeout,
            "label": deck.title or "deck"}


def _analyze_key(params: dict) -> str:
    deck = params["deck"]
    return request_key(
        deck.circuit, deck.stimuli, params["nodes"], order=params["order"],
        error_target=params["error_target"], max_order=params["max_order"],
        threshold=params["threshold"], reduce=params["reduce"])


def _sta_key(params: dict) -> str:
    return sta_request_key(params["design"], params["k"], params["corners"],
                           params["interconnect"], library=params["library"])


def _sweep_key(params: dict) -> str:
    deck = params["deck"]
    return sweep_request_key(deck.circuit, deck.stimuli, params["plan"])


def _run_analyze(params: dict, engine: BatchEngine, remaining, parse_s):
    """Run one analysis on the worker's engine."""
    deck = params["deck"]
    job = AweJob(deck.circuit, params["nodes"], stimuli=deck.stimuli,
                 order=params["order"], error_target=params["error_target"],
                 max_order=params["max_order"], label=params["label"],
                 reduce=params["reduce"])
    stats_before = engine.stats()
    results = engine.run([job], trace=True, timeout=remaining)
    stats_delta = {name: value - stats_before.get(name, 0)
                   for name, value in engine.stats().items()}
    return validate_report(build_report(
        results, engine_stats=stats_delta,
        parse_seconds={params["label"]: parse_s},
        threshold=params["threshold"]))


def _run_sta(params: dict, engine: BatchEngine, remaining, parse_s):
    """Run the STA engine."""
    tracer = Tracer(name="sta", design=params["design"].name)
    run = run_sta(params["design"], library=params["library"], k=params["k"],
                  corners=params["corners"],
                  interconnect=params["interconnect"], tracer=tracer)
    return validate_sta_report(build_sta_report(
        run, trace=tracer.to_record(), parse_s=parse_s))


def _run_sweep(params: dict, engine: BatchEngine, remaining, parse_s):
    """Build the incremental sweep engine once and evaluate every plan
    point."""
    plan = params["plan"]
    tracer = Tracer(name="sweep", deck=params["label"],
                    points=len(plan.points))
    deck = params["deck"]
    result = SweepEngine(deck.circuit, deck.stimuli,
                         tracer=tracer).evaluate(plan)
    return validate_sweep_report(build_sweep_report(
        result, trace=tracer.to_record(), parse_s=parse_s))


def _jobs_clean(document: dict) -> bool:
    # A report whose jobs partly failed is environmental (a timeout
    # under load) and must stay cheap to retry: never cached.
    return document["totals"]["jobs_failed"] == 0


class Endpoint(NamedTuple):
    """One request kind, served at ``POST /<kind>`` by every surface."""

    #: The request fields accepted; any other field is a 400.
    fields: frozenset
    #: ``payload -> params``; raises ``ValueError`` or
    #: :class:`~repro.errors.ReproError` for a bad request.
    parse: Callable
    #: ``params -> key``: the content address naming the cache entry
    #: and choosing the gateway shard.
    key: Callable
    #: ``(params, engine, remaining_s, parse_s) -> document``.
    run: Callable
    #: ``document -> bool``: a clean result is cached and counted ok;
    #: ``None`` when every result is clean (no document need be read).
    clean: Callable | None


ENDPOINTS = {
    "analyze": Endpoint(
        frozenset({"deck", "nodes", "order", "error_target", "max_order",
                   "threshold", "timeout", "reduce"}),
        _parse_analyze, _analyze_key, _run_analyze, _jobs_clean),
    "sta": Endpoint(
        frozenset({"design", "k", "corners", "interconnect", "library",
                   "timeout"}),
        _parse_sta, _sta_key, _run_sta, None),
    "sweep": Endpoint(
        frozenset({"deck", "node", "points", "mode", "first_order_threshold",
                   "error_bound", "timeout"}),
        _parse_sweep, _sweep_key, _run_sweep, None),
}


def canonicalize(kind: str, raw: bytes):
    """Parse a ``kind`` request body: ``(key, params)``.

    The daemon, the gateway and :func:`answer` all call this, so routing
    can never disagree with the shard caches about what a request means.
    """
    endpoint = ENDPOINTS[kind]
    params = endpoint.parse(_decode(raw, endpoint.fields))
    return endpoint.key(params), params


def _serialize(document: dict) -> bytes:
    """The response body of a computed document."""
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


def answer(kind: str, payload: dict) -> Outcome:
    """Answer one ``kind`` request in process, as a daemon worker would.

    ``payload`` is the JSON object a client would POST to ``/<kind>``
    (:meth:`~repro.service.client.AnalysisClient.call`).  Its bytes go
    through :func:`canonicalize` and ``ENDPOINTS[kind].run`` on a fresh
    engine, so the outcome's body is the daemon's for the same payload
    minus timings.  A request the daemon refuses with 400 raises the
    same ``ValueError`` or :class:`~repro.errors.ReproError` here.  The
    outcome is never ``cached``; ``server_elapsed_s`` is its wall time.
    """
    started = time.monotonic()
    key, params = canonicalize(kind, json.dumps(payload).encode("utf-8"))
    document = ENDPOINTS[kind].run(params, BatchEngine(), params["timeout"],
                                   time.monotonic() - started)
    return Outcome(document, _serialize(document), False, key,
                   time.monotonic() - started)


class Health:
    """A consecutive-failure threshold with one canary.

    ``threshold`` consecutive failures mark the subject (one gateway
    shard) degraded.  While degraded,
    :meth:`admit` lets one request through at a time as the canary and
    refuses the rest; the first success clears the state.  Requests
    admitted before the degradation still settle, but only the canary's
    own settlement lets the next canary in.
    """

    def __init__(self, threshold: int):
        if threshold < 1:
            raise ValueError(
                f"degraded_threshold must be >= 1, got {threshold!r}")
        self.threshold = threshold
        self.degraded = False
        self.consecutive = 0
        self.successes = 0
        self.failures = 0
        self.entries = 0
        self._probing = False
        self._lock = threading.Lock()

    def admit(self) -> bool | None:
        """``None`` when the request must be shed, else whether it is
        the canary (hand that back to :meth:`record`)."""
        with self._lock:
            if not self.degraded:
                return False
            if self._probing:
                return None
            self._probing = True
            return True

    def record(self, failed: bool | None, canary: bool = False) -> str | None:
        """Settle one admitted request (``failed=None``: no verdict).
        Returns ``"degraded"`` or ``"recovered"`` when the state flips."""
        with self._lock:
            if canary:
                self._probing = False
            if failed is None:
                return None
            if not failed:
                self.successes += 1
                self.consecutive = 0
                recovered, self.degraded = self.degraded, False
                return "recovered" if recovered else None
            self.failures += 1
            self.consecutive += 1
            if self.degraded or self.consecutive < self.threshold:
                return None
            self.degraded = True
            self.entries += 1
            return "degraded"


class ServerCore:
    """What the daemon and the gateway share: counters, drain, the fault
    probes, ``/healthz`` and ``/metrics``, and :meth:`submit`.

    A subclass supplies ``_dispatch`` (how a cache miss gets computed),
    ``_health_fields`` and ``_metrics_fields``, and may override
    ``_canonicalize`` and ``_headers``.
    """

    #: Names the server in its refusals.
    name = "service"

    def __init__(self, cache: ResultCache, timeout: float | None,
                 counters=()):
        self.cache = cache
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        self._draining = threading.Event()
        self._started_at = time.monotonic()
        self._counters = dict.fromkeys(
            ("requests_total", "requests_ok", "requests_failed",
             "bad_requests", "rejected_draining", "request_timeouts",
             "faults_injected", *counters), 0)

    # -- lifecycle -----------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting work; already-accepted work runs to completion
        (cache hits are still served)."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until every accepted request has completed (after
        :meth:`begin_drain`).  Returns False on timeout."""
        with self._idle:
            return self._idle.wait_for(lambda: self._in_flight == 0, timeout)

    # -- the request path ----------------------------------------------

    def submit(self, raw_body: bytes, kind: str = "analyze"):
        """Handle one request body of ``kind`` (a key of
        :data:`ENDPOINTS`) end to end.

        Returns ``(status, body_bytes, extra_headers)`` — the HTTP layer
        only frames it.  Cache hits are served directly from the calling
        thread; only misses are dispatched.
        """
        started = time.monotonic()
        self._count("requests_total")
        injected = self._inject_http_fault()
        if injected is not None:
            return injected
        try:
            key, params = self._canonicalize(raw_body, kind)
        except (ValueError, ReproError) as exc:
            self._count("bad_requests")
            return 400, error_body(400, str(exc), type(exc).__name__), {}
        cached = self.cache.get(key)
        if cached is not None:
            self._count("requests_ok")
            return 200, cached, self._headers(key, "hit", started)
        budget = params["timeout"]
        if budget is None:
            budget = self.timeout
        return self._dispatch(kind, raw_body, key, params, started, budget)

    def _canonicalize(self, raw_body: bytes, kind: str):
        return canonicalize(kind, raw_body)

    def _wait(self, future, key: str, started: float, budget, **tags):
        """Wait for a dispatched request within its budget and count its
        outcome.  The future resolves to ``(status, body, headers,
        clean)``."""
        remaining = (None if budget is None
                     else max(budget - (time.monotonic() - started), 0.0))
        try:
            status, body, extra, clean = future.result(remaining)
        except futures.TimeoutError:
            # A daemon job still queued is skipped; a running one (and
            # every gateway flight, shared with other waiters) finishes.
            future.cancel()
            self._count("request_timeouts")
            return 504, error_body(
                504, f"request exceeded its {budget:g} s budget"), {}
        self._count("requests_ok" if clean else
                    "request_timeouts" if status == 504 else
                    "requests_failed")
        headers = self._headers(key, "miss", started, **tags)
        headers.update(extra)
        return status, body, headers

    def _headers(self, key: str, cache_state: str, started: float) -> dict:
        return {
            "X-Repro-Cache": cache_state,
            "X-Repro-Key": key,
            "X-Repro-Elapsed-S": f"{time.monotonic() - started:.6f}",
        }

    def _count(self, name: str) -> None:
        with self._lock:
            self._counters[name] += 1

    def _inject_http_fault(self):
        """The HTTP-boundary fault probes.  An injected refusal comes
        back as a full ``(status, body, headers)`` triple, marked with
        ``X-Repro-Fault`` so clients and tests can tell it from the real
        thing; ``http_timeout`` stalls the request instead (long enough
        to trip a client socket timeout when its arg says so)."""
        plan = faults.active()
        if not plan.enabled:
            return None
        if plan.fire("http_timeout"):
            self._count("faults_injected")
            time.sleep(plan.arg("http_timeout", 1.0))
        for probe, status, what in (
                ("http_429", 429, "queue pressure, retry later"),
                ("http_503", 503, f"{self.name} momentarily unavailable")):
            if plan.fire(probe):
                self._count("faults_injected")
                return status, error_body(status, f"injected fault: {what}"), {
                    "Retry-After": f"{plan.arg(probe, 0.05):g}",
                    "X-Repro-Fault": probe}
        return None

    # -- introspection -------------------------------------------------

    def healthz(self):
        """``GET /healthz``: ``(status, body)`` — 200 while serving, 503
        once draining or while degraded (load balancers should route
        away; the canary path handles recovery)."""
        degraded, fields = self._health_fields()
        state = ("draining" if self.draining
                 else "degraded" if degraded else "ok")
        payload = {"status": state, **fields,
                   "uptime_s": round(time.monotonic() - self._started_at, 6)}
        return (200 if state == "ok" else 503,
                (json.dumps(payload) + "\n").encode("utf-8"))

    def metrics(self) -> dict:
        """``GET /metrics``: the ``/healthz`` fields, request counters,
        cache stats and the server's own fields, plus the fault-probe
        counts when a plan is installed."""
        degraded, health = self._health_fields()
        fields = self._metrics_fields()
        with self._lock:
            counters = dict(self._counters)
        document = {
            "uptime_s": round(time.monotonic() - self._started_at, 6),
            "draining": self.draining,
            "degraded": degraded,
            **health,
            **fields,
            **counters,
            **self.cache.stats(),
        }
        plan = faults.active()
        if plan.enabled:
            document["faults"] = plan.stats()
        return document


class AnalysisService(ServerCore):
    """The daemon's core, independent of HTTP: cache + queue + workers.

    Parameters
    ----------
    workers:
        Worker-thread count; each owns a persistent
        :class:`~repro.engine.batch.BatchEngine`.
    queue_size:
        Admission bound — requests beyond ``queue_size`` waiting jobs are
        refused with 429 rather than queued.
    cache:
        A :class:`~repro.service.cache.ResultCache` (a default 64 MiB
        memory-only cache is built when omitted).
    timeout:
        Default per-request wall-clock budget in seconds (queue wait +
        analysis); a request's own ``timeout`` field overrides it.
        ``None`` means unlimited.
    """

    def __init__(self, workers: int = 2, queue_size: int = 16,
                 cache: ResultCache | None = None,
                 timeout: float | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size!r}")
        super().__init__(cache if cache is not None else ResultCache(),
                         timeout, counters=("rejected_queue_full",))
        self.workers = workers
        self._queue: queue_module.Queue = queue_module.Queue(maxsize=queue_size)
        self._engines: list[BatchEngine] = []
        self._threads: list[threading.Thread] = []
        # Per-endpoint EWMAs of job wall time, seeding Retry-After: /sta
        # freezes a whole timing DAG while /analyze runs one deck and
        # /sweep amortises one factorization over many points, so one
        # shared average would let a burst of either skew the others'
        # hint (an STA-heavy minute would tell analyze clients to back
        # off 10x too long, and vice versa).
        self._avg_job_s = dict.fromkeys(ENDPOINTS, 0.05)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "AnalysisService":
        """Start the worker threads (idempotent)."""
        if self._threads:
            return self
        self._started_at = time.monotonic()
        for number in range(self.workers):
            engine = BatchEngine()
            self._engines.append(engine)
            thread = threading.Thread(
                target=self._worker, args=(engine,),
                name=f"repro-service-worker-{number}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def close(self, timeout: float | None = None) -> None:
        """Drain, stop the workers, and join their threads."""
        self.begin_drain()
        self.wait_drained(timeout)
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join(timeout)
        self._threads.clear()

    # -- request handling (called from HTTP handler threads) -----------

    def _canonicalize(self, raw_body: bytes, kind: str):
        began = time.monotonic()
        key, params = canonicalize(kind, raw_body)
        params["parse_s"] = time.monotonic() - began
        return key, params

    def _dispatch(self, kind, raw_body, key, params, started, budget):
        if self.draining:
            self._count("rejected_draining")
            return 503, error_body(
                503, "service is draining and no longer accepts work"), {}
        # One accepted request travels handler → worker → handler with
        # its deadline (monotonic seconds, or None) and its answer.
        future = futures.Future()
        job = (future, kind, key, params,
               None if budget is None else started + budget)
        with self._idle:
            # Admission and the in-flight count move together so a drain
            # observer can never see an accepted job it will not wait for.
            try:
                self._queue.put_nowait(job)
            except queue_module.Full:
                self._counters["rejected_queue_full"] += 1
                retry_after = max(1, math.ceil(
                    self._avg_job_s[kind] * (self._queue.qsize() + 1)))
                return 429, error_body(
                    429, "analysis queue is full; retry later"), {
                    "Retry-After": str(retry_after)}
            self._in_flight += 1
        # The wall-clock backstop: the engine's own deadline machinery is
        # preemptive only where SIGALRM is available (it degrades to a
        # no-op off the main thread), so the handler authoritatively
        # bounds how long the client is kept waiting — queue wait
        # included.
        return self._wait(future, key, started, budget)

    # -- introspection -------------------------------------------------

    def _health_fields(self):
        return False, {
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
        }

    def _metrics_fields(self) -> dict:
        """The worker threads' state plus the cumulative engine + solver
        instrumentation merged across their engines (same fields as
        ``BatchEngine.stats()``)."""
        solver = SolverStats()
        for engine in self._engines:
            solver.merge(engine.stats())
        with self._lock:
            in_flight = self._in_flight
            avg_job_s = {kind: round(value, 6)
                         for kind, value in self._avg_job_s.items()}
        return {
            "avg_job_s": avg_job_s,
            "queue_capacity": self._queue.maxsize,
            "in_flight": in_flight,
            "solver": solver.as_dict(),
        }

    # -- worker side ---------------------------------------------------

    def _worker(self, engine: BatchEngine) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            future, *request = job
            result = None
            try:
                # A cancelled job's client already received its 504:
                # don't burn a worker on it.
                if future.set_running_or_notify_cancel():
                    result = self._process(engine, *request)
            finally:
                with self._idle:
                    self._in_flight -= 1
                    self._idle.notify_all()
            if result is not None:
                future.set_result(result)

    def _process(self, engine: BatchEngine, kind, key, params, deadline):
        """The single worker path, for every endpoint: ``(status, body,
        headers, clean)``."""
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return (504, error_body(504, "request timed out while queued"),
                        {}, False)
        endpoint = ENDPOINTS[kind]
        started = time.monotonic()
        try:
            document = endpoint.run(params, engine, remaining,
                                    params["parse_s"])
            clean = endpoint.clean is None or endpoint.clean(document)
            body = _serialize(document)
        except Exception as exc:  # defensive: a worker must never die
            return (500, error_body(500, f"internal analysis error: {exc}",
                                    type(exc).__name__), {}, False)
        if clean:
            self.cache.put(key, body)
        with self._lock:
            self._avg_job_s[kind] += 0.3 * (
                time.monotonic() - started - self._avg_job_s[kind])
        return 200, body, {}, clean


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------

#: ``POST`` path → endpoint kind.
_ROUTES = {f"/{kind}": kind for kind in ENDPOINTS}

_ENDPOINT_HELP = ", ".join(
    [*(f"POST {path}" for path in _ROUTES), "GET /healthz", "GET /metrics"])


class _HTTPServer(HTTPServer):
    """The stdlib HTTP server, each connection served on a pool thread."""

    service: ServerCore

    def __init__(self, address, handler, backlog: int):
        self.request_queue_size = backlog
        # Idle threads are reused, and a new one starts only when none is
        # free, so there is no cap on connections served at once.  A new
        # thread per connection would make the accept loop wait for each
        # thread to first run, and under load that wait paces it.
        self._pool = futures.ThreadPoolExecutor(
            sys.maxsize, thread_name_prefix="repro-http")
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        self._pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self):
        super().server_close()
        # Every accepted connection is answered before this returns
        # (the drain guarantee).
        self._pool.shutdown()


class _Handler(BaseHTTPRequestHandler):
    """The one request handler, for the daemon and the gateway alike."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    #: Seconds a socket read or write may stall before the connection is
    #: dropped, so an abandoned keep-alive connection cannot hold its
    #: thread (or the drain) forever.  An analysis in progress is not a
    #: stall: no socket operation is pending while it runs.
    timeout = 60

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # one line per request would swamp a long-lived server's log

    def _reply(self, status: int, body: bytes, headers: dict | None = None):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        try:
            self.end_headers()
            self.wfile.write(body)
        except ConnectionError:  # the client went away; nothing to tell
            self.close_connection = True

    def _refuse(self, status: int, message: str, headers: dict | None = None):
        # Any request body is left unread, so the connection cannot
        # carry another request.
        self.close_connection = True
        self._reply(status, error_body(status, message), headers)

    def do_GET(self):
        service = self.server.service
        if self.path == "/healthz":
            self._reply(*service.healthz())
        elif self.path == "/metrics":
            self._reply(200, (json.dumps(service.metrics(), indent=2)
                              + "\n").encode("utf-8"))
        else:
            self._refuse(404, f"unknown path {self.path!r}; "
                              f"endpoints: {_ENDPOINT_HELP}")

    def do_POST(self):
        kind = _ROUTES.get(self.path)
        length = self.headers.get("Content-Length", "").strip()
        if kind is None:
            self._refuse(404, f"unknown path {self.path!r}; "
                              f"endpoints: {_ENDPOINT_HELP}")
        elif not length:
            self._refuse(411, "Content-Length required")
        elif not (length.isascii() and length.isdigit()):
            self._refuse(400, "Content-Length must be a non-negative integer")
        elif int(length) > MAX_BODY_BYTES:
            self._refuse(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        else:
            raw = self.rfile.read(int(length))
            self._reply(*self.server.service.submit(raw, kind))

    def __getattr__(self, name):
        # The stdlib dispatches method M to do_M; every method but GET
        # and POST gets the 405.
        if name.startswith("do_"):
            return self._not_allowed
        raise AttributeError(name)

    def _not_allowed(self):
        self._refuse(405, f"method {self.command} not allowed",
                     {"Allow": "GET, POST"})


class HttpFront:
    """A :class:`ServerCore` behind the stdlib HTTP stack.

    Background mode for tests, docs and benchmarks (:meth:`start` /
    :meth:`close`, or a ``with`` block); foreground mode for the CLI
    (:meth:`serve_forever`).  The socket is bound on construction, so
    :attr:`url` is concrete even for ``port=0``.
    """

    #: The listen backlog.  Connections beyond it have their SYN dropped
    #: and retry a second later.  The daemon keeps socketserver's 5.
    backlog = 5

    def __init__(self, service: ServerCore, host: str, port: int):
        self.service = service
        self._httpd = _HTTPServer((host, port), _Handler, self.backlog)
        self._httpd.service = service
        self._thread: threading.Thread | None = None

    # -- addressing ----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — port is concrete even for 0."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- background mode (tests / docs / benchmarks) -------------------

    def start(self):
        """Start the service, then serve on a background thread."""
        if self._thread is not None:
            return self
        try:
            self.service.start()
        except BaseException:
            self._httpd.server_close()
            raise
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-http", daemon=True)
        self._thread.start()
        return self

    def close(self, timeout: float | None = 60.0) -> None:
        """Drain, stop accepting connections, release the socket, and
        close the service."""
        self.service.begin_drain()
        self.service.wait_drained(timeout)
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout)
            self._thread = None
        self._httpd.server_close()  # joins in-flight handler threads
        self.service.close(timeout)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- foreground mode (the CLI) -------------------------------------

    def serve_forever(self, announce=None) -> None:
        """Run in the calling thread until SIGTERM/SIGINT, then drain.

        The handlers go in first: a supervisor may signal as soon as it
        reads the announce line, and the default action would kill the
        process (and orphan a gateway's shards).  A handler only flips
        the drain flag and hands shutdown to a helper thread — in-flight
        work finishes and its responses are written before this method
        returns.  ``announce`` is called with the server once the service
        has started.
        """
        def _on_signal(signum, frame):
            self.service.begin_drain()
            threading.Thread(target=self._drain_then_shutdown,
                             daemon=True).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        self.service.start()
        try:
            if announce is not None:
                announce(self)
            self._httpd.serve_forever()
        finally:
            self._httpd.server_close()  # joins in-flight handler threads
            self.service.close()

    def _drain_then_shutdown(self) -> None:
        self.service.wait_drained()
        self._httpd.shutdown()


class ServiceServer(HttpFront):
    """One daemon instance: an :class:`AnalysisService` behind HTTP.

    Usable programmatically (tests, docs, benchmarks)::

        with ServiceServer(port=0, workers=2) as server:
            client = AnalysisClient(server.url)
            ...

    or as a blocking process via :func:`serve` (the
    ``python -m repro serve`` entry point), where SIGTERM/SIGINT trigger
    the graceful drain.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 service: AnalysisService | None = None, **service_options):
        if service is not None and service_options:
            raise ValueError("pass either a service or its options, not both")
        super().__init__(service if service is not None
                         else AnalysisService(**service_options), host, port)


def serve(host: str = "127.0.0.1", port: int = 8040, *, workers: int = 2,
          queue_size: int = 16, cache_bytes: int = 64 * 1024 * 1024,
          cache_dir: str | None = None, timeout: float | None = None,
          fault_spec: str | None = None, fault_seed: int = 0,
          announce=None) -> int:
    """Blocking daemon entry point (``python -m repro serve``).

    ``announce`` is called with the server once it is bound (the CLI
    prints the listening URL from it); returns the process exit code.
    ``fault_spec`` installs a :class:`repro.faults.FaultPlan` for the
    process (the ``--faults`` flag; see ``repro.faults`` for the
    grammar) — production runs leave it ``None``.
    """
    if fault_spec:
        faults.install(faults.FaultPlan.parse(fault_spec, seed=fault_seed))
    cache = ResultCache(max_bytes=cache_bytes, directory=cache_dir)
    service = AnalysisService(workers=workers, queue_size=queue_size,
                              cache=cache, timeout=timeout)
    ServiceServer(host=host, port=port, service=service).serve_forever(
        announce=announce)
    return 0
