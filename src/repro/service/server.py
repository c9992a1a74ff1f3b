"""The AWE analysis daemon: HTTP front end, worker pool, admission control.

Architecture (one process, threads only, stdlib only)::

    HTTP handler threads            worker threads (persistent)
    ─────────────────────           ───────────────────────────
    parse request JSON              queue.get()
    parse deck, hash request  ──►   BatchEngine.run([job], trace=True)
    cache.get(key)? ─ hit ──► 200   build_report → validate → bytes
    bounded queue.put_nowait        cache.put(key, body)
      └ Full ──► 429 Retry-After    event.set()  ──►  handler replies

Each worker owns one persistent :class:`~repro.engine.batch.BatchEngine`
— the pool survives across requests, so engine/solver counters accumulate
into a service-lifetime view that ``GET /metrics`` reports alongside the
cache and queue counters.  Every request is traced
(``BatchEngine.run(trace=True)``), so the body a client receives is the
same validated ``repro.run-report/1`` document ``python -m repro report
--json`` would have produced.

``POST /sta`` rides the same machinery: the handler parses and
structurally validates the design (malformed graphs are refused with 400
before a worker is committed), content-addresses the request with
:func:`~repro.service.canon.sta_request_key`, and the worker runs
:func:`repro.sta.run_sta` instead of the batch engine, returning a
validated ``repro.sta-report/1`` document that is cached bit-for-bit
like an analysis report.

Admission control is a bounded queue: when it is full the request is
refused *immediately* with HTTP 429 and a ``Retry-After`` estimated from
the recent per-job wall time — the backlog can never grow without bound.
``SIGTERM`` triggers a graceful drain: requests already accepted run to
completion and their reports are returned; new ``/analyze`` requests are
refused with 503; the process exits once the queue is empty.

Degraded mode (self-protection under worker crashes)
----------------------------------------------------
With ``engine_workers > 1`` each analysis fans out over a process pool;
a pool-worker death is absorbed by the engine's self-healing rebuild
(``pool_rebuilds`` in ``/metrics``), and a request whose jobs are *still*
lost after the rebuild counts as a worker-crash request.  After
``degraded_threshold`` consecutive crash requests the service flips
``/healthz`` to a 503 ``degraded`` state and sheds load: while degraded,
at most one analysis (the canary) is in flight at a time and the rest
are refused immediately with 503 + ``Retry-After`` instead of queueing
behind a crashing pool.  The first canary that completes without a crash
clears the state.  Cache hits are always served.

Fault injection (``repro.faults``) hooks the HTTP boundary here: the
``http_429`` / ``http_503`` / ``http_timeout`` probes fire at the top of
``submit`` (marked with an ``X-Repro-Fault`` header) so client
retry/backoff behaviour is testable against a live daemon.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
import queue as queue_module
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import faults
from repro.circuit.parser import parse_netlist
from repro.engine import AweJob, BatchEngine
from repro.errors import ReproError, WorkerCrashError
from repro.instrumentation import SolverStats
from repro.report import (
    build_report,
    build_sta_report,
    build_sweep_report,
    validate_report,
    validate_sta_report,
    validate_sweep_report,
)
from repro.reduce import REDUCTION_MEMO
from repro.service.cache import ResultCache
from repro.service.canon import request_key, sta_request_key, sweep_request_key
from repro.sweep import SweepEngine, SweepPlan
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


class _Pending:
    """One accepted request travelling handler → worker → handler.

    ``kind`` selects the worker path: ``"analyze"`` runs the AWE batch
    engine over a parsed ``deck``; ``"sta"`` runs the STA engine over
    the :class:`~repro.sta.Design` carried in ``params``.
    """

    __slots__ = ("deck", "params", "key", "label", "parse_s", "deadline",
                 "event", "status", "body", "cache_state", "abandoned",
                 "kind")

    def __init__(self, deck, params, key, label, parse_s, deadline,
                 kind="analyze"):
        self.kind = kind
        self.deck = deck
        self.params = params
        self.key = key
        self.label = label
        self.parse_s = parse_s
        self.deadline = deadline  # monotonic seconds, or None
        self.event = threading.Event()
        self.status = None
        self.body = None
        self.cache_state = "miss"
        self.abandoned = False


def _error_body(status: int, message: str, error_type: str = None) -> bytes:
    payload = {"error": message}
    if error_type:
        payload["error_type"] = error_type
    payload["status"] = status
    return (json.dumps(payload) + "\n").encode("utf-8")


def _parse_request(raw: bytes) -> dict:
    """Decode and structurally validate an ``/analyze`` body.

    Returns the normalised parameter dict; raises :class:`ValueError`
    with a client-facing message on any problem.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(payload) - {
        "deck", "nodes", "order", "error_target", "max_order", "threshold",
        "timeout", "reduce",
    }
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(sorted(unknown))}")
    deck = payload.get("deck")
    if not isinstance(deck, str) or not deck.strip():
        raise ValueError("'deck' must be a non-empty string of netlist text")
    nodes = payload.get("nodes")
    if isinstance(nodes, str):
        nodes = [nodes]
    if (not isinstance(nodes, list) or not nodes
            or not all(isinstance(node, str) and node for node in nodes)):
        raise ValueError("'nodes' must be a non-empty list of node names")

    def number(name, default=None, integer=False, minimum=None):
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

    reduce = payload.get("reduce")
    if reduce is not None and not isinstance(reduce, bool):
        raise ValueError("'reduce' must be a boolean")

    return {
        "deck": deck,
        "nodes": tuple(nodes),
        "order": number("order", integer=True, minimum=1),
        "error_target": number("error_target", default=0.01, minimum=0.0),
        "max_order": number("max_order", default=8, integer=True, minimum=1),
        "threshold": number("threshold"),
        "timeout": number("timeout", minimum=0.0),
        # None = "request didn't say": the service substitutes its
        # default_reduce before hashing, so the cache key always reflects
        # what actually ran.
        "reduce": reduce,
    }


def _parse_sta_request(raw: bytes) -> dict:
    """Decode and validate a ``/sta`` body (cheap, structural only).

    Builds the :class:`~repro.sta.Design`, corners, and optional library
    and runs the structural validation (connectivity, single drivers,
    acyclicity) so every malformed graph is refused with 400 *before* a
    worker is committed; the expensive AWE freeze happens in the worker.
    Raises :class:`ValueError` or :class:`~repro.errors.ReproError` with
    a client-facing message on any problem.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(payload) - {
        "design", "k", "corners", "interconnect", "library", "timeout",
    }
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(sorted(unknown))}")
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

    timeout = payload.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ValueError("'timeout' must be a number")
        if timeout < 0:
            raise ValueError("'timeout' must be >= 0")

    design.validate(library if library is not None else default_library())
    return {
        "design": design,
        "k": k,
        "corners": corners,
        "interconnect": interconnect,
        "library": library,
        "timeout": timeout,
    }


def _parse_sweep_request(raw: bytes) -> dict:
    """Decode and structurally validate a ``/sweep`` body.

    The plan is materialised as a :class:`~repro.sweep.SweepPlan` (its
    own validation rejects bad modes, empty point lists, and malformed
    points), so every structural problem is refused with 400 before a
    worker is committed; the deck itself is parsed by the caller like an
    ``/analyze`` deck.  Raises :class:`ValueError` with a client-facing
    message on any problem.
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    unknown = set(payload) - {
        "deck", "node", "points", "mode", "first_order_threshold",
        "error_bound", "timeout",
    }
    if unknown:
        raise ValueError(f"unknown request field(s): {', '.join(sorted(unknown))}")
    deck = payload.get("deck")
    if not isinstance(deck, str) or not deck.strip():
        raise ValueError("'deck' must be a non-empty string of netlist text")
    node = payload.get("node")
    if not isinstance(node, str) or not node:
        raise ValueError("'node' must be a non-empty node name")
    points = payload.get("points")
    if (not isinstance(points, list) or not points
            or not all(isinstance(point, dict) for point in points)):
        raise ValueError("'points' must be a non-empty list of objects")
    timeout = payload.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ValueError("'timeout' must be a number")
        if timeout < 0:
            raise ValueError("'timeout' must be >= 0")
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
    return {"deck": deck, "plan": plan, "timeout": timeout}


#: Public names for the request parsers: the gateway validates and
#: content-addresses a body *before* choosing a shard, and routing must
#: agree with the daemon about what a request means — one parser, two
#: callers, zero drift.
parse_analyze_request = _parse_request
parse_sta_request = _parse_sta_request
parse_sweep_request = _parse_sweep_request


class AnalysisService:
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
    engine_workers:
        Process-pool width of each worker thread's
        :class:`~repro.engine.batch.BatchEngine` (default 1 = in-process
        analysis; > 1 adds per-request fan-out and, with it, the
        self-healing pool-rebuild path).
    degraded_threshold:
        Consecutive worker-crash requests that flip the service into the
        degraded (shed-load) state; the first clean request clears it.
    default_reduce:
        RC-chain pre-reduction (:func:`repro.reduce.reduce_circuit`) for
        requests whose ``reduce`` field is absent; an explicit request
        field always wins.  The *effective* setting is part of the cache
        key, so flipping the default can never serve a stale entry.
    """

    def __init__(self, workers: int = 2, queue_size: int = 16,
                 cache: ResultCache | None = None,
                 timeout: float | None = None,
                 engine_workers: int = 1,
                 degraded_threshold: int = 3,
                 default_reduce: bool = False):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size!r}")
        if engine_workers < 1:
            raise ValueError(
                f"engine_workers must be >= 1, got {engine_workers!r}")
        if degraded_threshold < 1:
            raise ValueError(
                f"degraded_threshold must be >= 1, got {degraded_threshold!r}")
        self.workers = workers
        self.timeout = timeout
        self.default_reduce = default_reduce
        self.engine_workers = engine_workers
        self.degraded_threshold = degraded_threshold
        self.cache = cache if cache is not None else ResultCache()
        self._queue: queue_module.Queue = queue_module.Queue(maxsize=queue_size)
        self._engines: list[BatchEngine] = []
        self._threads: list[threading.Thread] = []
        self._draining = threading.Event()
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._in_flight = 0
        # Per-endpoint EWMAs of job wall time, seeding Retry-After: /sta
        # freezes a whole timing DAG while /analyze runs one deck and
        # /sweep amortises one factorization over many points, so one
        # shared average would let a burst of either skew the others'
        # hint (an STA-heavy minute would tell analyze clients to back
        # off 10x too long, and vice versa).
        self._avg_job_s = {"analyze": 0.05, "sta": 0.05, "sweep": 0.05}
        self._started_at = time.monotonic()
        self._degraded = False
        self._consecutive_crashes = 0
        self._counters = {
            "requests_total": 0,
            "requests_ok": 0,
            "requests_failed": 0,
            "bad_requests": 0,
            "rejected_queue_full": 0,
            "rejected_draining": 0,
            "rejected_degraded": 0,
            "request_timeouts": 0,
            "worker_crash_requests": 0,
            "degraded_entries": 0,
            "faults_injected": 0,
        }

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "AnalysisService":
        """Spawn the worker pool (idempotent)."""
        if self._threads:
            return self
        self._started_at = time.monotonic()
        for number in range(self.workers):
            engine = BatchEngine(workers=self.engine_workers)
            self._engines.append(engine)
            thread = threading.Thread(
                target=self._worker, args=(engine,),
                name=f"repro-service-worker-{number}", daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def begin_drain(self) -> None:
        """Stop admitting work; already-accepted jobs run to completion."""
        self._draining.set()

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until every accepted request has completed (after
        :meth:`begin_drain`).  Returns False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._in_flight > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

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

    def submit(self, raw_body: bytes, kind: str = "analyze"):
        """Handle one ``/analyze`` or ``/sta`` body end to end.

        Returns ``(status, body_bytes, extra_headers)`` — the HTTP layer
        only frames it.  Cache hits are served directly from the calling
        thread and never touch the queue; admission control applies only
        to requests that need a worker.
        """
        started = time.monotonic()
        with self._lock:
            self._counters["requests_total"] += 1
        plan = faults.active()
        if plan.enabled:
            injected = self._inject_http_fault(plan)
            if injected is not None:
                return injected
        try:
            if kind == "sta":
                deck = None
                params = _parse_sta_request(raw_body)
                key = sta_request_key(
                    params["design"], params["k"], params["corners"],
                    params["interconnect"], library=params["library"],
                )
                label = params["design"].name
            elif kind == "sweep":
                params = _parse_sweep_request(raw_body)
                deck = parse_netlist(params["deck"])
                plan = params["plan"]
                for point in plan.points:
                    try:
                        deck.circuit[point.element]
                    except KeyError:
                        raise ValueError(
                            f"sweep point names unknown element "
                            f"{point.element!r}") from None
                key = sweep_request_key(deck.circuit, deck.stimuli, plan)
                label = deck.title or "deck"
            else:
                params = _parse_request(raw_body)
                deck = parse_netlist(params["deck"])
                if params["reduce"] is None:
                    params["reduce"] = self.default_reduce
                key = request_key(
                    deck.circuit, deck.stimuli, params["nodes"],
                    order=params["order"],
                    error_target=params["error_target"],
                    max_order=params["max_order"],
                    threshold=params["threshold"],
                    reduce=params["reduce"],
                )
                label = deck.title or "deck"
        except (ValueError, ReproError) as exc:
            with self._lock:
                self._counters["bad_requests"] += 1
            return 400, _error_body(400, str(exc), type(exc).__name__), {}

        parse_s = time.monotonic() - started

        cached = self.cache.get(key)
        if cached is not None:
            with self._lock:
                self._counters["requests_ok"] += 1
            headers = self._result_headers(key, "hit", time.monotonic() - started)
            return 200, cached, headers

        if self.draining:
            with self._lock:
                self._counters["rejected_draining"] += 1
            return 503, _error_body(
                503, "service is draining and no longer accepts work"), {}

        timeout = params["timeout"] if params["timeout"] is not None else self.timeout
        deadline = None if timeout is None else started + timeout
        pending = _Pending(deck, params, key, label, parse_s, deadline,
                           kind=kind)
        with self._idle:
            # Degraded shed-load: while the worker pool is suspected
            # broken, admit exactly one canary analysis at a time and
            # refuse the rest immediately — a fast 503 with a hint beats
            # a request hanging behind a crashing pool.
            if self._degraded and self._in_flight >= 1:
                self._counters["rejected_degraded"] += 1
                retry_after = max(1, math.ceil(self._avg_job_s[kind] * 2))
                return 503, _error_body(
                    503, "service is degraded after repeated worker "
                         "crashes; shedding load while one canary "
                         "request probes recovery"), {
                    "Retry-After": str(retry_after)}
            # Admission and the in-flight count move together so a drain
            # observer can never see an accepted job it will not wait for.
            try:
                self._queue.put_nowait(pending)
            except queue_module.Full:
                self._counters["rejected_queue_full"] += 1
                retry_after = max(
                    1, math.ceil(self._avg_job_s[kind]
                                 * (self._queue.qsize() + 1)))
                return 429, _error_body(
                    429, "analysis queue is full; retry later"), {
                    "Retry-After": str(retry_after)}
            self._in_flight += 1

        # The wall-clock backstop: the engine's own deadline machinery is
        # preemptive only where SIGALRM is available (it degrades to a
        # no-op off the main thread), so the handler authoritatively
        # bounds how long the client is kept waiting — queue wait
        # included.  A worker that is already past the deadline when it
        # dequeues the job skips it instead of computing for nobody.
        wait = None if deadline is None else max(deadline - time.monotonic(), 0.0)
        if not pending.event.wait(wait):
            pending.abandoned = True
            with self._lock:
                self._counters["request_timeouts"] += 1
            return 504, _error_body(
                504, f"request exceeded its {timeout:g} s budget"), {}
        elapsed = time.monotonic() - started
        headers = self._result_headers(key, pending.cache_state, elapsed)
        return pending.status, pending.body, headers

    def _result_headers(self, key: str, cache_state: str, elapsed: float) -> dict:
        return {
            "X-Repro-Cache": cache_state,
            "X-Repro-Key": key,
            "X-Repro-Elapsed-S": f"{elapsed:.6f}",
        }

    def _inject_http_fault(self, plan):
        """Consult the HTTP-boundary fault probes; an injected refusal is
        returned as a full ``(status, body, headers)`` triple, marked with
        ``X-Repro-Fault`` so clients and tests can tell it from the real
        thing.  ``http_timeout`` stalls the handler instead (long enough
        to trip a client socket timeout when its arg says so)."""
        if plan.fire("http_timeout"):
            with self._lock:
                self._counters["faults_injected"] += 1
            time.sleep(plan.arg("http_timeout", 1.0))
        if plan.fire("http_429"):
            with self._lock:
                self._counters["faults_injected"] += 1
            return 429, _error_body(
                429, "injected fault: queue pressure, retry later"), {
                "Retry-After": f"{plan.arg('http_429', 0.05):g}",
                "X-Repro-Fault": "http_429"}
        if plan.fire("http_503"):
            with self._lock:
                self._counters["faults_injected"] += 1
            return 503, _error_body(
                503, "injected fault: service momentarily unavailable"), {
                "Retry-After": f"{plan.arg('http_503', 0.05):g}",
                "X-Repro-Fault": "http_503"}
        return None

    # -- introspection -------------------------------------------------

    def healthz(self):
        """``GET /healthz`` payload: 200 while serving; 503 once draining
        or while degraded after repeated worker crashes (load balancers
        should route away, the canary path handles recovery)."""
        with self._lock:
            degraded = self._degraded
            consecutive = self._consecutive_crashes
        if self.draining:
            status, state = 503, "draining"
        elif degraded:
            status, state = 503, "degraded"
        else:
            status, state = 200, "ok"
        payload = {
            "status": state,
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "consecutive_worker_failures": consecutive,
            "uptime_s": round(time.monotonic() - self._started_at, 6),
        }
        return status, (json.dumps(payload) + "\n").encode("utf-8")

    def metrics(self) -> dict:
        """``GET /metrics`` document: request/queue/cache counters plus
        the cumulative engine + solver instrumentation merged across the
        worker pool (same fields as ``BatchEngine.stats()``)."""
        solver = SolverStats()
        for engine in self._engines:
            solver.merge(engine.stats())
        with self._lock:
            counters = dict(self._counters)
            in_flight = self._in_flight
            degraded = self._degraded
            consecutive = self._consecutive_crashes
            avg_job_s = dict(self._avg_job_s)
        document = {
            "avg_job_s": {kind: round(value, 6)
                          for kind, value in avg_job_s.items()},
            "reduction_memo": REDUCTION_MEMO.stats(),
            "uptime_s": round(time.monotonic() - self._started_at, 6),
            "workers": self.workers,
            "engine_workers": self.engine_workers,
            "draining": self.draining,
            "degraded": degraded,
            "consecutive_worker_failures": consecutive,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "in_flight": in_flight,
            **counters,
            **self.cache.stats(),
            "solver": solver.as_dict(),
        }
        plan = faults.active()
        if plan.enabled:
            document["faults"] = plan.stats()
        return document

    # -- worker side ---------------------------------------------------

    def _worker(self, engine: BatchEngine) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            try:
                if item.kind == "sta":
                    self._process_sta(item)
                elif item.kind == "sweep":
                    self._process_sweep(item)
                else:
                    self._process(engine, item)
            finally:
                with self._idle:
                    self._in_flight -= 1
                    if self._in_flight == 0:
                        self._idle.notify_all()

    def _process(self, engine: BatchEngine, pending: _Pending) -> None:
        if pending.abandoned:
            return  # the client already received 504; don't burn a worker
        remaining = None
        if pending.deadline is not None:
            remaining = pending.deadline - time.monotonic()
            if remaining <= 0:
                self._finish(pending, 504, _error_body(
                    504, "request timed out while queued"))
                return
        started = time.monotonic()
        params = pending.params
        try:
            # Reduction goes through the content-keyed memo rather than
            # the job's own reduce flag: every service request re-parses
            # its deck into a fresh Circuit, so the engine's per-object
            # sharing never triggers here — the memo makes repeated
            # reductions of one topology (same canonical key, any textual
            # spelling) pay the pure-Python chain collapse once.
            circuit = pending.deck.circuit
            if params["reduce"]:
                circuit = REDUCTION_MEMO.reduce(circuit,
                                                keep=params["nodes"])
            job = AweJob(
                circuit,
                params["nodes"],
                stimuli=pending.deck.stimuli,
                order=params["order"],
                error_target=params["error_target"],
                max_order=params["max_order"],
                label=pending.label,
                reduce=False,
            )
            stats_before = engine.stats()
            results = engine.run([job], trace=True, timeout=remaining)
            stats_delta = {
                name: value - stats_before.get(name, 0)
                for name, value in engine.stats().items()
            }
            document = validate_report(
                build_report(
                    results,
                    engine_stats=stats_delta,
                    parse_seconds={pending.label: pending.parse_s},
                    threshold=params["threshold"],
                )
            )
        except Exception as exc:  # defensive: a worker must never die
            self._finish(pending, 500, _error_body(
                500, f"internal analysis error: {exc}", type(exc).__name__))
            return
        body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
        ok = all(result.ok for result in results)
        crashed = any(
            result.error_type == WorkerCrashError.__name__ for result in results)
        if ok:
            # Only clean runs are cached: failures are cheap to reproduce
            # and may be environmental (a timeout under load).
            self.cache.put(pending.key, body)
        with self._lock:
            self._counters["requests_ok" if ok else "requests_failed"] += 1
            elapsed = time.monotonic() - started
            self._avg_job_s["analyze"] += (
                0.3 * (elapsed - self._avg_job_s["analyze"]))
            # Worker-death bookkeeping: a request whose jobs were lost
            # even after the engine's pool rebuild counts toward the
            # degraded threshold; any request that comes back without a
            # crash (the canary included) clears the streak.  A rebuild
            # that *recovered* is therefore a success — self-healing
            # keeps the service out of degraded mode.
            if crashed:
                self._counters["worker_crash_requests"] += 1
                self._consecutive_crashes += 1
                if (not self._degraded
                        and self._consecutive_crashes >= self.degraded_threshold):
                    self._degraded = True
                    self._counters["degraded_entries"] += 1
            else:
                self._consecutive_crashes = 0
                self._degraded = False
        self._finish(pending, 200, body)

    def _process_sta(self, pending: _Pending) -> None:
        """Worker path for ``POST /sta``: run the STA engine, build and
        validate the ``repro.sta-report/1`` document, cache on success.

        STA runs never touch the process pool, so they neither count
        toward nor clear the worker-crash/degraded bookkeeping.
        """
        if pending.abandoned:
            return  # the client already received 504; don't burn a worker
        if pending.deadline is not None:
            if pending.deadline - time.monotonic() <= 0:
                self._finish(pending, 504, _error_body(
                    504, "request timed out while queued"))
                return
        started = time.monotonic()
        params = pending.params
        try:
            tracer = Tracer(name="sta", design=params["design"].name)
            run = run_sta(
                params["design"],
                library=params["library"],
                k=params["k"],
                corners=params["corners"],
                interconnect=params["interconnect"],
                tracer=tracer,
            )
            document = validate_sta_report(
                build_sta_report(run, trace=tracer.to_record(),
                                 parse_s=pending.parse_s))
        except Exception as exc:  # defensive: a worker must never die
            with self._lock:
                self._counters["requests_failed"] += 1
            self._finish(pending, 500, _error_body(
                500, f"internal analysis error: {exc}", type(exc).__name__))
            return
        body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
        self.cache.put(pending.key, body)
        with self._lock:
            self._counters["requests_ok"] += 1
            elapsed = time.monotonic() - started
            self._avg_job_s["sta"] += (
                0.3 * (elapsed - self._avg_job_s["sta"]))
        self._finish(pending, 200, body)

    def _process_sweep(self, pending: _Pending) -> None:
        """Worker path for ``POST /sweep``: build the incremental sweep
        engine once, evaluate every plan point, and return the validated
        ``repro.sweep-report/1`` document, cached on success.

        Like STA, sweeps never touch the process pool, so they neither
        count toward nor clear the worker-crash/degraded bookkeeping.
        """
        if pending.abandoned:
            return  # the client already received 504; don't burn a worker
        if pending.deadline is not None:
            if pending.deadline - time.monotonic() <= 0:
                self._finish(pending, 504, _error_body(
                    504, "request timed out while queued"))
                return
        started = time.monotonic()
        plan = pending.params["plan"]
        try:
            tracer = Tracer(name="sweep", deck=pending.label,
                            points=len(plan.points))
            engine = SweepEngine(pending.deck.circuit, pending.deck.stimuli,
                                 tracer=tracer)
            result = engine.evaluate(plan)
            document = validate_sweep_report(
                build_sweep_report(result, trace=tracer.to_record(),
                                   parse_s=pending.parse_s))
        except Exception as exc:  # defensive: a worker must never die
            with self._lock:
                self._counters["requests_failed"] += 1
            self._finish(pending, 500, _error_body(
                500, f"internal analysis error: {exc}", type(exc).__name__))
            return
        body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
        self.cache.put(pending.key, body)
        with self._lock:
            self._counters["requests_ok"] += 1
            elapsed = time.monotonic() - started
            self._avg_job_s["sweep"] += (
                0.3 * (elapsed - self._avg_job_s["sweep"]))
        self._finish(pending, 200, body)

    @staticmethod
    def _finish(pending: _Pending, status: int, body: bytes) -> None:
        pending.status = status
        pending.body = body
        pending.event.set()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class _ServiceHTTPServer(ThreadingHTTPServer):
    # Handler threads must survive shutdown() so in-flight responses are
    # written before server_close() returns (the drain guarantee).
    daemon_threads = False
    block_on_close = True
    service: AnalysisService


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _reply(self, status: int, body: bytes, headers: dict | None = None):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    # -- routes --------------------------------------------------------

    def do_GET(self):
        service = self.server.service
        if self.path == "/healthz":
            status, body = service.healthz()
            self._reply(status, body)
        elif self.path == "/metrics":
            body = (json.dumps(service.metrics(), indent=2) + "\n").encode("utf-8")
            self._reply(200, body)
        else:
            self._reply(404, _error_body(
                404, f"unknown path {self.path!r}; endpoints: "
                     "POST /analyze, POST /sta, POST /sweep, "
                     "GET /healthz, GET /metrics"))

    def do_POST(self):
        service = self.server.service
        if self.path not in ("/analyze", "/sta", "/sweep"):
            self._reply(404, _error_body(
                404, f"unknown path {self.path!r}; POST /analyze, "
                     "POST /sta, or POST /sweep"))
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply(411, _error_body(411, "Content-Length required"))
            return
        if length > MAX_BODY_BYTES:
            self._reply(413, _error_body(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"))
            return
        raw = self.rfile.read(length)
        kind = self.path.lstrip("/")
        status, body, headers = service.submit(raw, kind=kind)
        self._reply(status, body, headers)


class ServiceServer:
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
        self.service = service if service is not None else AnalysisService(**service_options)
        self._httpd = _ServiceHTTPServer((host, port), _Handler)
        self._httpd.service = self.service
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

    def start(self) -> "ServiceServer":
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def begin_drain(self) -> None:
        self.service.begin_drain()

    def close(self, timeout: float | None = 30.0) -> None:
        """Drain, stop accepting connections, and release the socket."""
        self.service.begin_drain()
        self.service.wait_drained(timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.service.close(timeout)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- foreground mode (the CLI) -------------------------------------

    def serve_forever(self, install_signals: bool = True,
                      announce=None) -> None:
        """Run in the calling thread until SIGTERM/SIGINT, then drain.

        The signal handler only flips the drain flag and hands shutdown
        to a helper thread — in-flight jobs finish and their responses
        are written before this method returns.  ``announce`` is called
        with the server once the handlers are in place, so a signal sent
        as soon as the announce line is read drains instead of killing.
        """
        self.service.start()
        if install_signals:
            def _on_signal(signum, frame):
                self.service.begin_drain()
                threading.Thread(
                    target=self._drain_then_shutdown, daemon=True,
                ).start()

            signal.signal(signal.SIGTERM, _on_signal)
            signal.signal(signal.SIGINT, _on_signal)
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


def serve(host: str = "127.0.0.1", port: int = 8040, *, workers: int = 2,
          queue_size: int = 16, cache_bytes: int = 64 * 1024 * 1024,
          cache_dir: str | None = None, timeout: float | None = None,
          default_reduce: bool = False,
          engine_workers: int = 1, degraded_threshold: int = 3,
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
                              cache=cache, timeout=timeout,
                              default_reduce=default_reduce,
                              engine_workers=engine_workers,
                              degraded_threshold=degraded_threshold)
    server = ServiceServer(host=host, port=port, service=service)
    server.serve_forever(announce=announce)
    return 0
