"""The sharded async gateway: one front door over N analysis daemons.

The daemon (:mod:`repro.service.server`) amortises work *within* one
process: a hot engine pool and a content-addressed cache.  This module
amortises across processes — the paper's "moments are cheap once
factored" economics applied to a fleet::

    clients ──► asyncio gateway (one event loop, no thread per request)
                  │ parse + canonical key        (repro.service.canon)
                  │ tier-1 cache (memory LRU + shared disk)  hit ─► 200
                  │ in-flight key already computing?  join ──► fan-out
                  │ shard = key-affinity route   (repro.gateway.routing)
                  ▼
        shard 0 · shard 1 · … · shard N-1   (single-engine `repro serve`
                                             children, each with its own
                                             memory LRU over one shared
                                             disk cache directory)

Why each piece exists:

* **Key-affinity sharding** — requests are routed by the same
  SHA-256 content address that names their cache entry, so one shard's
  in-memory LRU is the single authority for each key: N shards give N
  disjoint working sets (aggregate memory capacity scales with the
  fleet) and every repeat of a request finds its own history.
* **Request coalescing** — identical keys arriving concurrently await
  *one* computation; the result fans out to every waiter.  A thundering
  herd on a hot deck costs one analysis, not hundreds — on a hot-key
  mix this beats a single daemon by the herd width itself.
* **Two-tier cache** — the gateway serves hits from its own
  :class:`~repro.service.cache.ResultCache` (memory LRU over the shared
  disk directory) without ever touching a shard; misses that a shard
  computes are written through to the same disk tier, so a restarted
  gateway starts warm.
* **Health + shed-load** — a shard that stops answering (after the
  respawn-and-retry below) is marked degraded: requests routed to it
  are refused immediately with 503 + ``Retry-After`` except a single
  canary that probes recovery, mirroring the daemon's own degraded
  mode one level up.
* **Self-healing** — a dead shard process (crash, OOM kill, or the
  ``shard_crash`` fault probe) is respawned and the request retried;
  the client sees the answer, not the obituary.  The
  ``repro.faults`` boundary probes (``http_429`` / ``http_503`` /
  ``http_timeout``) also fire here, so gateway-level chaos is testable
  exactly like daemon-level chaos.
* **Graceful drain** — :meth:`GatewayService.begin_drain` refuses new
  work with 503 (cache hits are still served, and joiners may still
  attach to in-flight computations), waits out the in-flight tasks,
  then SIGTERMs the shards, which drain themselves.

Everything observable carries headers: ``X-Repro-Cache`` (hit/miss),
``X-Repro-Key``, ``X-Repro-Shard``, ``X-Repro-Coalesced``
(leader/joined), ``X-Repro-Elapsed-S`` — and an optional
:class:`~repro.trace.Tracer` receives ``shard_route`` /
``coalesce_join`` / ``shard_restart`` / ``shard_crash_injected`` /
``gateway_shed`` / ``shard_degraded`` / ``shard_recovered`` events.

Stdlib only, like the rest of the serving stack: ``asyncio`` streams on
both faces, the same JSON protocol as the daemon on the wire — the
existing :class:`~repro.service.client.AnalysisClient` works against a
gateway unchanged.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import json
import signal
import threading
import time

from repro import faults
from repro.circuit.parser import parse_netlist
from repro.errors import ReproError
from repro.gateway.routing import shard_for_key
from repro.gateway.shards import AttachedShard, ShardProcess
from repro.service.cache import ResultCache
from repro.service.canon import (request_key, sta_request_key,
                                 sweep_request_key)
from repro.service.server import (
    MAX_BODY_BYTES,
    _error_body,
    parse_analyze_request,
    parse_sta_request,
    parse_sweep_request,
)
from repro.trace import NULL_TRACER

#: Transport attempts per request: the first forward plus one retry
#: after a respawn covers the crash-recovery path; the second retry
#: covers a shard that died *during* the respawned forward.
FORWARD_ATTEMPTS = 3

#: Headers propagated from a shard's response to the client (everything
#: else — cache state, timing — is the gateway's own story to tell).
_PROPAGATED_HEADERS = ("retry-after", "x-repro-fault")

#: Byte-identical request bodies seen recently whose canonical key is
#: already known.  A thundering herd sends the *same bytes*, and parsing
#: a deck costs the same order as analysing it — without this memo the
#: gateway would re-parse every copy of a coalesced request and the
#: coalescing win would be parse-bound.  Keyed by the raw body's SHA-256
#: (parsers are pure, so identical bytes always canonicalize alike).
_CANON_MEMO_MAX = 1024


async def _read_http_response(reader):
    """Parse one HTTP/1.x response from ``reader``:
    ``(status, headers_lowercase, body)``."""
    status_line = await reader.readline()
    if not status_line:
        raise EOFError("connection closed before the status line")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise OSError(f"malformed status line {status_line!r}")
    status = int(parts[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise EOFError("connection closed inside the headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    if length is not None:
        body = await reader.readexactly(int(length))
    else:
        body = await reader.read()
    return status, headers, body


async def _http_post(host: str, port: int, path: str, body: bytes,
                     timeout: float | None):
    """One ``POST`` over a fresh connection (``Connection: close`` —
    shard forwards are infrequent relative to their analysis cost, so
    connection reuse buys nothing worth its failure modes)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout)
    try:
        head = (f"POST {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n").encode("ascii")
        writer.write(head + body)
        await writer.drain()
        return await asyncio.wait_for(_read_http_response(reader), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass


def _new_health() -> dict:
    return {"requests": 0, "errors": 0, "consecutive_errors": 0,
            "degraded": False, "probing": False, "restarts": 0}


class GatewayService:
    """The gateway's core: routing, caching, coalescing, shard health.

    Lives entirely on one asyncio event loop (no internal locking —
    every mutation happens on loop callbacks); blocking work (process
    spawning, cache disk I/O) is pushed to the loop's default executor.

    Parameters
    ----------
    shards:
        Worker-daemon count to spawn (each a single-engine
        ``repro serve`` child).  Ignored when ``shard_urls`` is given.
    shard_urls:
        Attach mode: route to these already-running daemons instead of
        spawning children (tests and docs attach in-process
        :class:`~repro.service.server.ServiceServer` instances).  The
        attached daemons should share this gateway's ``default_reduce``
        setting, or routing keys and shard cache keys will disagree.
    cache_bytes / cache_dir:
        The gateway-tier :class:`~repro.service.cache.ResultCache`
        budget and the *shared* disk directory (spawned shards write
        through to the same directory, so the tiers converge).
    timeout:
        Default per-request wall-clock budget (a request's own
        ``timeout`` field overrides it); ``None`` = unlimited.
    degraded_threshold:
        Consecutive transport-level forward failures that mark a shard
        degraded (shed-load + canary probing).
    default_reduce:
        Resolved into absent ``reduce`` fields before hashing, exactly
        like the daemon, and passed to spawned shards so both layers
        compute identical keys.
    tracer:
        Optional :class:`~repro.trace.Tracer` receiving gateway events.
    shard_fault_spec / shard_fault_seed:
        A fault plan for the *shards* (normally the parent's plan is
        deliberately not inherited; see :mod:`repro.gateway.shards`).
    """

    def __init__(self, shards: int = 2, *, shard_urls=None,
                 cache_bytes: int = 64 * 1024 * 1024,
                 cache_dir: str | None = None,
                 timeout: float | None = None,
                 degraded_threshold: int = 3,
                 default_reduce: bool = False,
                 shard_workers: int = 1,
                 shard_engine_workers: int = 1,
                 shard_queue_size: int = 64,
                 shard_fault_spec: str | None = None,
                 shard_fault_seed: int = 0,
                 tracer=None):
        if shard_urls is None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        if degraded_threshold < 1:
            raise ValueError(
                f"degraded_threshold must be >= 1, got {degraded_threshold!r}")
        self.shard_count = len(shard_urls) if shard_urls is not None else shards
        self.timeout = timeout
        self.default_reduce = default_reduce
        self.degraded_threshold = degraded_threshold
        self.cache = ResultCache(max_bytes=cache_bytes, directory=cache_dir)
        self.cache_dir = cache_dir
        self._shard_urls = list(shard_urls) if shard_urls is not None else None
        self._shard_options = {
            "workers": shard_workers,
            "engine_workers": shard_engine_workers,
            "queue_size": shard_queue_size,
            "cache_dir": cache_dir,
            "default_reduce": default_reduce,
            "fault_spec": shard_fault_spec,
            "fault_seed": shard_fault_seed,
        }
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._shards: list = []
        self._health: list[dict] = []
        self._respawn_locks: list[asyncio.Lock] = []
        self._inflight: dict[str, asyncio.Task] = {}
        self._canon_memo: collections.OrderedDict = collections.OrderedDict()
        self._draining = False
        self._started = False
        self._started_at = time.monotonic()
        self._counters = {
            "requests_total": 0,
            "requests_ok": 0,
            "requests_failed": 0,
            "bad_requests": 0,
            "coalesced_requests": 0,
            "rejected_draining": 0,
            "rejected_degraded": 0,
            "request_timeouts": 0,
            "shard_errors": 0,
            "shard_restarts": 0,
            "faults_injected": 0,
            "canon_memo_hits": 0,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "GatewayService":
        """Spawn (or attach) the shard fleet; idempotent."""
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        if self._shard_urls is not None:
            self._shards = [AttachedShard(url) for url in self._shard_urls]
        else:
            self._shards = [
                ShardProcess(index, **self._shard_options)
                for index in range(self.shard_count)
            ]
            await asyncio.gather(*[
                loop.run_in_executor(None, shard.spawn)
                for shard in self._shards
            ])
        self._health = [_new_health() for _ in self._shards]
        # Created here, under the running loop, for 3.9 compatibility.
        self._respawn_locks = [asyncio.Lock() for _ in self._shards]
        self._started = True
        self._started_at = time.monotonic()
        return self

    @property
    def shards(self) -> tuple:
        """The shard fleet (read-only view; ShardProcess/AttachedShard)."""
        return tuple(self._shards)

    def begin_drain(self) -> None:
        """Refuse new computations; hits and in-flight joins still work."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_drained(self) -> None:
        """Resolve once every in-flight computation has finished."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight.values()),
                                 return_exceptions=True)

    async def close(self, timeout: float = 10.0) -> None:
        """Drain, then stop owned shard processes (SIGTERM, they drain
        themselves, SIGKILL as a last resort)."""
        self.begin_drain()
        await self.wait_drained()
        loop = asyncio.get_running_loop()
        await asyncio.gather(*[
            loop.run_in_executor(None, lambda s=shard: s.terminate(timeout))
            for shard in self._shards
        ])
        self._started = False

    # -- the request path ----------------------------------------------

    async def submit(self, raw_body: bytes, kind: str = "analyze"):
        """Handle one ``/analyze``, ``/sta``, or ``/sweep`` body end to
        end; returns
        ``(status, body_bytes, extra_headers)`` like the daemon's
        :meth:`~repro.service.server.AnalysisService.submit`."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        self._counters["requests_total"] += 1

        plan = faults.active()
        if plan.enabled:
            injected = await self._inject_http_fault(plan)
            if injected is not None:
                return injected

        digest = hashlib.sha256(kind.encode() + b"\x00" + raw_body).digest()
        memoized = self._canon_memo.get(digest)
        if memoized is not None:
            self._canon_memo.move_to_end(digest)
            self._counters["canon_memo_hits"] += 1
            key, request_timeout = memoized
        else:
            try:
                key, params = self._canonicalize(raw_body, kind)
            except (ValueError, ReproError) as exc:
                self._counters["bad_requests"] += 1
                return 400, _error_body(400, str(exc), type(exc).__name__), {}
            request_timeout = params["timeout"]
            self._canon_memo[digest] = (key, request_timeout)
            while len(self._canon_memo) > _CANON_MEMO_MAX:
                self._canon_memo.popitem(last=False)

        index = shard_for_key(key, len(self._shards))
        budget = (request_timeout if request_timeout is not None
                  else self.timeout)

        cached = await loop.run_in_executor(None, self.cache.get, key)
        if cached is not None:
            self._counters["requests_ok"] += 1
            return 200, cached, self._headers(
                key, index, "hit", "none", loop.time() - started)

        task = self._inflight.get(key)
        if task is not None:
            # Coalesce: somebody is already computing this exact key —
            # join them.  Joins bypass drain refusal (the work already
            # exists) and shed-load (they add no shard load).
            coalesced = "joined"
            self._counters["coalesced_requests"] += 1
            self._tracer.event("coalesce_join", key=key, shard=index)
        else:
            if self._draining:
                self._counters["rejected_draining"] += 1
                return 503, _error_body(
                    503, "gateway is draining and no longer accepts work"), {}
            shed = self._shed_check(index)
            if shed is not None:
                return shed
            coalesced = "leader"
            self._tracer.event("shard_route", key=key, shard=index)
            task = loop.create_task(
                self._compute(kind, key, raw_body, index, budget))
            self._inflight[key] = task
            task.add_done_callback(
                lambda _task, _key=key: self._inflight.pop(_key, None))

        # Shield: this requester's deadline must not cancel a shared
        # computation other requesters are waiting on.
        remaining = (None if budget is None
                     else max(budget - (loop.time() - started), 0.0))
        try:
            status, body, extra = await asyncio.wait_for(
                asyncio.shield(task), remaining)
        except asyncio.TimeoutError:
            self._counters["request_timeouts"] += 1
            return 504, _error_body(
                504, f"request exceeded its {budget:g} s budget"), {}
        if status == 200:
            self._counters["requests_ok"] += 1
        elif status >= 500:
            self._counters["requests_failed"] += 1
        headers = self._headers(key, index, "miss", coalesced,
                                loop.time() - started)
        headers.update(extra)
        return status, body, headers

    def _canonicalize(self, raw_body: bytes, kind: str):
        """Parse + content-address a request body — the daemon's own
        parsers, so the gateway can never route on a different identity
        than the shard caches under."""
        if kind == "sta":
            params = parse_sta_request(raw_body)
            key = sta_request_key(
                params["design"], params["k"], params["corners"],
                params["interconnect"], library=params["library"])
        elif kind == "sweep":
            params = parse_sweep_request(raw_body)
            deck = parse_netlist(params["deck"])
            key = sweep_request_key(deck.circuit, deck.stimuli,
                                    params["plan"])
        else:
            params = parse_analyze_request(raw_body)
            deck = parse_netlist(params["deck"])
            if params["reduce"] is None:
                params["reduce"] = self.default_reduce
            key = request_key(
                deck.circuit, deck.stimuli, params["nodes"],
                order=params["order"], error_target=params["error_target"],
                max_order=params["max_order"], threshold=params["threshold"],
                reduce=params["reduce"])
        return key, params

    def _shed_check(self, index: int):
        """Degraded-mode shed-load: while a shard is suspected dead,
        admit one canary and refuse the rest immediately."""
        health = self._health[index]
        if not health["degraded"]:
            return None
        if not health["probing"]:
            health["probing"] = True  # this request becomes the canary
            return None
        self._counters["rejected_degraded"] += 1
        self._tracer.event("gateway_shed", shard=index)
        return 503, _error_body(
            503, f"shard {index} is degraded; shedding load while one "
                 "canary request probes recovery"), {
            "Retry-After": "1", "X-Repro-Shard": str(index)}

    async def _compute(self, kind: str, key: str, raw_body: bytes,
                       index: int, budget: float | None):
        """The coalesced computation: forward to the owning shard,
        respawn-and-retry on transport death, write the clean result
        through the gateway cache.  Returns a triple, never raises —
        a shared task that raised would poison every joined waiter.
        """
        shard = self._shards[index]
        health = self._health[index]
        path = {"sta": "/sta", "sweep": "/sweep"}.get(kind, "/analyze")
        plan = faults.active()
        loop = asyncio.get_running_loop()
        last_error = None
        for attempt in range(FORWARD_ATTEMPTS):
            if (plan.enabled and shard.owned and plan.fire("shard_crash")):
                # The injected campaign: hard-kill the target just
                # before forwarding, so this very request exercises the
                # detect → respawn → retry path.  The per-shard lock
                # keeps the kill from interleaving with a respawn another
                # request is already running.
                self._counters["faults_injected"] += 1
                self._tracer.event("shard_crash_injected", shard=index)
                async with self._respawn_locks[index]:
                    await loop.run_in_executor(None, shard.kill)
            host, port = shard.address
            try:
                status, shard_headers, body = await _http_post(
                    host, port, path, raw_body, budget)
            except (OSError, EOFError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as exc:
                last_error = exc
                self._counters["shard_errors"] += 1
                if shard.owned:
                    # Serialize respawns: when several forwards hit the
                    # same dead shard, the first one revives it and the
                    # rest re-check under the lock and just retry —
                    # without this, concurrent respawns would race on
                    # the process handle and leak an orphan child.
                    spawn_failed = False
                    async with self._respawn_locks[index]:
                        if not shard.alive():
                            try:
                                await loop.run_in_executor(
                                    None, shard.respawn)
                            except Exception as spawn_exc:
                                last_error = spawn_exc
                                spawn_failed = True
                            else:
                                self._counters["shard_restarts"] += 1
                                health["restarts"] = shard.restarts
                                self._tracer.event(
                                    "shard_restart", shard=index,
                                    restarts=shard.restarts)
                    if spawn_failed:
                        break
                continue
            self._note_shard_ok(index)
            health["requests"] += 1
            extra = {name.title(): value
                     for name, value in shard_headers.items()
                     if name in _PROPAGATED_HEADERS}
            if status == 200:
                await loop.run_in_executor(
                    None, self._store_clean, kind, key, body)
            return status, body, extra
        self._note_shard_error(index)
        return 503, _error_body(
            503, f"shard {index} unavailable after {FORWARD_ATTEMPTS} "
                 f"attempts: {last_error}"), {"Retry-After": "1"}

    def _store_clean(self, kind: str, key: str, body: bytes) -> None:
        """Cache a 200 body — but only a *clean* one: an analyze report
        whose jobs partly failed is environmental (a timeout under
        load) and must stay cheap to retry, mirroring the daemon."""
        if kind == "analyze":
            try:
                document = json.loads(body)
                failed = document.get("totals", {}).get("jobs_failed")
            except ValueError:
                return
            if failed != 0:
                return
        self.cache.put(key, body)

    # -- shard health --------------------------------------------------

    def _note_shard_ok(self, index: int) -> None:
        health = self._health[index]
        if health["degraded"]:
            self._tracer.event("shard_recovered", shard=index)
        health["consecutive_errors"] = 0
        health["degraded"] = False
        health["probing"] = False

    def _note_shard_error(self, index: int) -> None:
        health = self._health[index]
        health["errors"] += 1
        health["consecutive_errors"] += 1
        health["probing"] = False
        if (not health["degraded"]
                and health["consecutive_errors"] >= self.degraded_threshold):
            health["degraded"] = True
            self._tracer.event("shard_degraded", shard=index)

    async def _inject_http_fault(self, plan):
        """Gateway-boundary fault probes, mirroring the daemon's."""
        if plan.fire("http_timeout"):
            self._counters["faults_injected"] += 1
            await asyncio.sleep(plan.arg("http_timeout", 1.0))
        if plan.fire("http_429"):
            self._counters["faults_injected"] += 1
            return 429, _error_body(
                429, "injected fault: queue pressure, retry later"), {
                "Retry-After": f"{plan.arg('http_429', 0.05):g}",
                "X-Repro-Fault": "http_429"}
        if plan.fire("http_503"):
            self._counters["faults_injected"] += 1
            return 503, _error_body(
                503, "injected fault: gateway momentarily unavailable"), {
                "Retry-After": f"{plan.arg('http_503', 0.05):g}",
                "X-Repro-Fault": "http_503"}
        return None

    @staticmethod
    def _headers(key: str, index: int, cache_state: str, coalesced: str,
                 elapsed: float) -> dict:
        return {
            "X-Repro-Cache": cache_state,
            "X-Repro-Key": key,
            "X-Repro-Shard": str(index),
            "X-Repro-Coalesced": coalesced,
            "X-Repro-Elapsed-S": f"{elapsed:.6f}",
        }

    # -- introspection -------------------------------------------------

    def healthz(self):
        """``GET /healthz``: 503 while draining or with every shard
        degraded (a partially degraded fleet still serves — routing
        around one shard is the load balancer's job one level up)."""
        degraded = [health["degraded"] for health in self._health]
        if self._draining:
            status, state = 503, "draining"
        elif degraded and all(degraded):
            status, state = 503, "degraded"
        else:
            status, state = 200, "ok"
        payload = {
            "status": state,
            "shards": len(self._shards),
            "shards_degraded": sum(degraded),
            "inflight_keys": len(self._inflight),
            "uptime_s": round(time.monotonic() - self._started_at, 6),
        }
        return status, (json.dumps(payload) + "\n").encode("utf-8")

    def metrics(self) -> dict:
        """``GET /metrics``: gateway counters, per-shard health, and the
        gateway-tier cache stats (shard-tier counters live in each
        shard's own ``/metrics``)."""
        document = {
            "gateway": True,
            "uptime_s": round(time.monotonic() - self._started_at, 6),
            "shards": len(self._shards),
            "draining": self._draining,
            "inflight_keys": len(self._inflight),
            **self._counters,
            **self.cache.stats(),
            "shard_health": [
                {
                    "url": shard.url,
                    "alive": shard.alive(),
                    "owned": shard.owned,
                    **{name: value for name, value in health.items()
                       if name != "probing"},
                }
                for shard, health in zip(self._shards, self._health)
            ],
        }
        plan = faults.active()
        if plan.enabled:
            document["faults"] = plan.stats()
        return document


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class GatewayServer:
    """One gateway instance: a :class:`GatewayService` behind asyncio
    HTTP, runnable from synchronous code (tests, docs, the CLI).

    The event loop runs on a background thread; :meth:`start` blocks
    until the port is bound, so::

        with GatewayServer(shard_urls=[daemon.url]) as gateway:
            client = AnalysisClient(gateway.url)   # the daemon client,
            ...                                    # unchanged
    """

    def __init__(self, shards: int = 2, host: str = "127.0.0.1",
                 port: int = 0, **service_options):
        self.service = GatewayService(shards, **service_options)
        self._host = host
        self._port = port
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._address: tuple | None = None

    # -- addressing ----------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("gateway is not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "GatewayServer":
        if self._thread is not None:
            return self
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run, name="repro-gateway", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            await self.service.start()
            server = await asyncio.start_server(
                self._handle, self._host, self._port)
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            await self.service.close()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop.wait()
            server.close()
            await server.wait_closed()
        await self.service.close()

    def begin_drain(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.service.begin_drain)

    def close(self, timeout: float | None = 60.0) -> None:
        """Drain, stop the listener, terminate the shards, join."""
        if self._thread is None:
            return

        def _shutdown():
            self.service.begin_drain()

            async def _finish():
                await self.service.wait_drained()
                self._stop.set()

            self._loop.create_task(_finish())

        try:
            self._loop.call_soon_threadsafe(_shutdown)
        except RuntimeError:
            pass  # the loop already exited (e.g. a failed startup)
        self._thread.join(timeout)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the connection handler ----------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            status, body, headers = await self._respond(reader)
            head = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}",
                    "Content-Type: application/json",
                    f"Content-Length: {len(body)}",
                    "Connection: close"]
            head += [f"{name}: {value}" for name, value in headers.items()]
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
            writer.write(body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # the client went away; nothing to tell anybody
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _respond(self, reader):
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, _error_body(400, "malformed request line"), {}
        method, path = parts[0], parts[1]
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise ConnectionError("connection closed inside headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        if method == "GET":
            if path == "/healthz":
                status, body = self.service.healthz()
                return status, body, {}
            if path == "/metrics":
                body = (json.dumps(self.service.metrics(), indent=2)
                        + "\n").encode("utf-8")
                return 200, body, {}
            return 404, _error_body(
                404, f"unknown path {path!r}; endpoints: POST /analyze, "
                     "POST /sta, POST /sweep, GET /healthz, "
                     "GET /metrics"), {}
        if method != "POST":
            return 405, _error_body(405, f"method {method} not allowed"), {}
        if path not in ("/analyze", "/sta", "/sweep"):
            return 404, _error_body(
                404, f"unknown path {path!r}; POST /analyze, POST /sta, "
                     "or POST /sweep"), {}
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            return 411, _error_body(411, "Content-Length required"), {}
        if length > MAX_BODY_BYTES:
            return 413, _error_body(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"), {}
        raw = await reader.readexactly(length)
        kind = path.lstrip("/")
        return await self.service.submit(raw, kind=kind)


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def serve_gateway(host: str = "127.0.0.1", port: int = 8050, *,
                  shards: int = 4, cache_bytes: int = 64 * 1024 * 1024,
                  cache_dir: str | None = None,
                  timeout: float | None = None,
                  degraded_threshold: int = 3,
                  default_reduce: bool = False,
                  shard_engine_workers: int = 1,
                  shard_queue_size: int = 64,
                  fault_spec: str | None = None, fault_seed: int = 0,
                  announce=None, install_signals: bool = True) -> int:
    """Blocking gateway entry point (``python -m repro gateway``).

    ``fault_spec`` installs a plan in the *gateway* process
    (``shard_crash`` and the HTTP boundary probes live here); shards are
    spawned fault-free regardless — see :mod:`repro.gateway.shards`.
    ``announce`` is called with the bound server; SIGTERM/SIGINT drain.
    The handlers go in first: a supervisor may signal as soon as it reads
    the announce line, and the default action would kill the gateway and
    orphan its shards.
    """
    if fault_spec:
        faults.install(faults.FaultPlan.parse(fault_spec, seed=fault_seed))
    stopping = threading.Event()
    if install_signals:
        def _on_signal(signum, frame):
            stopping.set()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    server = GatewayServer(
        shards, host=host, port=port, cache_bytes=cache_bytes,
        cache_dir=cache_dir, timeout=timeout,
        degraded_threshold=degraded_threshold,
        default_reduce=default_reduce,
        shard_engine_workers=shard_engine_workers,
        shard_queue_size=shard_queue_size,
    )
    server.start()
    try:
        if announce is not None:
            announce(server)
        stopping.wait()
    finally:
        server.close()
    return 0


__all__ = ["FORWARD_ATTEMPTS", "GatewayServer", "GatewayService",
           "serve_gateway"]
