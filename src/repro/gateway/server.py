"""The sharded gateway: one front door over N analysis daemons.

The daemon (:mod:`repro.service.server`) amortises work *within* one
process: hot in-process engines and a content-addressed cache.  This
module amortises across processes — the paper's "moments are cheap once
factored" economics applied to a fleet::

    clients ──► gateway (the daemon's HTTP front, a thread per connection)
                  │ parse + canonical key        (repro.service.server)
                  │ tier-1 cache (memory LRU + shared disk)  hit ─► 200
                  │ in-flight key already computing?  join ──► fan-out
                  │ shard = key-affinity route   (repro.gateway.routing)
                  ▼
        shard 0 · shard 1 · … · shard N-1   (single-engine `repro serve`
                                             children, each with its own
                                             memory LRU over one shared
                                             disk cache directory)

The gateway runs the daemon's own :class:`~repro.service.server.ServerCore`
(request skeleton, counters, fault probes, drain, ``/healthz`` and
``/metrics``), its :data:`~repro.service.server.ENDPOINTS` table, its
:class:`~repro.service.server.Health` policy and its HTTP front.  What
is its own:

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
* **Self-healing** — a dead shard process (crash, OOM kill, or the
  ``shard_crash`` fault probe) is respawned and the request retried;
  the client sees the answer, not the obituary.  A shard that stops
  answering even so counts a failure on its
  :class:`~repro.service.server.Health`: after ``degraded_threshold`` in
  a row, requests routed to it are refused with 503 + ``Retry-After``
  except a single canary that probes recovery.
* **Graceful drain** — :meth:`GatewayService.begin_drain` refuses new
  work with 503 (cache hits are still served, and joiners may still
  attach to in-flight computations), waits out the in-flight
  computations, then SIGTERMs the shards, which drain themselves.

Everything observable carries headers: ``X-Repro-Cache`` (hit/miss),
``X-Repro-Key``, ``X-Repro-Shard``, ``X-Repro-Coalesced``
(leader/joined/none), ``X-Repro-Elapsed-S`` — and an optional
:class:`~repro.trace.Tracer` receives ``shard_route`` /
``coalesce_join`` / ``shard_restart`` / ``shard_crash_injected`` /
``gateway_shed`` / ``shard_degraded`` / ``shard_recovered`` events.

Stdlib only: the daemon's ``http.server`` front, and
``http.client`` for shard forwards — the same JSON protocol as the
daemon on the wire, so the existing
:class:`~repro.service.client.AnalysisClient` works against a gateway
unchanged.
"""

from __future__ import annotations

import collections
import hashlib
import http.client
import json
import socket
import threading
from concurrent import futures

from repro import faults
from repro.gateway.routing import shard_for_key
from repro.gateway.shards import AttachedShard, ShardProcess
from repro.service.cache import ResultCache
from repro.service.server import (
    ENDPOINTS,
    Health,
    HttpFront,
    ServerCore,
    canonicalize,
    error_body,
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


def _forward(address, path: str, body: bytes, timeout: float | None):
    """One ``POST`` to a shard over a fresh connection (shard forwards
    are infrequent relative to their analysis cost, so connection reuse
    buys nothing worth its failure modes): ``(status, headers, body)``."""
    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        connection.request("POST", path, body,
                           {"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.getheaders(), response.read()
    finally:
        connection.close()


def _each(call, shards) -> list:
    """``call(shard)`` for every shard at once (a spawn takes about a
    second, so a serial fleet start would scale with its size)."""
    with futures.ThreadPoolExecutor(max(len(shards), 1)) as pool:
        return list(pool.map(call, shards))


class GatewayService(ServerCore):
    """The gateway's core: routing, caching, coalescing, shard health.

    Thread-safe: every request runs on its own HTTP handler thread.  The
    first request for a key (the leader) forwards it; identical requests
    arriving meanwhile join that *flight* and wait for its answer, each
    within its own budget.

    Parameters
    ----------
    shards:
        Worker-daemon count to spawn (each a single-engine
        ``repro serve`` child).  Ignored when ``shard_urls`` is given.
    shard_urls:
        Attach mode: route to these already-running daemons instead of
        spawning children (tests and docs attach in-process
        :class:`~repro.service.server.ServiceServer` instances).
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
    shard_queue_size:
        ``--queue-size`` of each spawned shard.
    tracer:
        Optional :class:`~repro.trace.Tracer` receiving gateway events.
    """

    name = "gateway"

    def __init__(self, shards: int = 2, *, shard_urls=None,
                 cache_bytes: int = 64 * 1024 * 1024,
                 cache_dir: str | None = None,
                 timeout: float | None = None,
                 degraded_threshold: int = 3,
                 shard_queue_size: int = 64,
                 tracer=None):
        if shard_urls is None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards!r}")
        super().__init__(
            ResultCache(max_bytes=cache_bytes, directory=cache_dir),
            timeout,
            counters=("rejected_degraded", "coalesced_requests",
                      "shard_errors", "shard_restarts", "canon_memo_hits"))
        if shard_urls is not None:
            self._shards = [AttachedShard(url) for url in shard_urls]
        else:
            self._shards = [
                ShardProcess(index, queue_size=shard_queue_size,
                             cache_dir=cache_dir)
                for index in range(shards)]
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._health = [Health(degraded_threshold) for _ in self._shards]
        self._respawn_locks = [threading.Lock() for _ in self._shards]
        self._inflight: dict[str, futures.Future] = {}
        self._canon_memo: collections.OrderedDict = collections.OrderedDict()
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "GatewayService":
        """Spawn the owned shard fleet (attached shards need nothing);
        idempotent."""
        if self._started:
            return self
        owned = [shard for shard in self._shards if shard.owned]
        try:
            _each(ShardProcess.spawn, owned)
        except BaseException:
            _each(ShardProcess.terminate, owned)
            raise
        self._started = True
        return self

    @property
    def shards(self) -> tuple:
        """The shard fleet (read-only view; ShardProcess/AttachedShard)."""
        return tuple(self._shards)

    def close(self, timeout: float | None = 60.0) -> None:
        """Drain, then stop owned shard processes (SIGTERM, they drain
        themselves, SIGKILL as a last resort)."""
        self.begin_drain()
        self.wait_drained(timeout)
        _each(lambda shard: shard.terminate(timeout), self._shards)
        self._started = False

    # -- the request path ----------------------------------------------

    def _canonicalize(self, raw_body: bytes, kind: str):
        """The daemon's own parser and key function, memoized by the raw
        body's digest: the first copy of a body parses it while identical
        copies arriving meanwhile wait for its answer.  Only the key and
        the budget are kept of the parsed request."""
        digest = hashlib.sha256(kind.encode() + b"\x00" + raw_body).digest()
        with self._lock:
            memo = self._canon_memo.get(digest)
            parse = memo is None
            if parse:
                memo = self._canon_memo[digest] = futures.Future()
                while len(self._canon_memo) > _CANON_MEMO_MAX:
                    self._canon_memo.popitem(last=False)
            else:
                self._canon_memo.move_to_end(digest)
                self._counters["canon_memo_hits"] += 1
        if parse:
            try:
                key, params = canonicalize(kind, raw_body)
            except Exception as exc:  # every waiting copy gets the 400 too
                with self._lock:
                    self._canon_memo.pop(digest, None)  # refused: not kept
                memo.set_exception(exc)
            else:
                memo.set_result((key, {"timeout": params["timeout"]}))
        return memo.result()

    def _dispatch(self, kind, raw_body, key, params, started, budget):
        index = shard_for_key(key, len(self._shards))
        with self._idle:
            flight = self._inflight.get(key)
            joined = flight is not None
            if joined:
                # Coalesce: somebody is already computing this exact key —
                # join them.  Joins bypass drain refusal (the work already
                # exists) and shed-load (they add no shard load).
                self._counters["coalesced_requests"] += 1
            elif (cached := self.cache.memory_hit(key)) is not None:
                # Our cache lookup missed just before the key's leader
                # finished: its flight is gone, and the body it wrote
                # through answers us (memory only, under the lock).
                self._counters["requests_ok"] += 1
                return 200, cached, self._headers(key, "hit", started)
            elif self.draining:
                self._counters["rejected_draining"] += 1
                return 503, error_body(
                    503, "gateway is draining and no longer accepts work"), {}
            elif (canary := self._health[index].admit()) is None:
                self._counters["rejected_degraded"] += 1
                self._tracer.event("gateway_shed", shard=index)
                return 503, error_body(
                    503, f"shard {index} is degraded; shedding load while "
                         "one canary request probes recovery"), {
                    "Retry-After": "1", "X-Repro-Shard": str(index)}
            else:
                # Running from the start: a waiter's timeout must never
                # cancel a computation other waiters share.
                flight = self._inflight[key] = futures.Future()
                flight.set_running_or_notify_cancel()
                self._in_flight += 1
        if joined:
            self._tracer.event("coalesce_join", key=key, shard=index)
            return self._wait(flight, key, started, budget,
                              coalesced="joined")
        # The leader forwards on its own thread; its budget bounds the
        # forward's socket operations, and joiners wait with their own.
        self._tracer.event("shard_route", key=key, shard=index)
        self._fly(flight, kind, key, raw_body, index, budget, canary)
        return self._wait(flight, key, started, budget, coalesced="leader")

    def _headers(self, key, cache_state, started, coalesced="none"):
        headers = super()._headers(key, cache_state, started)
        headers["X-Repro-Shard"] = str(shard_for_key(key, len(self._shards)))
        headers["X-Repro-Coalesced"] = coalesced
        return headers

    def _fly(self, flight, kind, key, raw_body, index, budget,
             canary) -> None:
        try:
            result = self._compute(kind, key, raw_body, index, budget, canary)
        except Exception as exc:  # raised in every waiter, none left hanging
            self._health[index].record(None, canary)  # nor the slot held
            flight.set_exception(exc)
        else:
            # Answer the waiters before the write-through: the flight
            # stays listed until the cache holds the body, so a copy
            # arriving meanwhile joins it rather than forwarding again.
            flight.set_result(result)
            if result[3]:
                self.cache.put(key, result[1])
        finally:
            with self._idle:
                del self._inflight[key]
                self._in_flight -= 1
                self._idle.notify_all()

    def _compute(self, kind, key, raw_body, index, budget, canary):
        """The coalesced computation: forward to the owning shard, and
        respawn-and-retry on transport death.  Returns ``(status, body,
        headers, clean)``; :meth:`_fly` writes a clean body through the
        gateway cache."""
        shard = self._shards[index]
        plan = faults.active()
        last_error = None
        for _attempt in range(FORWARD_ATTEMPTS):
            if plan.enabled and shard.owned and plan.fire("shard_crash"):
                # The injected campaign: hard-kill the target just
                # before forwarding, so this very request exercises the
                # detect → respawn → retry path.  The per-shard lock
                # keeps the kill from interleaving with a respawn another
                # request is already running.
                self._count("faults_injected")
                self._tracer.event("shard_crash_injected", shard=index)
                with self._respawn_locks[index]:
                    shard.kill()
            try:
                status, headers, body = _forward(
                    shard.address, f"/{kind}", raw_body, budget)
            except socket.timeout:
                # The budget ran out, which says nothing about the
                # shard's health: no retry, no failure on its record.
                self._settle(index, None, canary)
                return 504, error_body(
                    504, f"request exceeded its {budget:g} s budget"), {}, False
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                self._count("shard_errors")
                if not shard.owned:
                    continue
                # Serialize respawns: when several forwards hit the same
                # dead shard, the first one revives it and the rest
                # re-check under the lock and just retry — without this,
                # concurrent respawns would race on the process handle
                # and leak an orphan child.
                with self._respawn_locks[index]:
                    if shard.alive():
                        continue
                    try:
                        shard.respawn()
                    except (OSError, RuntimeError) as spawn_exc:
                        last_error = spawn_exc
                        break
                self._count("shard_restarts")
                self._tracer.event("shard_restart", shard=index,
                                   restarts=shard.restarts)
                continue
            rule = ENDPOINTS[kind].clean
            clean = status == 200 and (rule is None or rule(json.loads(body)))
            self._settle(index, False, canary)
            return status, body, {
                name.title(): value for name, value in headers
                if name.lower() in _PROPAGATED_HEADERS}, clean
        self._settle(index, True, canary)
        return 503, error_body(
            503, f"shard {index} unavailable after {FORWARD_ATTEMPTS} "
                 f"attempts: {last_error}"), {"Retry-After": "1"}, False

    def _settle(self, index: int, failed: bool | None, canary) -> None:
        change = self._health[index].record(failed, canary)
        if change is not None:
            self._tracer.event(f"shard_{change}", shard=index)

    # -- introspection -------------------------------------------------

    def _health_fields(self):
        """503 ``degraded`` only with every shard degraded (a partially
        degraded fleet still serves — routing around one shard is the
        load balancer's job one level up)."""
        degraded = [health.degraded for health in self._health]
        return bool(degraded) and all(degraded), {
            "shards": len(self._shards),
            "shards_degraded": sum(degraded),
            "inflight_keys": len(self._inflight),
        }

    def _metrics_fields(self) -> dict:
        """Per-shard health next to the gateway counters (shard-tier
        counters live in each shard's own ``/metrics``)."""
        return {
            "gateway": True,
            "shard_health": [
                {"url": shard.url, "alive": shard.alive(),
                 "owned": shard.owned, "requests": health.successes,
                 "errors": health.failures,
                 "consecutive_errors": health.consecutive,
                 "degraded": health.degraded, "restarts": shard.restarts}
                for shard, health in zip(self._shards, self._health)
            ],
        }


class GatewayServer(HttpFront):
    """One gateway instance: a :class:`GatewayService` behind the
    daemon's HTTP front, runnable from synchronous code (tests, docs,
    the CLI).  :meth:`start` returns once the shards are up, so::

        with GatewayServer(shard_urls=[daemon.url]) as gateway:
            client = AnalysisClient(gateway.url)   # the daemon client,
            ...                                    # unchanged
    """

    #: The fleet's front door: a herd of concurrent clients must not wait
    #: out SYN retransmits.
    backlog = 128

    def __init__(self, shards: int = 2, host: str = "127.0.0.1",
                 port: int = 0, **service_options):
        super().__init__(GatewayService(shards, **service_options), host, port)


def serve_gateway(host: str = "127.0.0.1", port: int = 8050, *,
                  shards: int = 4, cache_bytes: int = 64 * 1024 * 1024,
                  cache_dir: str | None = None,
                  timeout: float | None = None,
                  degraded_threshold: int = 3,
                  shard_queue_size: int = 64,
                  fault_spec: str | None = None, fault_seed: int = 0,
                  announce=None) -> int:
    """Blocking gateway entry point (``python -m repro gateway``).

    ``fault_spec`` installs a plan in the *gateway* process
    (``shard_crash`` and the HTTP boundary probes live here); shards are
    spawned fault-free regardless — see :mod:`repro.gateway.shards`.
    ``announce`` is called with the server once its shards are up;
    SIGTERM/SIGINT drain (see :meth:`HttpFront.serve_forever`).
    """
    if fault_spec:
        faults.install(faults.FaultPlan.parse(fault_spec, seed=fault_seed))
    GatewayServer(
        shards, host=host, port=port, cache_bytes=cache_bytes,
        cache_dir=cache_dir, timeout=timeout,
        degraded_threshold=degraded_threshold,
        shard_queue_size=shard_queue_size,
    ).serve_forever(announce=announce)
    return 0


__all__ = ["FORWARD_ATTEMPTS", "GatewayServer", "GatewayService",
           "serve_gateway"]
