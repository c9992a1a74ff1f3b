"""Sharded gateway: a key-routed scale-out front end for the analysis
service.

One daemon (:mod:`repro.service`) is one process and one cache.
This package puts a front door over N of them — the shards are the
unit of process parallelism — built on the daemon's own server core
(the endpoint table, the request skeleton, the health policy and the
stdlib HTTP front of :mod:`repro.service.server`):

* :mod:`repro.gateway.routing` — key-affinity placement: requests are
  routed by the same canonical SHA-256 request key that names their
  cache entry, so shard memory caches partition the key space with zero
  duplication and routing is stable across every restart;
* :mod:`repro.gateway.shards` — shard-process lifecycle: spawn
  ``repro serve`` children on ephemeral ports, kill and respawn them
  (the self-healing path), or attach to externally managed daemons;
* :mod:`repro.gateway.server` — the gateway itself:
  :class:`GatewayService` (canonicalization memo, two-tier cache,
  in-flight request coalescing, key-affinity forwarding with
  respawn-and-retry) behind :class:`GatewayServer`, the daemon's HTTP
  front — the same JSON protocol as the daemon, so
  :class:`~repro.service.client.AnalysisClient` works unchanged;
* :mod:`repro.gateway.loadgen` — ``repro loadgen``: seeded,
  replayable request mixes at fixed concurrency, measuring
  p50/p99/RPS (feeds ``BENCH_scaling.json`` ``gateway_scaling``).

Topology, coalescing semantics, and drain behaviour are documented in
``docs/service.md``; the API in ``docs/api.md``.
"""

from repro.gateway.loadgen import (MIXES, build_mix, coalesced_delta,
                                   run_loadgen, seeded_chain_deck)
from repro.gateway.routing import shard_for_key
from repro.gateway.server import (FORWARD_ATTEMPTS, GatewayServer,
                                  GatewayService, serve_gateway)
from repro.gateway.shards import AttachedShard, ShardProcess

__all__ = [
    "FORWARD_ATTEMPTS",
    "MIXES",
    "AttachedShard",
    "GatewayServer",
    "GatewayService",
    "ShardProcess",
    "build_mix",
    "coalesced_delta",
    "run_loadgen",
    "seeded_chain_deck",
    "serve_gateway",
    "shard_for_key",
]
