"""``repro loadgen``: seeded request mixes driven at fixed concurrency.

The gateway's throughput claims are meaningless without a reproducible
way to produce load, so this module is the benchmark harness *and* the
CLI driver behind ``benchmarks/test_ext_gateway_scaling.py`` and the CI
smoke job.  Three mix shapes cover the design's two mechanisms:

* ``miss`` — every request a distinct seeded deck: pure cache-miss
  traffic, the scale-out case (N shards ≈ N engines' worth of RPS on a
  multi-core host);
* ``hot`` — requests arrive in *rounds* of identical decks, one fresh
  deck per round: each round is a thundering herd on an uncached key,
  the coalescing case (the gateway computes once per round and fans
  out; a single daemon computes every copy);
* ``mixed`` — alternating rounds of both, the realistic blend.

Decks are generated from the seed alone (seeded RC ladders via
:func:`seeded_chain_deck`), so the same ``(mix, requests, concurrency,
seed)`` tuple replays the same byte-identical request stream anywhere —
mixes compare across machines and across code versions.

The driver is deliberately the *production* client
(:class:`~repro.service.client.AnalysisClient`, one per worker thread):
measured latency includes the client's full framing and retry stack,
which is what a real caller pays.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.service.client import AnalysisClient

MIXES = ("miss", "hot", "mixed")


def seeded_chain_deck(seed: int, sections: int = 4) -> tuple[str, str]:
    """A deterministic RC-ladder deck for ``seed``; returns
    ``(deck_text, output_node)``.  Distinct seeds give distinct element
    values and therefore distinct canonical request keys."""
    if sections < 1:
        raise ValueError(f"sections must be >= 1, got {sections!r}")
    rng = random.Random(f"loadgen:{seed}")
    lines = [f"loadgen chain seed={seed}", "Vin in 0 STEP(0 5)"]
    previous = "in"
    for stage in range(1, sections + 1):
        node = f"n{stage}"
        lines.append(
            f"R{stage} {previous} {node} {rng.uniform(0.5, 2.0):.6f}k")
        lines.append(f"C{stage} {node} 0 {rng.uniform(0.2, 1.5):.6f}p")
        previous = node
    lines.append(".end")
    return "\n".join(lines) + "\n", previous


def build_mix(mix: str, requests: int, *, concurrency: int = 8,
              seed: int = 0, sections: int = 4) -> list[dict]:
    """The ``/analyze`` payloads for a named mix (see module doc).

    ``hot``/``mixed`` rounds are sized to ``concurrency`` so that the
    identical copies of one deck are exactly the requests in flight
    together — the shape that exercises coalescing rather than the
    cache.
    """
    if mix not in MIXES:
        raise ValueError(f"mix must be one of {', '.join(MIXES)}, got {mix!r}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests!r}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency!r}")
    payloads: list[dict] = []
    base = seed * 1_000_003
    next_seed = 0
    round_index = 0
    while len(payloads) < requests:
        if mix == "miss":
            hot_round = False
        elif mix == "hot":
            hot_round = True
        else:
            hot_round = (round_index % 2 == 1)
        count = min(concurrency, requests - len(payloads))
        if hot_round:
            deck, node = seeded_chain_deck(base + next_seed,
                                           sections=sections)
            next_seed += 1
            payloads.extend({"deck": deck, "nodes": [node]}
                            for _ in range(count))
        else:
            for _ in range(count):
                deck, node = seeded_chain_deck(base + next_seed,
                                               sections=sections)
                next_seed += 1
                payloads.append({"deck": deck, "nodes": [node]})
        round_index += 1
    return payloads


def _percentile(sorted_values: list, fraction: float) -> float:
    """Linearly interpolated percentile of an ascending list.

    The convention is ``numpy.percentile(..., method="linear")``: the
    percentile sits at fractional rank ``fraction * (n - 1)`` and is
    interpolated between the two bracketing samples.  Nearest-rank
    truncation (the previous behaviour) is fine at n >= 100 but badly
    quantised below it — with 8 samples a p99 that snaps to the maximum
    overstates tail latency by whatever gap the last two samples have.
    """
    if not sorted_values:
        return 0.0
    position = min(1.0, max(0.0, fraction)) * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def run_loadgen(url: str, payloads: list, *, concurrency: int = 8,
                retries: int = 2, timeout: float = 120.0) -> dict:
    """Drive ``payloads`` (``/analyze`` request objects) against ``url``
    with ``concurrency`` worker threads; returns the measurement
    document (JSON-friendly).

    Rounds of identical payloads are submitted back to back, so on a
    gateway they coalesce; ``failures`` lists every request that did not
    come back 200 even after the client's retries — the number the
    crash-campaign acceptance criterion requires to be zero.
    """
    local = threading.local()

    def client() -> AnalysisClient:
        if not hasattr(local, "client"):
            local.client = AnalysisClient(url, timeout=timeout,
                                          retries=retries)
        return local.client

    latencies_s = [0.0] * len(payloads)
    cache_hits = [False] * len(payloads)
    failures: list = []
    failures_lock = threading.Lock()

    def one(index: int) -> None:
        payload = payloads[index]
        started = time.perf_counter()
        try:
            outcome = client().call("analyze", payload)
            cache_hits[index] = outcome.cached
            ok = outcome.document["totals"]["jobs_failed"] == 0
            detail = None if ok else "report contains failed jobs"
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        latencies_s[index] = time.perf_counter() - started
        if not ok:
            with failures_lock:
                failures.append({"index": index, "error": detail})

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        # Start every worker before the clock: the pool starts its
        # threads one at a time as work arrives, which would spread the
        # first round's copies over that ramp-up.
        ready = threading.Barrier(concurrency + 1)
        for _ in range(concurrency):
            pool.submit(ready.wait)
        ready.wait()
        started = time.perf_counter()
        list(pool.map(one, range(len(payloads))))
    elapsed = time.perf_counter() - started

    ordered = sorted(latencies_s)
    return {
        "url": url,
        "requests": len(payloads),
        "concurrency": concurrency,
        "elapsed_s": round(elapsed, 6),
        "rps": round(len(payloads) / elapsed, 3) if elapsed > 0 else 0.0,
        "p50_ms": round(_percentile(ordered, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(ordered, 0.99) * 1e3, 3),
        "max_ms": round((ordered[-1] if ordered else 0.0) * 1e3, 3),
        "cache_hits": sum(cache_hits),
        "failures": failures,
        "failed": len(failures),
    }


def coalesced_delta(before: dict, after: dict) -> int:
    """The gateway's ``coalesced_requests`` movement between two
    ``/metrics`` snapshots (0 against a plain daemon, which has no such
    counter — a loadgen target need not be a gateway)."""
    return (after.get("coalesced_requests", 0)
            - before.get("coalesced_requests", 0))


__all__ = ["MIXES", "build_mix", "coalesced_delta", "run_loadgen",
           "seeded_chain_deck"]
