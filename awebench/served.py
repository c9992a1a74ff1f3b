"""The ``serve`` workload: ``python -m repro gateway --shards 2`` driven
over plain HTTP from this one process, with at most two connections.

The program is reached only through its command line and HTTP: the
announce line, ``GET /healthz``, ``GET /metrics`` (the gateway's and, via
the shard URLs it lists, each shard's), the ``X-Repro-*`` response
headers, and a SIGTERM drain that must exit 0.

Phases, after a short warm-up on keys the schedule never uses:

* **open loop** — the first ``OPEN_RATE * OPEN_SHARE * seconds`` requests,
  each due at a fixed rate; latency is timed from when a request was due,
  so a stall also charges the requests queued behind it;
* **closed loop** — the following requests, sent back to back on two
  connections for the rest of ``seconds``; this gives the capacity.

Every 200 answer is then compared with the in-process result of the same
request body.
"""

from __future__ import annotations

import argparse
import http.client
import json
import queue
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from urllib.parse import urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import gen  # noqa: E402

SHARDS = 2
CONNECTIONS = gen.SERVE_ROUND

#: The gateway's capacity as first sized for this workload: about 75
#: requests per second at 2 connections and 2 shards on a 2-core x86-64
#: host, with ``repro loadgen``'s small four-section ladder decks.
SIZED_CAPACITY_RPS = 75.0

#: Offered rate of the open-loop phase: a tenth of that capacity, so the
#: phase measures the latency of a lightly loaded service.  Requests of
#: this mix cost more than the sizing decks (its closed-loop capacity is
#: about 25-30 requests per second on that host), so the open loop keeps
#: the service about a quarter busy.
OPEN_RATE = 0.1 * SIZED_CAPACITY_RPS

#: The open-loop sender spins for this long before each due time.
SPIN_S = 0.002

#: Share of ``--seconds`` given to the open-loop phase; the closed loop
#: gets the rest.  At 24 s this leaves 108 open-loop samples, so 10 lie
#: beyond the p90.
OPEN_SHARE = 0.6

#: Warm-up requests before the timed phases (one schedule block).
WARMUP = gen.SERVE_BLOCK_SIZE

#: Gateway spawns per run; the median is ``setup_s``.
SETUPS = 3

ANNOUNCE = "repro gateway listening on "
SPAWN_TIMEOUT_S = 90.0
DRAIN_TIMEOUT_S = 60.0

#: Pause between a healthy ``/healthz`` and the SIGTERM of a set-up
#: probe.  The gateway prints its announce line a moment before it
#: installs its SIGTERM handler; a signal in that window kills it outright
#: and orphans its shards, a start-up race this benchmark does not time.
SETTLE_S = 0.2
REQUEST_TIMEOUT_S = 60.0


def _http(address, method: str, path: str, body: bytes | None = None):
    """One request on a fresh connection: ``(status, headers, body)``."""
    connection = http.client.HTTPConnection(*address,
                                            timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        return response.status, {k.lower(): v for k, v in
                                 response.getheaders()}, payload
    finally:
        connection.close()


class Gateway:
    """One ``repro gateway`` child process, up and healthy."""

    def __init__(self, log_path: Path):
        log_path.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log_path, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--port", "0",
             "--shards", str(SHARDS)],
            cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE,
            stderr=self._log, text=True, start_new_session=True)
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=lambda: [lines.put(line) for line in self.proc.stdout],
            daemon=True)
        self._reader.start()
        url = None
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while url is None:
            try:
                line = lines.get(timeout=max(deadline - time.monotonic(), 0.01))
            except queue.Empty:
                self.kill()
                raise RuntimeError("gateway never announced its URL")
            if line.startswith(ANNOUNCE):
                url = line[len(ANNOUNCE):].strip()
        parts = urlsplit(url)
        self.address = (parts.hostname, parts.port)
        while True:
            status, _, body = _http(self.address, "GET", "/healthz")
            health = json.loads(body)
            if (status == 200 and health.get("shards") == SHARDS
                    and health.get("shards_degraded") == 0):
                break
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(f"gateway never became healthy: {health}")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - start

    def post(self, path: str, body: bytes):
        return _http(self.address, "POST", path, body)

    def metrics(self) -> dict:
        """The gateway's ``/metrics`` plus each shard's, under ``shards``."""
        _, _, body = _http(self.address, "GET", "/metrics")
        document = json.loads(body)
        document["shards"] = []
        for shard in document.get("shard_health", ()):
            parts = urlsplit(shard["url"])
            _, _, shard_body = _http((parts.hostname, parts.port), "GET",
                                     "/metrics")
            document["shards"].append(json.loads(shard_body))
        return document

    def processes(self) -> list[int]:
        """The gateway and its shards: its own process group."""
        return common.group_members(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return sum(common.peak_rss_mb(pid) for pid in self.processes())

    def drain(self) -> bool:
        """SIGTERM and wait: True when the gateway drained, exited 0 and
        left no shard behind."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        leftovers = common.stop_group(self.proc.pid)
        self.proc.wait()
        self._close()
        return code == 0 and not leftovers

    def kill(self) -> None:
        common.stop_group(self.proc.pid)
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        self._reader.join(5.0)
        self._log.close()


class Outcome:
    __slots__ = ("request", "due", "start", "end", "status", "headers",
                 "body", "error")

    def __init__(self, request, due):
        self.request, self.due = request, due
        self.start = self.end = 0.0
        self.status, self.headers, self.body, self.error = 0, {}, b"", None

    @property
    def ok(self) -> bool:
        return self.status == 200

    def server_s(self) -> float:
        return float(self.headers.get("x-repro-elapsed-s", "nan"))


def _send(gateway: Gateway, outcome: Outcome) -> None:
    outcome.start = time.perf_counter()
    try:
        outcome.status, outcome.headers, outcome.body = gateway.post(
            outcome.request.path, outcome.request.body)
    except (OSError, http.client.HTTPException) as exc:
        outcome.error = f"{type(exc).__name__} in transport"
    outcome.end = time.perf_counter()


def open_loop(gateway, requests, rate: float) -> list[Outcome]:
    """Send ``requests`` on a fixed schedule over two connections."""
    start = time.perf_counter() + 0.05
    outcomes = [Outcome(r, start + i / rate) for i, r in enumerate(requests)]
    cursor = iter(outcomes)
    lock = threading.Lock()

    def sender():
        while True:
            with lock:
                outcome = next(cursor, None)
            if outcome is None:
                return
            # Sleep, then spin the last moment: a sleeping thread wakes
            # late, and that lateness would count as latency.
            delay = outcome.due - time.perf_counter() - SPIN_S
            if delay > 0:
                time.sleep(delay)
            while time.perf_counter() < outcome.due:
                pass
            _send(gateway, outcome)

    _run_threads(sender)
    return outcomes


def closed_loop(gateway, requests, seconds: float) -> tuple[list, float]:
    """Two callers, each sending its next request when the last returns."""
    start = time.perf_counter()
    deadline = start + seconds
    outcomes = []
    cursor = iter(requests)
    lock = threading.Lock()

    def sender():
        while time.perf_counter() < deadline:
            with lock:
                request = next(cursor, None)
                if request is None:
                    return
                outcome = Outcome(request, None)
                outcomes.append(outcome)
            _send(gateway, outcome)

    _run_threads(sender)
    return outcomes, time.perf_counter() - start


def _run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _delta(after: dict, before: dict) -> dict:
    shards = lambda doc, key: sum(s.get(key, 0) for s in doc["shards"])  # noqa: E731
    lu = lambda doc: sum(s["solver"]["lu_factorizations"]  # noqa: E731
                         for s in doc["shards"])
    return {
        "gateway.shard_errors": after["shard_errors"] - before["shard_errors"],
        "gateway.shard_restarts":
            after["shard_restarts"] - before["shard_restarts"],
        "service.rejected_queue_full":
            shards(after, "rejected_queue_full")
            - shards(before, "rejected_queue_full"),
        "service.cache_misses":
            shards(after, "cache_misses") - shards(before, "cache_misses"),
        "service.lu_factorizations": lu(after) - lu(before),
    }


def reference_check(outcomes, traced: bool):
    """Compare every 200 answer with the in-process answer to the same
    body; optionally run the traced layer pass over the same bodies."""
    import checks

    common.import_repro()
    import calls

    distinct = {}
    for outcome in outcomes:
        if outcome.ok:
            distinct.setdefault(outcome.request.body, outcome.request)
    wanted = {}
    start = time.perf_counter()
    for body, request in distinct.items():
        try:
            wanted[body] = calls.E2E[request.path](body)[2]
        except calls.JobFailed as exc:  # the daemon reports it in a 200
            wanted[body] = exc.document
    untraced = time.perf_counter() - start
    wrong = Counter()
    problems = []
    for outcome in outcomes:
        if not outcome.ok:
            continue
        found = checks.same_answer(json.loads(outcome.body),
                                   wanted[outcome.request.body])
        if found:
            wrong[outcome.request.kind] += 1
            problems.append(f"{outcome.request.path} ({outcome.request.kind}):"
                            f" {found[0]}")
    layers = None
    if traced:
        layers = calls.Layers()
        for body, request in distinct.items():
            calls.TRACED[request.path](layers, body)
    return wrong, problems, untraced, layers


def run(args) -> dict:
    state = common.STATE / "serve"
    setups = []
    drains_failed = 0
    gateway = None
    for attempt in range(1 if args.trace else SETUPS):
        gateway = Gateway(state / f"gateway-{attempt}.log")
        setups.append(gateway.setup_s)
        if attempt < SETUPS - 1 and not args.trace:
            time.sleep(SETTLE_S)
            drains_failed += 0 if gateway.drain() else 1
    open_s = args.seconds * OPEN_SHARE
    closed_s = args.seconds - open_s
    n_open = int(OPEN_RATE * open_s)
    schedule = gen.serve_schedule(args.seed, n_open + int(200 * closed_s))
    try:
        # Warm both shards on every request kind with keys the schedule
        # never uses, so lazy imports land outside the timed phases.
        closed_loop(gateway, gen.serve_schedule(-1 - args.seed, WARMUP),
                    SPAWN_TIMEOUT_S)
        before = gateway.metrics()
        opened = open_loop(gateway, schedule[:n_open], OPEN_RATE)
        middle = gateway.metrics()
        closed, closed_s = closed_loop(gateway, schedule[n_open:], closed_s)
        rss = gateway.peak_rss_mb()
    except BaseException:
        gateway.kill()
        raise
    drained = gateway.drain()
    drains_failed += 0 if drained else 1

    everything = opened + closed
    wrong, problems, untraced, layers = reference_check(everything,
                                                        bool(args.trace))
    failures = Counter()
    for outcome in everything:
        if outcome.error:
            failures[outcome.error] += 1
        elif not outcome.ok:
            failures[f"HTTP {outcome.status} on {outcome.request.path}"] += 1
    if drains_failed:
        failures["SIGTERM drain did not exit 0"] += drains_failed
    for kind, count in wrong.items():
        failures[f"wrong answer on {kind}"] += count

    hot = [o for o in opened if o.request.kind == "hot"]
    hot_hits = sum(1 for o in hot if o.headers.get("x-repro-cache") == "hit"
                   or o.headers.get("x-repro-coalesced") == "joined")
    expected_hot = len(hot) - len({o.request.body for o in hot})
    drift = []
    if hot_hits != expected_hot:
        drift.append(f"serve.hot_hits {hot_hits}, but the schedule implies "
                     f"{expected_hot}")
    counts = {"serve.hot_hits": hot_hits, **{
        k: v for k, v in _delta(middle, before).items()
        if k in ("service.cache_misses", "service.lu_factorizations")}}
    drift += common.check_counts(f"serve{n_open}", args.seed, counts)

    return {
        "attempted": len(everything) + len(setups),
        "failed": sum(failures.values()),
        "wrong": sum(wrong.values()), "problems": problems[:20],
        "failures": dict(failures), "drift": drift,
        "open": [_record(o) for o in opened],
        "closed_ok": sum(1 for o in closed if o.ok), "closed_s": closed_s,
        "closed_all": [_record(o) for o in closed],
        "setups_s": setups, "peak_rss_mb": rss,
        "metrics_delta": _delta(middle, before),
        "counts": counts, "untraced_s": untraced,
        "layers": None if layers is None else {
            "seconds": dict(layers.seconds), "counts": dict(layers.counts),
            "samples": {k: list(v) for k, v in layers.samples.items()},
            "wall": layers.wall},
    }


def _record(outcome: Outcome) -> dict:
    failed = not outcome.ok
    return {
        "kind": outcome.request.kind, "path": outcome.request.path,
        "latency_s": (None if outcome.due is None else float("inf")
                      if failed else outcome.end - outcome.due),
        "service_s": float("inf") if failed else outcome.end - outcome.start,
        "late_s": None if outcome.due is None else outcome.start - outcome.due,
        "server_s": outcome.server_s() if not failed else None,
        "cache": outcome.headers.get("x-repro-cache"),
        "coalesced": outcome.headers.get("x-repro-coalesced"),
        "shard": outcome.headers.get("x-repro-shard"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.emit(run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
