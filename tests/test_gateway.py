"""Tests for the sharded gateway (`repro.gateway`).

Three layers, mirroring the daemon's own suite: `GatewayService.submit`
driven directly from threads (coalescing and shed-load need controlled
concurrency), `GatewayServer` + the stock `AnalysisClient`
over real HTTP against attached in-process daemons, and spawn mode with
real `repro serve` child processes — including the worker-crash
campaign the acceptance criterion names: injected shard kills, zero
client-visible failures.
"""

import glob
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.gateway import (
    FORWARD_ATTEMPTS,
    GatewayServer,
    GatewayService,
    build_mix,
    run_loadgen,
    serve_gateway,
    shard_for_key,
)
from repro.report import validate_report
from repro.service import AnalysisClient, ServiceError, ServiceServer
from repro.trace import Tracer, iter_events

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FAST_DECK = """\
gateway fast deck
Vin in 0 STEP(0 5)
R1 in 1 1000
C1 1 0 1p
R2 1 2 2k
C2 2 0 0.5p
.end
"""

#: A deck slow enough (~100 ms) that concurrent identical requests
#: genuinely overlap the leader's computation.
SLOW_DECK = "slow chain\nVin in 0 STEP(0 5)\n" + "".join(
    f"R{i} {'in' if i == 1 else f'n{i-1}'} n{i} 1k\nC{i} n{i} 0 1p\n"
    for i in range(1, 60)
) + ".end\n"


def request_body(deck, nodes, **params):
    return json.dumps({"deck": deck, "nodes": list(nodes), **params}).encode()


def demo_design_dict(name="gw-demo"):
    return {
        "name": name,
        "inputs": [{"name": "i1", "net": "n_in", "arrival": 0.0,
                    "slew": 2e-11, "drive_resistance": 500.0}],
        "outputs": [{"name": "o1", "net": "n_out", "required": 5e-10,
                     "load": 4e-15}],
        "instances": [{"name": "u1", "cell": "INV_X1",
                       "connections": {"A": "n_in", "Y": "n_out"}}],
        "nets": [
            {"name": "n_in", "segments": []},
            {"name": "n_out", "segments": [
                {"a": "root", "b": "o1", "resistance": 200.0,
                 "capacitance": 15e-15}]},
        ],
    }


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def daemons():
    servers = [ServiceServer(port=0, workers=1).start() for _ in range(2)]
    yield servers
    for server in servers:
        server.close()


@pytest.fixture
def hang_up_shard():
    """A shard URL that accepts each connection and hangs up unanswered
    after a pause: every forward is a transport failure that takes long
    enough for concurrent requests to overlap it."""
    listener = socket.create_server(("127.0.0.1", 0))

    def hang_up():
        while True:
            try:
                connection, _ = listener.accept()
            except OSError:
                return  # the listener was closed
            threading.Timer(0.1, connection.close).start()

    threading.Thread(target=hang_up, daemon=True).start()
    yield f"http://127.0.0.1:{listener.getsockname()[1]}"
    listener.close()


@pytest.fixture
def gateway(daemons):
    server = GatewayServer(
        shard_urls=[daemon.url for daemon in daemons]).start()
    yield server
    server.close()


def run_together(submit, bodies):
    """Submit every body at once, one thread each: ``[(status, body,
    headers), ...]`` in input order."""
    with ThreadPoolExecutor(len(bodies)) as pool:
        return list(pool.map(submit, bodies))


# ----------------------------------------------------------------------
# GatewayService driven directly, with controlled concurrency
# ----------------------------------------------------------------------


class TestCoalescing:
    def test_identical_concurrent_keys_run_exactly_one_engine_execution(
            self, daemons, monkeypatch):
        """The tentpole invariant: a herd of identical requests costs one
        analysis.  Asserted three independent ways — the shard's own
        request/SolverStats counters, the gateway's coalescing counters,
        and the trace events."""
        herd = 8
        tracer = Tracer(name="gateway-test")
        target = daemons[0].service

        service = GatewayService(
            shard_urls=[daemons[0].url], tracer=tracer).start()

        def held_submit(raw, kind="analyze", submit=target.submit):
            # Threads are not scheduled in submission order: hold the
            # one computation until the whole herd has joined it.
            deadline = time.monotonic() + 30
            while (service.metrics()["coalesced_requests"] < herd - 1
                   and time.monotonic() < deadline):
                time.sleep(0.005)
            return submit(raw, kind)

        monkeypatch.setattr(target, "submit", held_submit)
        before = target.metrics()
        body = request_body(SLOW_DECK, ["n59"])
        results = run_together(service.submit, [body] * herd)
        after = target.metrics()
        metrics = service.metrics()

        # One engine execution: the daemon saw exactly one request, its
        # cache missed exactly once, and the solver actually ran.
        assert after["requests_total"] - before["requests_total"] == 1
        assert after["cache_misses"] - before["cache_misses"] == 1
        assert (after["solver"]["lu_factorizations"]
                > before["solver"]["lu_factorizations"])

        # Every requester got the same 200 body, fanned out.
        statuses = [status for status, _, _ in results]
        bodies = {body for _, body, _ in results}
        assert statuses == [200] * herd
        assert len(bodies) == 1
        coalesced_headers = sorted(
            headers["X-Repro-Coalesced"] for _, _, headers in results)
        assert coalesced_headers == ["joined"] * (herd - 1) + ["leader"]

        assert metrics["coalesced_requests"] == herd - 1
        assert metrics["requests_ok"] == herd

        events = [event["name"]
                  for _span, event in iter_events(tracer.to_record())]
        assert events.count("coalesce_join") == herd - 1
        assert events.count("shard_route") == 1

    def test_concurrent_copies_forward_and_parse_each_key_once(self, daemons):
        """Stress the shared flight table and canonicalization memo: five
        rounds of 64 threads over 8 fresh bodies, a near-zero switch
        interval.  A lost update would forward a key twice or parse a
        body twice."""
        service = GatewayService(shard_urls=[daemons[0].url]).start()
        statuses = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for first in range(0, 40, 8):
                bodies = [request_body(FAST_DECK, ["2"], threshold=0.1 * step)
                          for step in range(first + 1, first + 9)] * 8
                statuses += [status for status, _, _ in
                             run_together(service.submit, bodies)]
        finally:
            sys.setswitchinterval(previous)
        metrics = service.metrics()

        assert statuses == [200] * 320
        assert daemons[0].service.metrics()["requests_total"] == 40
        assert metrics["requests_ok"] == metrics["requests_total"] == 320
        assert metrics["canon_memo_hits"] == 280
        assert metrics["coalesced_requests"] + metrics["cache_hits"] == 280

    def test_copy_missing_the_cache_as_its_leader_lands_is_a_hit(
            self, daemons):
        """A copy whose cache lookup misses just before the key's leader
        finishes reaches dispatch with the flight gone: the body the
        leader wrote through answers it, and the shard sees one forward."""
        service = GatewayService(shard_urls=[daemons[0].url]).start()
        body = request_body(FAST_DECK, ["2"])
        lookup, lookups, leader = service.cache.get, [], []

        def late_get(key):
            lookups.append(key)
            missed = lookup(key)
            if len(lookups) == 1:  # the copy's miss: the leader runs now
                leader.append(service.submit(body))
            return missed

        service.cache.get = late_get
        status, copy_body, headers = service.submit(body)

        assert leader[0][0] == status == 200
        assert leader[0][2]["X-Repro-Cache"] == "miss"
        assert headers["X-Repro-Cache"] == "hit"
        assert copy_body == leader[0][1]
        assert daemons[0].service.metrics()["requests_total"] == 1

    def test_coalesced_result_lands_in_gateway_cache(self, daemons):
        service = GatewayService(shard_urls=[daemons[0].url]).start()
        body = request_body(FAST_DECK, ["2"])
        s1, b1, h1 = service.submit(body)
        s2, b2, h2 = service.submit(body)

        assert s1 == s2 == 200
        assert h1["X-Repro-Cache"] == "miss"
        assert h2["X-Repro-Cache"] == "hit"
        assert b1 == b2  # bit-identical through the gateway tier

    def test_failed_reports_are_not_cached_by_gateway(self, daemons):
        """A report whose jobs failed (here: an impossible per-request
        timeout enforced by the shard) must stay a retryable miss."""
        service = GatewayService(shard_urls=[daemons[0].url]).start()
        body = request_body(SLOW_DECK, ["n59"], timeout=1e-4)
        status, body, _headers = service.submit(body)
        service.wait_drained()
        cache_stats = service.cache.stats()

        # The shard returns 504 (budget exceeded) — not 200 — so nothing
        # may enter the gateway cache.
        assert status in (200, 504)
        if status == 200:
            assert json.loads(body)["totals"]["jobs_failed"] > 0
        assert cache_stats["cache_stores"] == 0


class TestShedLoad:
    def test_dead_shard_degrades_and_sheds_with_one_canary(
            self, hang_up_shard):
        """Routing to a black-holed shard: after `degraded_threshold`
        transport failures the shard sheds load — one canary probes,
        the rest get an immediate 503 + Retry-After."""
        dead = hang_up_shard

        service = GatewayService(
            shard_urls=[dead], degraded_threshold=1).start()
        first = service.submit(request_body(FAST_DECK, ["1"]))
        herd = run_together(service.submit, [
            request_body(FAST_DECK, ["2"], order=order)
            for order in (1, 2, 3)
        ])
        metrics = service.metrics()

        assert first[0] == 503
        assert metrics["shard_health"][0]["degraded"]
        statuses = sorted(status for status, _, _ in herd)
        # One canary went through to fail on the wire; the others were
        # shed instantly without touching the dead socket.
        assert statuses == [503, 503, 503]
        shed = [body for status, body, _ in herd
                if b"shedding load" in body]
        assert len(shed) >= 1
        assert metrics["rejected_degraded"] >= 1
        assert metrics["shard_errors"] >= FORWARD_ATTEMPTS

    def test_recovery_clears_degraded(self, daemons):
        """An attached shard that starts answering again clears the
        degraded flag on the first clean response."""
        service = GatewayService(
            shard_urls=[daemons[0].url], degraded_threshold=1).start()
        service._health[0].degraded = True
        service._health[0].consecutive = 3
        status, _, _ = service.submit(request_body(FAST_DECK, ["1"]))
        metrics = service.metrics()

        assert status == 200
        assert not metrics["shard_health"][0]["degraded"]
        assert metrics["shard_health"][0]["consecutive_errors"] == 0


class TestDrain:
    def test_drain_refuses_new_work_but_serves_hits(self, daemons):
        service = GatewayService(shard_urls=[daemons[0].url]).start()
        body = request_body(FAST_DECK, ["2"])
        warm = service.submit(body)
        service.begin_drain()
        hit = service.submit(body)
        refused = service.submit(request_body(FAST_DECK, ["1"]))
        service.wait_drained()
        health_status, health_body = service.healthz()

        assert warm[0] == 200
        assert hit[0] == 200 and hit[2]["X-Repro-Cache"] == "hit"
        assert refused[0] == 503
        assert b"draining" in refused[1]
        assert health_status == 503
        assert json.loads(health_body)["status"] == "draining"

    def test_request_timeout_is_504(self, daemons):
        service = GatewayService(shard_urls=[daemons[0].url]).start()
        status, body, _ = service.submit(
            request_body(SLOW_DECK, ["n59"], timeout=0.001))
        service.wait_drained()
        metrics = service.metrics()

        assert status == 504
        assert b"budget" in body
        assert metrics["request_timeouts"] >= 1


class TestValidation:
    def test_bad_json_is_400_without_touching_a_shard(self):
        service = GatewayService(shard_urls=["http://127.0.0.1:9"]).start()
        status, body, _ = service.submit(b"{not json")
        metrics = service.metrics()

        assert status == 400
        assert "JSON" in json.loads(body)["error"]
        assert metrics["bad_requests"] == 1
        assert metrics["shard_errors"] == 0

    def test_unparseable_deck_is_400(self):
        service = GatewayService(shard_urls=["http://127.0.0.1:9"]).start()
        status, body, _ = service.submit(
            request_body("bad\nR1 lonely\n.end\n", ["1"]))

        assert status == 400
        assert json.loads(body)["error_type"] == "NetlistParseError"


# ----------------------------------------------------------------------
# GatewayServer over real HTTP, stock client
# ----------------------------------------------------------------------


class TestHttpSurface:
    def test_analyze_round_trip_with_stock_client(self, gateway):
        client = AnalysisClient(gateway.url)
        request = {"deck": FAST_DECK, "nodes": ["2"], "threshold": 2.5}
        cold = client.call("analyze", request)
        assert cold.document["totals"]["jobs_failed"] == 0
        assert not cold.cached
        validate_report(cold.document)

        warm = client.call("analyze", request)
        assert warm.cached
        assert warm.body == cold.body
        assert warm.key == cold.key

    def test_equivalent_decks_share_key_and_shard(self, gateway):
        client = AnalysisClient(gateway.url)
        variant = ("* regenerated\n"
                   + FAST_DECK.replace("R2 1 2 2k", "R2  1  2  2000"))
        # Raw submits so the shard header is visible.
        import urllib.request
        responses = []
        for deck in (FAST_DECK, variant):
            request = urllib.request.Request(
                gateway.url + "/analyze",
                data=request_body(deck, ["2"]), method="POST")
            with urllib.request.urlopen(request) as reply:
                responses.append(dict(reply.headers))
        assert (responses[0]["X-Repro-Key"]
                == responses[1]["X-Repro-Key"])
        assert (responses[0]["X-Repro-Shard"]
                == responses[1]["X-Repro-Shard"])

    def test_sta_round_trip(self, gateway):
        from repro.sta import Design

        client = AnalysisClient(gateway.url)
        design = Design.from_dict(demo_design_dict())
        request = {"design": design.to_canonical_dict(), "k": 3}
        cold = client.call("sta", request)
        assert not cold.cached
        assert cold.document["design"] == "gw-demo"
        warm = client.call("sta", request)
        assert warm.cached and warm.body == cold.body

    def test_healthz_and_metrics_shape(self, gateway):
        client = AnalysisClient(gateway.url)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["shards"] == 2
        metrics = client.metrics()
        assert metrics["gateway"] is True
        assert len(metrics["shard_health"]) == 2
        assert "coalesced_requests" in metrics
        assert "cache_hits" in metrics

    def test_unknown_path_is_404_with_help(self, gateway):
        client = AnalysisClient(gateway.url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        assert "/analyze" in str(excinfo.value)

    def test_routing_is_stable_across_gateway_restarts(self, daemons):
        """Same key → same shard, through a full gateway restart: the
        placement is a pure function of the content address."""
        urls = [daemon.url for daemon in daemons]
        observed = {}
        for generation in range(2):
            with GatewayServer(shard_urls=urls) as gateway:
                import urllib.request
                for index, node in enumerate(["1", "2"]):
                    request = urllib.request.Request(
                        gateway.url + "/analyze",
                        data=request_body(FAST_DECK, [node]), method="POST")
                    with urllib.request.urlopen(request) as reply:
                        key = reply.headers["X-Repro-Key"]
                        shard = reply.headers["X-Repro-Shard"]
                    assert observed.setdefault(key, shard) == shard
                    assert int(shard) == shard_for_key(key, len(urls))
        assert len(observed) == 2

    def test_gateway_boundary_faults_absorbed_by_client_retry(self, gateway):
        import random

        faults.install(FaultPlan.parse("http_503=1:0.01:x2", seed=0))
        patient = AnalysisClient(gateway.url, retries=4, backoff_base=0.01,
                                 rng=random.Random(0))
        outcome = patient.call("analyze", {"deck": FAST_DECK, "nodes": ["2"]})
        assert outcome.document["totals"]["jobs_failed"] == 0
        assert patient.stats()["client_retries"] == 2
        metrics = patient.metrics()
        assert metrics["faults_injected"] == 2
        assert metrics["faults"]["http_503"]["fires"] == 2


# ----------------------------------------------------------------------
# Spawn mode: real child daemons, the crash campaign
# ----------------------------------------------------------------------


class TestSpawnMode:
    def test_crash_campaign_zero_client_visible_failures(self, tmp_path):
        """The acceptance criterion: seeded shard kills mid-campaign,
        every client request still answered 200.  `shard_crash` fires
        five times, each killing the target shard just before its
        forward; the gateway respawns and retries behind the client's
        back."""
        faults.install(FaultPlan.parse("shard_crash=0.5:x5", seed=7))
        gateway = GatewayServer(
            shards=2, cache_dir=str(tmp_path / "cache"),
            shard_queue_size=32).start()
        try:
            payloads = build_mix("mixed", 30, concurrency=6, seed=3,
                                 sections=2)
            outcome = run_loadgen(gateway.url, payloads, concurrency=6,
                                  retries=2)
            client = AnalysisClient(gateway.url)
            metrics = client.metrics()
        finally:
            gateway.close()
            faults.reset()

        assert outcome["failed"] == 0, outcome["failures"]
        assert outcome["requests"] == 30
        assert metrics["faults"]["shard_crash"]["fires"] == 5
        assert metrics["shard_restarts"] >= 1
        restarts = [h["restarts"] for h in metrics["shard_health"]]
        assert sum(restarts) >= 1
        assert all(h["alive"] for h in metrics["shard_health"])

    def test_spawned_shards_share_the_disk_cache_tier(self, tmp_path):
        """A result computed through one gateway generation is a disk
        hit for the next — the shared write-through tier."""
        cache_dir = str(tmp_path / "cache")
        with GatewayServer(shards=1, cache_dir=cache_dir) as gateway:
            client = AnalysisClient(gateway.url)
            cold = client.call("analyze", {"deck": FAST_DECK, "nodes": ["2"]})
            assert cold.document["totals"]["jobs_failed"] == 0
            assert not cold.cached
        with GatewayServer(shards=1, cache_dir=cache_dir) as gateway:
            client = AnalysisClient(gateway.url)
            warm = client.call("analyze", {"deck": FAST_DECK, "nodes": ["2"]})
            assert warm.cached
            assert warm.body == cold.body


def _child_pids(pid: int) -> set[int]:
    """Direct children of ``pid``, from every thread's procfs entry."""
    children = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as handle:
                children.update(int(child) for child in handle.read().split())
        except OSError:  # the thread exited between glob and open
            continue
    return children


def _running(pid: int) -> bool:
    """True unless ``pid`` is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestSignals:
    """SIGTERM drains the gateway from the moment it announces itself."""

    def test_serve_gateway_installs_its_signal_handlers_before_announcing(self):
        seen = {}

        def announce(server):
            seen["handler"] = signal.getsignal(signal.SIGTERM)
            threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGTERM)).start()

        previous = (signal.getsignal(signal.SIGTERM),
                    signal.getsignal(signal.SIGINT))
        try:
            assert serve_gateway(port=0, shards=1, announce=announce) == 0
        finally:
            signal.signal(signal.SIGTERM, previous[0])
            signal.signal(signal.SIGINT, previous[1])
        assert callable(seen["handler"])

    @pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                        reason="reads child pids from procfs")
    def test_sigterm_right_after_the_announce_line_drains_every_shard(self):
        # A supervisor may signal as soon as it reads the announce line;
        # the gateway must already drain then, not die with -15 and
        # leave its shards running.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "gateway", "--port", "0",
             "--shards", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env, cwd=REPO_ROOT,
        )
        shards = set()
        try:
            line = proc.stdout.readline()
            shards = _child_pids(proc.pid)
            proc.send_signal(signal.SIGTERM)
            assert "repro gateway listening on " in line, line
            assert proc.wait(timeout=60) == 0
            assert len(shards) == 2
            assert not [pid for pid in shards if _running(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
            for pid in shards:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
