"""Tests for the analysis daemon (`repro.service.server` / `.client`).

Three layers: `AnalysisService.submit` in-process (cache semantics,
admission control, request timeouts, drain), `ServiceServer` +
`AnalysisClient` over real HTTP on a loopback port, and a subprocess
`python -m repro serve` exercised through SIGTERM for the graceful-drain
contract.
"""

import json
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro import Step, faults
from repro.circuit.writer import write_netlist
from repro.faults import FaultPlan
from repro.papercircuits import rc_mesh
from repro.report import validate_report
from repro.service import (
    AnalysisClient,
    AnalysisService,
    ServiceError,
    ServiceServer,
    serve,
)


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    """No test leaks an installed fault plan into the next one."""
    faults.reset()
    yield
    faults.reset()

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FAST_DECK = """\
fast deck
Vin in 0 STEP(0 5)
R1 in 1 1000
C1 1 0 1p
R2 1 2 2k
C2 2 0 0.5p
.end
"""

# ~400 unknowns, every node requested: a few hundred ms per analysis —
# long enough to observe queueing, short enough not to drag the suite.
_MESH = rc_mesh(20, 20)
SLOW_DECK = write_netlist(_MESH, {"Vin": Step(0.0, 5.0)})
SLOW_NODES = [cap.positive for cap in _MESH.capacitors]


def request_body(deck, nodes, **params):
    return json.dumps({"deck": deck, "nodes": list(nodes), **params}).encode()


def slow_body(order=4, **params):
    """A distinct-by-``order`` slow request (distinct cache keys)."""
    return request_body(SLOW_DECK, SLOW_NODES, order=order, **params)


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


@pytest.fixture
def service():
    svc = AnalysisService(workers=1, queue_size=4).start()
    yield svc
    svc.close(timeout=60)


class TestSubmit:
    def test_cold_miss_then_variant_hit_is_bit_identical(self, service):
        status, body, headers = service.submit(request_body(FAST_DECK, ["2"]))
        assert status == 200, body
        assert headers["X-Repro-Cache"] == "miss"
        document = validate_report(json.loads(body))
        assert document["totals"]["jobs_failed"] == 0

        variant = ("* regenerated\n"
                   + FAST_DECK.replace("R2 1 2 2k", "R2   1  2  2000"))
        status2, body2, headers2 = service.submit(request_body(variant, ["2"]))
        assert status2 == 200
        assert headers2["X-Repro-Cache"] == "hit"
        assert body2 == body                      # bit-identical warm hit
        assert headers2["X-Repro-Key"] == headers["X-Repro-Key"]

    def test_invalid_json_is_400(self, service):
        status, body, _ = service.submit(b"{not json")
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

    def test_unparseable_deck_is_400(self, service):
        status, body, _ = service.submit(
            request_body("bad deck\nR1 only_one_node\n.end\n", ["1"]))
        assert status == 400
        assert json.loads(body)["error_type"] == "NetlistParseError"

    def test_unknown_field_is_400(self, service):
        status, body, _ = service.submit(
            request_body(FAST_DECK, ["2"], verbosity=3))
        assert status == 400
        assert "verbosity" in json.loads(body)["error"]

    def test_missing_nodes_is_400(self, service):
        status, body, _ = service.submit(
            json.dumps({"deck": FAST_DECK}).encode())
        assert status == 400
        assert "nodes" in json.loads(body)["error"]

    def test_failed_job_is_reported_but_not_cached(self, service):
        raw = request_body(FAST_DECK, ["no_such_node"])
        status, body, headers = service.submit(raw)
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        assert json.loads(body)["totals"]["jobs_failed"] == 1
        # Re-submitting recomputes: failures never enter the cache.
        _, _, headers2 = service.submit(raw)
        assert headers2["X-Repro-Cache"] == "miss"
        assert service.metrics()["requests_failed"] == 2
        assert service.metrics()["cache_stores"] == 0

    def test_metrics_counts_requests_and_solver_work(self, service):
        service.submit(request_body(FAST_DECK, ["2"]))
        service.submit(request_body(FAST_DECK, ["2"]))
        metrics = service.metrics()
        assert metrics["requests_total"] == 2
        assert metrics["requests_ok"] == 2
        assert metrics["cache_misses"] == 1
        assert metrics["cache_hits"] == 1
        assert metrics["queue_capacity"] == 4
        assert metrics["in_flight"] == 0
        assert metrics["solver"]["lu_factorizations"] >= 1


class TestAdmissionControl:
    def test_full_queue_yields_429_with_retry_after(self):
        service = AnalysisService(workers=1, queue_size=1).start()
        try:
            outcomes = []

            def run(order):
                outcomes.append(service.submit(slow_body(order=order)))

            first = threading.Thread(target=run, args=(4,))
            first.start()
            # The worker must have dequeued the first job (queue empty,
            # one in flight) before the second can occupy the queue slot.
            assert wait_until(
                lambda: service._in_flight == 1 and service._queue.qsize() == 0)
            second = threading.Thread(target=run, args=(5,))
            second.start()
            assert wait_until(lambda: service._queue.qsize() == 1)

            status, body, headers = service.submit(slow_body(order=6))
            assert status == 429
            assert "queue is full" in json.loads(body)["error"]
            assert int(headers["Retry-After"]) >= 1

            first.join(timeout=60)
            second.join(timeout=60)
            assert [status for status, _, _ in outcomes] == [200, 200]
            assert service.metrics()["rejected_queue_full"] == 1
        finally:
            service.close(timeout=60)

    def test_accepted_backlog_never_exceeds_the_bound(self):
        service = AnalysisService(workers=1, queue_size=1).start()
        try:
            statuses = []
            lock = threading.Lock()

            def run(order):
                status, _, _ = service.submit(slow_body(order=order))
                with lock:
                    statuses.append(status)

            threads = [threading.Thread(target=run, args=(order,))
                       for order in range(2, 8)]
            for thread in threads:
                thread.start()
            assert wait_until(lambda: service._queue.qsize() <= 1)
            assert service._queue.qsize() <= 1  # the bound, not a backlog
            for thread in threads:
                thread.join(timeout=120)
            assert set(statuses) <= {200, 429}  # refused, never backlogged
            assert statuses.count(429) >= 1
        finally:
            service.close(timeout=120)


class TestRequestTimeout:
    def test_slow_request_times_out_with_504(self, service):
        status, body, _ = service.submit(slow_body(order=4, timeout=0.05))
        assert status == 504
        assert "0.05 s budget" in json.loads(body)["error"]
        assert service.metrics()["request_timeouts"] == 1

    def test_service_default_timeout_applies(self):
        service = AnalysisService(workers=1, timeout=0.05).start()
        try:
            status, _, _ = service.submit(slow_body(order=4))
            assert status == 504
        finally:
            service.close(timeout=60)

    def test_fast_request_is_unaffected_by_a_generous_timeout(self, service):
        status, _, headers = service.submit(
            request_body(FAST_DECK, ["2"], timeout=30))
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"


class TestGracefulDrain:
    def test_drain_finishes_in_flight_work_and_refuses_new(self, service):
        outcome = {}

        def run():
            outcome["result"] = service.submit(slow_body(order=4))

        thread = threading.Thread(target=run)
        thread.start()
        assert wait_until(lambda: service._in_flight == 1)
        service.begin_drain()

        status, body, _ = service.submit(request_body(FAST_DECK, ["2"]))
        assert status == 503
        assert "draining" in json.loads(body)["error"]

        health_status, health_body = service.healthz()
        assert health_status == 503
        assert json.loads(health_body)["status"] == "draining"

        assert service.wait_drained(timeout=60)
        thread.join(timeout=60)
        status, body, headers = outcome["result"]
        assert status == 200                    # the in-flight job completed
        assert json.loads(body)["totals"]["jobs_failed"] == 0
        assert service.metrics()["rejected_draining"] == 1

    def test_cache_hits_are_still_served_while_draining(self, service):
        raw = request_body(FAST_DECK, ["2"])
        service.submit(raw)
        service.begin_drain()
        status, _, headers = service.submit(raw)
        assert status == 200
        assert headers["X-Repro-Cache"] == "hit"

    def test_serve_installs_its_signal_handlers_before_announcing(self):
        # A supervisor may send SIGTERM as soon as it reads the announce
        # line; with the default action still in place it would kill the
        # daemon instead of draining it.
        seen = {}

        def announce(server):
            seen["handler"] = signal.getsignal(signal.SIGTERM)
            threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGTERM)).start()

        previous = (signal.getsignal(signal.SIGTERM),
                    signal.getsignal(signal.SIGINT))
        try:
            assert serve(port=0, workers=1, announce=announce) == 0
        finally:
            signal.signal(signal.SIGTERM, previous[0])
            signal.signal(signal.SIGINT, previous[1])
        assert callable(seen["handler"])


class TestHttpServer:
    def test_end_to_end_over_http(self):
        with ServiceServer(port=0, workers=2) as server:
            client = AnalysisClient(server.url, timeout=60)
            assert client.healthz()["status"] == "ok"

            cold = client.call("analyze", {"deck": FAST_DECK, "nodes": ["2"],
                                          "threshold": 2.5})
            assert cold.document["totals"]["jobs_failed"] == 0
            assert not cold.cached

            variant = FAST_DECK.replace("0.5p", "500f") + "* tail comment\n"
            warm = client.call("analyze", {"deck": variant, "nodes": ["2"],
                                          "threshold": 2.5})
            assert warm.cached
            assert warm.body == cold.body       # bit-identical over the wire
            assert warm.key == cold.key

            metrics = client.metrics()
            assert metrics["cache_hits"] == 1
            assert metrics["cache_misses"] == 1
            assert metrics["requests_ok"] == 2
            assert metrics["solver"]["lu_factorizations"] >= 1
            assert not metrics["draining"]

    def test_http_error_statuses_surface_as_service_errors(self):
        with ServiceServer(port=0, workers=1) as server:
            client = AnalysisClient(server.url, timeout=30)
            with pytest.raises(ServiceError) as excinfo:
                client.call("analyze", {
                    "deck": "bad deck\nR1 only_one_node\n.end\n",
                    "nodes": ["2"]})
            assert excinfo.value.status == 400

            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404
            assert "endpoints" in str(excinfo.value)

    def test_get_metrics_document_is_json_with_content_length(self):
        with ServiceServer(port=0, workers=1) as server:
            with urllib.request.urlopen(server.url + "/metrics", timeout=30) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == "application/json"
                body = resp.read()
                assert int(resp.headers["Content-Length"]) == len(body)
                json.loads(body)

    def test_post_without_content_length_is_411(self):
        # urllib always adds Content-Length for bytes bodies; go lower level.
        import http.client

        with ServiceServer(port=0, workers=1) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.putrequest("POST", "/analyze", skip_accept_encoding=True)
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 411
            finally:
                conn.close()


class TestErrorPathsBypassEngine:
    """Malformed input must be refused at the door with a structured 4xx:
    no worker dispatch, no solver work, no cache write.  The solver
    counters in ``/metrics`` are the witness — they only move when a
    request actually reaches a :class:`BatchEngine`."""

    def _assert_engine_untouched(self, metrics):
        assert metrics["solver"]["lu_factorizations"] == 0
        assert metrics["solver"]["moment_solves"] == 0
        assert metrics["solver"]["responses"] == 0
        assert metrics["cache_stores"] == 0
        assert metrics["cache_misses"] == 0
        assert metrics["in_flight"] == 0

    def test_malformed_json_is_structured_400_without_solver_work(self, service):
        status, body, _ = service.submit(b'{"deck": "x", "nodes": [')
        assert status == 400
        payload = json.loads(body)
        assert payload["status"] == 400
        assert "JSON" in payload["error"]
        self._assert_engine_untouched(service.metrics())

    def test_wrong_field_types_are_structured_400(self, service):
        for raw in (
            json.dumps({"deck": 7, "nodes": ["1"]}).encode(),
            json.dumps({"deck": FAST_DECK, "nodes": []}).encode(),
            json.dumps({"deck": FAST_DECK, "nodes": [2]}).encode(),
            json.dumps({"deck": FAST_DECK, "nodes": ["2"], "order": True}).encode(),
            json.dumps([FAST_DECK, ["2"]]).encode(),
        ):
            status, body, _ = service.submit(raw)
            assert status == 400, raw
            assert json.loads(body)["status"] == 400
        self._assert_engine_untouched(service.metrics())

    def test_unknown_field_is_structured_400_naming_the_field(self, service):
        status, body, _ = service.submit(
            request_body(FAST_DECK, ["2"], shrink_rays=True))
        assert status == 400
        payload = json.loads(body)
        assert "shrink_rays" in payload["error"]
        self._assert_engine_untouched(service.metrics())

    def test_oversized_request_is_413_before_reading_the_body(self):
        import http.client

        from repro.service.server import MAX_BODY_BYTES

        with ServiceServer(port=0, workers=1) as server:
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                # Declare a body twice the cap but never send it: the
                # server must refuse on the header alone.
                conn.putrequest("POST", "/analyze")
                conn.putheader("Content-Length", str(2 * MAX_BODY_BYTES))
                conn.endheaders()
                response = conn.getresponse()
                assert response.status == 413
                payload = json.loads(response.read())
                assert payload["status"] == 413
                assert str(MAX_BODY_BYTES) in payload["error"]
            finally:
                conn.close()

            client = AnalysisClient(server.url, timeout=60)
            self._assert_engine_untouched(client.metrics())
            # The daemon is unharmed: a well-formed request still works.
            outcome = client.call("analyze", {"deck": FAST_DECK, "nodes": ["2"]})
            assert outcome.document["totals"]["jobs_failed"] == 0


class TestServeSubprocess:
    """The CLI daemon: ``python -m repro serve`` under real signals."""

    def _spawn(self, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=REPO_ROOT,
        )
        line = proc.stdout.readline()
        assert "repro service listening on " in line, (
            line, proc.stderr.read() if proc.poll() is not None else "")
        return proc, line.strip().rsplit(" ", 1)[-1]

    def test_sigterm_drains_in_flight_work_then_exits_cleanly(self):
        proc, url = self._spawn()
        try:
            client = AnalysisClient(url, timeout=120)
            assert client.healthz()["status"] == "ok"

            outcome = {}

            def run():
                outcome["slow"] = client.call("analyze", {
                    "deck": SLOW_DECK, "nodes": SLOW_NODES, "order": 4})

            thread = threading.Thread(target=run)
            thread.start()
            # Land the signal while the slow analysis is in flight.
            time.sleep(0.15)
            proc.send_signal(signal.SIGTERM)

            thread.join(timeout=120)
            assert "slow" in outcome, "in-flight request was dropped"
            slow = outcome["slow"].document
            assert slow["totals"]["jobs_failed"] == 0  # drained, not killed
            assert proc.wait(timeout=60) == 0  # clean exit code
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

    def test_second_identical_request_is_a_cache_hit(self):
        proc, url = self._spawn()
        try:
            client = AnalysisClient(url, timeout=120)
            request = {"deck": FAST_DECK, "nodes": ["2"]}
            cold = client.call("analyze", request)
            warm = client.call("analyze", request)
            assert not cold.cached and warm.cached
            assert warm.body == cold.body
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


class TestInjectedHttpFaults:
    def test_injected_429_and_503_are_marked_and_bounded(self, service):
        faults.install(FaultPlan.parse("http_429=1:0.25:x1,http_503=1:x1"))
        status, body, headers = service.submit(request_body(FAST_DECK, ["2"]))
        assert status == 429
        assert headers["X-Repro-Fault"] == "http_429"
        assert headers["Retry-After"] == "0.25"
        assert "injected fault" in json.loads(body)["error"]

        status2, body2, headers2 = service.submit(request_body(FAST_DECK, ["2"]))
        assert status2 == 503
        assert headers2["X-Repro-Fault"] == "http_503"

        # Both probes exhausted: the real path is untouched underneath.
        status3, _, headers3 = service.submit(request_body(FAST_DECK, ["2"]))
        assert status3 == 200
        assert "X-Repro-Fault" not in headers3

        metrics = service.metrics()
        assert metrics["faults_injected"] == 2
        assert metrics["faults"]["http_429"]["fires"] == 1
        assert metrics["faults"]["http_503"]["fires"] == 1

    def test_injected_timeout_stalls_then_serves(self, service):
        faults.install(FaultPlan.parse("http_timeout=1:0.05:x1"))
        began = time.monotonic()
        status, _, _ = service.submit(request_body(FAST_DECK, ["2"]))
        assert status == 200
        assert time.monotonic() - began >= 0.05
        assert service.metrics()["faults_injected"] == 1

    def test_no_plan_means_no_fault_bookkeeping(self, service):
        status, _, _ = service.submit(request_body(FAST_DECK, ["2"]))
        assert status == 200
        metrics = service.metrics()
        assert metrics["faults_injected"] == 0
        assert "faults" not in metrics


def _scrub(value):
    """Strip the wall-clock parts of a run report so two documents can
    be compared for *numeric* identity across runs."""
    drop = {"elapsed_s", "phase_seconds", "wall_time_s", "counters",
            "events", "uptime_s"}
    if isinstance(value, dict):
        return {key: _scrub(item) for key, item in value.items()
                if key not in drop}
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


class TestResilienceAcceptance:
    """Under ~10% injected 429/503 at the HTTP boundary, a 50-job run
    completes with zero client-visible failures and numerically identical
    results."""

    DECKS = [FAST_DECK.replace("R2 1 2 2k", f"R2 1 2 {2000 + i}")
             for i in range(50)]

    def run_all(self, retries):
        with ServiceServer(port=0, workers=2) as server:
            client = AnalysisClient(server.url, timeout=120, retries=retries,
                                    backoff_base=0.01, backoff_cap=0.5,
                                    rng=random.Random(7))
            outcomes = [client.call("analyze", {"deck": deck, "nodes": ["2"]})
                        for deck in self.DECKS]
            return outcomes, client.stats(), server.service.metrics()

    def test_fifty_jobs_survive_injected_faults_bit_for_bit(self):
        clean_outcomes, _, _ = self.run_all(retries=0)
        assert all(outcome.document["totals"]["jobs_failed"] == 0
                   for outcome in clean_outcomes)

        faults.install(FaultPlan.parse(
            "http_429=0.05:0.02,http_503=0.05:0.02", seed=1))
        faulty_outcomes, client_stats, metrics = self.run_all(retries=6)

        assert all(outcome.document["totals"]["jobs_failed"] == 0
                   for outcome in faulty_outcomes)
        assert [_scrub(outcome.document) for outcome in faulty_outcomes] \
            == [_scrub(outcome.document) for outcome in clean_outcomes]

        # The campaign really injected: HTTP refusals were absorbed by
        # client retries.
        assert metrics["faults_injected"] >= 1
        assert client_stats["client_retries"] >= 1
        assert client_stats["retries_exhausted"] == 0
        assert metrics["requests_failed"] == 0
        assert metrics["degraded"] is False


class TestPerEndpointRetryAfter:
    """`Retry-After` hints come from the endpoint's *own* EWMA: a fleet
    of second-long STA jobs must not inflate the back-off quoted to a
    millisecond `/analyze` caller (or vice versa)."""

    STA_DESIGN = {
        "name": "ewma-demo",
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

    def test_queue_full_hint_tracks_each_endpoints_own_average(self):
        service = AnalysisService(workers=1, queue_size=1).start()
        try:
            outcomes = []

            def run(order):
                outcomes.append(service.submit(slow_body(order=order)))

            first = threading.Thread(target=run, args=(4,))
            first.start()
            assert wait_until(
                lambda: service._in_flight == 1
                and service._queue.qsize() == 0)
            second = threading.Thread(target=run, args=(5,))
            second.start()
            assert wait_until(lambda: service._queue.qsize() == 1)

            # Pretend history: analyze jobs have been fast, STA slow.
            with service._lock:
                service._avg_job_s["analyze"] = 3.0
                service._avg_job_s["sta"] = 30.0

            status, _, headers = service.submit(
                request_body(FAST_DECK, ["1"], order=2))
            assert status == 429
            # ceil(3.0 * (qsize 1 + 1)) — the analyze average, doubled.
            assert headers["Retry-After"] == "6"

            sta_body = json.dumps({"design": self.STA_DESIGN}).encode()
            status, _, headers = service.submit(sta_body, kind="sta")
            assert status == 429
            # Same queue, same instant — but the STA hint is 10x.
            assert headers["Retry-After"] == "60"

            first.join(timeout=60)
            second.join(timeout=60)
            assert [status for status, _, _ in outcomes] == [200, 200]
        finally:
            service.close(timeout=60)

    def test_metrics_expose_both_averages_and_they_move_independently(
            self, service):
        seeded = service.metrics()["avg_job_s"]
        assert seeded == {"analyze": 0.05, "sta": 0.05, "sweep": 0.05}

        status, _, _ = service.submit(request_body(FAST_DECK, ["2"]))
        assert status == 200
        moved = service.metrics()["avg_job_s"]
        assert moved["analyze"] != 0.05  # EWMA absorbed the real elapsed
        assert moved["sta"] == 0.05      # untouched by /analyze traffic
        assert moved["sweep"] == 0.05    # likewise
