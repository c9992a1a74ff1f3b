"""The server core the daemon and the gateway share (`repro.service.server`).

Every row of `ENDPOINTS` must mean the same thing on every surface: a
gateway attached to a daemon answers each request with the daemon's
bytes and each malformed request with the daemon's status and JSON
error, down to the HTTP framing, and the daemon's answers are the ones
the in-process entry (`answer`, the CLI's local path) and the public
API give, for hand-written requests and for conformance fuzz cases.
The counters must account for every request exactly once, for every
endpoint.
"""

import http.client
import json
import pathlib
import socket
import time

import pytest

from repro import AweJob, BatchEngine, SweepEngine, SweepPlan, Tracer, parse_netlist
from repro.circuit.writer import write_netlist
from repro.conformance import generate_case
from repro.errors import ReproError
from repro.gateway import GatewayServer
from repro.report import build_report, build_sta_report, build_sweep_report
from repro.service import ServiceServer, answer
from repro.service import server as service_server
from repro.service.server import ENDPOINTS, MAX_BODY_BYTES, Health
from repro.sta import Design, run_sta

DECK = """\
core deck
Vin in 0 STEP(0 5)
R1 in 1 1000
C1 1 0 1p
R2 1 2 2k
C2 2 0 0.5p
.end
"""

DESIGN = {
    "name": "core-demo",
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

#: One well-formed request per endpoint.
GOOD = {
    "analyze": {"deck": DECK, "nodes": ["2"]},
    "sta": {"design": DESIGN, "k": 2},
    "sweep": {"deck": DECK, "node": "2",
              "points": [{"element": "R2", "scale": 1.1},
                         {"element": "C1", "scale": 2.0}]},
}

#: Per endpoint, a request that is valid JSON with known fields but
#: means nothing: the parser itself must refuse it.
MEANINGLESS = {
    "analyze": {"deck": "bad\nR1 lonely\n.end\n", "nodes": ["1"]},
    "sta": {"design": {**DESIGN, "instances": []}},
    "sweep": {"deck": DECK, "node": "2",
              "points": [{"element": "R9", "scale": 1.1}]},
}

#: Further ``/sweep`` requests its parser must refuse: decks the sweep
#: engine cannot serve, by what is wrong with them.
UNSWEEPABLE = {
    "inductor": {"deck": (pathlib.Path(__file__).parent.parent / "examples"
                          / "decks" / "pcb_trace.sp").read_text(),
                 "node": "t6", "points": [{"element": "R1", "scale": 1.2}]},
    "floating": {"deck": ("floating group\nVin in 0 STEP(0 5)\n"
                          "R1 in 1 1k\nC1 1 2 1p\nR2 2 3 1k\n"
                          "C2 3 0 1p\n.end\n"),
                 "node": "1", "points": [{"element": "R1", "scale": 1.2}]},
}

#: Every meaningless request as ``(kind, payload)``.
MEANINGLESS_CASES = (
    [pytest.param(kind, MEANINGLESS[kind], id=kind)
     for kind in sorted(ENDPOINTS)]
    + [pytest.param("sweep", payload, id=f"sweep-{flaw}")
       for flaw, payload in UNSWEEPABLE.items()])

#: The malformations every surface must refuse alike.
MALFORMED = ("bad json", "unknown field", "meaningless", "unknown path",
             "bad method", "missing length", "negative length", "oversize")

#: The counters that together account for every request.
OUTCOMES = ("requests_ok", "requests_failed", "bad_requests",
            "rejected_draining", "rejected_degraded", "request_timeouts",
            "rejected_queue_full")


def test_every_endpoint_has_a_request_here():
    assert set(GOOD) == set(MEANINGLESS) == set(ENDPOINTS)


@pytest.fixture
def daemon():
    server = ServiceServer(port=0, workers=1).start()
    yield server
    server.close()


@pytest.fixture
def gateway(daemon):
    server = GatewayServer(shard_urls=[daemon.url]).start()
    yield server
    server.close()


@pytest.fixture(scope="module")
def surfaces():
    """A daemon and a gateway attached to it, shared by tests that only
    compare answers."""
    with ServiceServer(port=0, workers=1) as daemon:
        with GatewayServer(shard_urls=[daemon.url]) as gateway:
            yield daemon, gateway


def exchange(address, method, path, body=b"", headers=None):
    """One request over a raw socket, the headers exactly as given:
    ``(status, headers, body)``."""
    lines = [f"{method} {path} HTTP/1.1", "Host: test", "Connection: close"]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, response.headers, response.read()


def post(address, kind, payload):
    body = json.dumps(payload).encode()
    return exchange(address, "POST", f"/{kind}", body,
                    {"Content-Length": len(body)})


def accounted(metrics) -> int:
    return sum(metrics.get(name, 0) for name in OUTCOMES)


def in_process(kind: str, request: dict) -> dict:
    """The document a user builds for the ``kind`` payload ``request``
    through the public API, traced as the surfaces trace every
    request."""
    tracer = Tracer(kind)
    if kind == "sta":
        run = run_sta(Design.from_dict(request["design"]), k=request["k"],
                      tracer=tracer)
        return build_sta_report(run, trace=tracer.to_record())
    deck = parse_netlist(request["deck"])
    if kind == "analyze":
        engine = BatchEngine()
        job = AweJob(deck.circuit, tuple(request["nodes"]),
                     stimuli=deck.stimuli, label=deck.title)
        return build_report(engine.run([job], trace=True),
                            engine_stats=engine.stats())
    engine = SweepEngine(deck.circuit, deck.stimuli, tracer=tracer)
    return build_sweep_report(engine.evaluate(SweepPlan.from_payload(request)),
                              trace=tracer.to_record())


def fuzz_requests(seed: int) -> list:
    """``(kind, payload)`` for each endpoint conformance case ``seed``
    goes to: its deck and outputs to ``/analyze``, and a ``sweep``
    family case also to ``/sweep``."""
    case = generate_case(seed)
    if case.kind == "sta":
        pytest.skip("the sta family's cases are bare timing graphs, and "
                    "/sta takes a gate-level design")
    deck = write_netlist(case.circuit, case.stimuli)
    requests = [("analyze", {"deck": deck, "nodes": list(case.nodes)})]
    if case.family == "sweep":
        requests.append(("sweep", {
            "deck": deck, "node": case.nodes[0],
            "points": [{"element": case.circuit.resistors[0].name,
                        "scale": 1.1},
                       {"element": case.circuit.capacitors[0].name,
                        "scale": 2.0}]}))
    return requests


def answers(document):
    """``document`` without its timing fields: ``phase_seconds`` and
    every ``*_s`` key (event times, wall and solver times)."""
    if isinstance(document, dict):
        return {key: answers(value) for key, value in document.items()
                if key != "phase_seconds" and not key.endswith("_s")}
    if isinstance(document, list):
        return [answers(value) for value in document]
    return document


class TestFraming:
    """Both surfaces run one handler: bad lengths and methods get JSON."""

    @pytest.mark.parametrize("length", ["-1", "abc", "1e3"])
    def test_bad_content_length_is_a_json_400(self, surfaces, length):
        for server in surfaces:
            status, _, body = exchange(server.address, "POST", "/analyze",
                                       b"{}", {"Content-Length": length})
            assert status == 400
            assert json.loads(body) == {
                "error": "Content-Length must be a non-negative integer",
                "status": 400}

    @pytest.mark.parametrize("method, path", [
        ("PUT", "/analyze"), ("DELETE", "/healthz"), ("PATCH", "/sweep")])
    def test_other_methods_are_a_json_405_with_allow(self, surfaces,
                                                     method, path):
        for server in surfaces:
            status, headers, body = exchange(server.address, method, path)
            assert status == 405
            assert headers["Allow"] == "GET, POST"
            assert headers["Content-Type"] == "application/json"
            assert json.loads(body)["status"] == 405


class TestConnections:
    def test_idle_connections_do_not_block_other_requests(self, surfaces):
        # Each idle connection holds a handler thread until the client
        # hangs up; it must never hold up anybody else.
        for server in surfaces:
            idle = []
            for _ in range(128):
                idle.append(socket.create_connection(server.address,
                                                     timeout=10))
                # Paced, so the daemon's backlog of 5 never overflows
                # into one-second SYN retransmits.
                time.sleep(0.002)
            try:
                status, _, body = exchange(server.address, "GET", "/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"
            finally:
                for sock in idle:
                    sock.close()

    def test_an_idle_connection_is_dropped_after_the_timeout(
            self, surfaces, monkeypatch):
        assert service_server._Handler.timeout is not None  # never unbounded
        monkeypatch.setattr(service_server._Handler, "timeout", 0.2)
        for server in surfaces:
            with socket.create_connection(server.address, timeout=10) as sock:
                assert sock.recv(1) == b""  # closed by the server
            # A live client is unaffected.
            assert exchange(server.address, "GET", "/healthz")[0] == 200


class TestHealth:
    def test_only_the_canarys_own_settlement_frees_its_slot(self):
        health = Health(1)
        assert health.admit() is False  # healthy: admitted, no canary
        assert health.record(True) == "degraded"
        assert health.admit() is True  # the canary
        assert health.admit() is None  # shed while it is out
        # A request admitted before the degradation settles: no verdict,
        # and the canary is still out.
        assert health.record(None) is None
        assert health.admit() is None
        assert health.record(None, canary=True) is None
        assert health.admit() is True  # the next canary
        assert health.record(False, canary=True) == "recovered"
        assert health.admit() is False


class TestCounters:
    @pytest.mark.parametrize("kind", sorted(ENDPOINTS))
    def test_worker_failure_is_a_counted_500(self, kind, monkeypatch):
        def broken(*args):
            raise RuntimeError("worker bug")

        monkeypatch.setitem(ENDPOINTS, kind,
                            ENDPOINTS[kind]._replace(run=broken))
        with ServiceServer(port=0, workers=1) as server:
            status, _, body = post(server.address, kind, GOOD[kind])
            metrics = server.service.metrics()
        assert status == 500
        assert "worker bug" in json.loads(body)["error"]
        assert metrics["requests_total"] == 1
        assert metrics["requests_failed"] == 1
        assert accounted(metrics) == 1

    @pytest.mark.parametrize("kind, payload", MEANINGLESS_CASES)
    def test_gateway_refuses_a_meaningless_request_itself(
            self, daemon, gateway, kind, payload):
        status, _, body = post(gateway.address, kind, payload)
        assert status == 400
        assert json.loads(body)["status"] == 400
        metrics = gateway.service.metrics()
        assert metrics["requests_total"] == 1
        assert metrics["bad_requests"] == 1
        assert accounted(metrics) == 1
        assert daemon.service.metrics()["requests_total"] == 0


class TestSurfaceParity:
    """The three surfaces give the same answer to the same request: the
    in-process API, the daemon, and a gateway attached to it."""

    @pytest.mark.parametrize("kind", sorted(ENDPOINTS))
    def test_200_bodies_are_byte_identical(self, surfaces, kind):
        daemon, gateway = surfaces
        direct = post(daemon.address, kind, GOOD[kind])
        routed = post(gateway.address, kind, GOOD[kind])
        assert direct[0] == routed[0] == 200
        assert routed[2] == direct[2]
        assert routed[1]["X-Repro-Key"] == direct[1]["X-Repro-Key"]

    @pytest.mark.parametrize("kind", sorted(ENDPOINTS))
    def test_200_bodies_answer_as_the_in_process_api(self, surfaces, kind):
        daemon, _ = surfaces
        status, _, body = post(daemon.address, kind, GOOD[kind])
        assert status == 200
        assert answers(json.loads(body)) == answers(in_process(kind,
                                                               GOOD[kind]))

    @pytest.mark.parametrize("seed", range(24))
    def test_conformance_cases_answer_alike_on_every_path(self, surfaces,
                                                          seed):
        daemon, gateway = surfaces
        for kind, payload in fuzz_requests(seed):
            direct = post(daemon.address, kind, payload)
            routed = post(gateway.address, kind, payload)
            assert direct[0] == routed[0] == 200, direct[2]
            assert routed[2] == direct[2]
            expected = answers(in_process(kind, payload))
            assert answers(json.loads(direct[2])) == expected
            assert answers(answer(kind, payload).document) == expected

    @pytest.mark.parametrize("kind, payload", MEANINGLESS_CASES)
    def test_in_process_entry_refuses_what_the_daemon_refuses(self, kind,
                                                              payload):
        with pytest.raises((ValueError, ReproError)):
            answer(kind, payload)

    @pytest.mark.parametrize("case, kind, meaningless", [
        *(pytest.param(case, kind, MEANINGLESS[kind], id=f"{case}-{kind}")
          for case in MALFORMED for kind in sorted(ENDPOINTS)),
        *(pytest.param("meaningless", "sweep", payload,
                       id=f"meaningless-sweep-{flaw}")
          for flaw, payload in UNSWEEPABLE.items())])
    def test_malformed_requests_are_refused_alike(self, surfaces, kind,
                                                  case, meaningless):
        body = json.dumps(GOOD[kind]).encode()
        method, path, headers = "POST", f"/{kind}", {}
        if case == "bad json":
            body = b"{not json"
        elif case == "unknown field":
            body = json.dumps({**GOOD[kind], "verbosity": 3}).encode()
        elif case == "meaningless":
            body = json.dumps(meaningless).encode()
        elif case == "unknown path":
            path = f"/{kind}z"
        elif case == "bad method":
            method = "PUT"
        headers["Content-Length"] = {
            "missing length": None, "negative length": -5,
            "oversize": MAX_BODY_BYTES + 1}.get(case, len(body))
        if headers["Content-Length"] is None:
            del headers["Content-Length"]
        answers = [exchange(server.address, method, path, body, headers)
                   for server in surfaces]
        (status, _, direct), (routed_status, _, routed) = answers
        assert 400 <= status < 500
        assert routed_status == status
        assert json.loads(routed) == json.loads(direct)
