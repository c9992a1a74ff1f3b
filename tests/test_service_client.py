"""Tests for the retrying HTTP client (`repro.service.client`).

A scripted stub server plays back canned responses so the retry loop is
exercised deterministically over real loopback HTTP: transient 429/503
answers (with numeric, HTTP-date, and garbage ``Retry-After`` headers)
followed by success, exhaustion, and the never-retry cases.
"""

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service import AnalysisClient, ServiceError, parse_retry_after

OK_DOCUMENT = {"schema": "repro.run-report/1",
               "jobs": [], "totals": {"jobs_failed": 0}}

#: The ``/analyze`` payload every scripted exchange sends.
REQUEST = {"deck": "deck", "nodes": ["out"]}


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _play(self):
        server = self.server
        with server.lock:
            server.requests.append((self.command, self.path))
            if server.script:
                status, headers, payload = server.script.pop(0)
            else:
                status, headers, payload = 200, {}, OK_DOCUMENT
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _play

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    server.script = []
    server.requests = []
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def client(stub, **options):
    options.setdefault("retries", 3)
    options.setdefault("backoff_base", 0.001)
    options.setdefault("rng", random.Random(0))
    return AnalysisClient(stub.url, timeout=5.0, **options)


def refusal(status, retry_after=None):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    return status, headers, {"error": "scripted refusal", "status": status}


class TestParseRetryAfter:
    def test_delta_seconds(self):
        assert parse_retry_after("2") == 2.0
        assert parse_retry_after("0.25") == 0.25
        assert parse_retry_after(" 3 ") == 3.0

    def test_negative_delta_clamps_to_zero(self):
        assert parse_retry_after("-5") == 0.0

    def test_http_date_in_the_future(self):
        import datetime

        when = (datetime.datetime.now(datetime.timezone.utc)
                + datetime.timedelta(seconds=120))
        parsed = parse_retry_after(
            when.strftime("%a, %d %b %Y %H:%M:%S GMT"))
        assert parsed is not None
        assert 100.0 < parsed <= 121.0

    def test_http_date_in_the_past_clamps_to_zero(self):
        assert parse_retry_after("Wed, 21 Oct 2015 07:28:00 GMT") == 0.0

    def test_garbage_is_no_hint_not_a_crash(self):
        # Regression: float("soon") used to escape as ValueError, masking
        # the 429/503 the header rode in on.
        for value in ("soon", "a while", "12 parsecs", "", "  ", None):
            assert parse_retry_after(value) is None


class TestRetryLoop:
    def test_transient_503_then_success(self, stub):
        stub.script[:] = [refusal(503, "0.01")]
        outcome = client(stub).call("analyze", REQUEST)
        assert outcome.document["totals"]["jobs_failed"] == 0
        assert len(stub.requests) == 2

    def test_transient_429_then_success(self, stub):
        stub.script[:] = [refusal(429, "0.01"), refusal(429, "0.01")]
        c = client(stub)
        assert c.call("analyze", REQUEST).document["totals"]["jobs_failed"] == 0
        stats = c.stats()
        assert stats["client_retries"] == 2
        assert stats["retries_exhausted"] == 0
        assert stats["retry_sleep_s"] >= 0.02  # honoured the hints

    def test_garbage_retry_after_still_retries(self, stub):
        stub.script[:] = [refusal(503, "just a moment")]
        assert (client(stub).call("analyze", REQUEST)
                .document["totals"]["jobs_failed"] == 0)
        assert len(stub.requests) == 2

    def test_exhaustion_raises_last_structured_error(self, stub):
        stub.script[:] = [refusal(503, "0.01")] * 10
        c = client(stub, retries=2)
        with pytest.raises(ServiceError) as excinfo:
            c.call("analyze", REQUEST)
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after == 0.01
        assert len(stub.requests) == 3  # 1 try + 2 retries
        stats = c.stats()
        assert stats["client_retries"] == 2
        assert stats["retries_exhausted"] == 1

    def test_400_is_final(self, stub):
        stub.script[:] = [refusal(400)]
        with pytest.raises(ServiceError) as excinfo:
            client(stub).call("analyze", REQUEST)
        assert excinfo.value.status == 400
        assert len(stub.requests) == 1
        assert client(stub).stats()["client_retries"] == 0

    def test_retries_zero_disables_retrying(self, stub):
        stub.script[:] = [refusal(503, "0.01")]
        with pytest.raises(ServiceError):
            client(stub, retries=0).call("analyze", REQUEST)
        assert len(stub.requests) == 1

    def test_budget_overrun_fails_fast_with_last_error(self, stub):
        # The server demands a 30 s wait the 0.05 s budget cannot fund:
        # the client must raise immediately instead of half-sleeping.
        stub.script[:] = [refusal(503, "30")]
        c = client(stub, retry_budget_s=0.05)
        with pytest.raises(ServiceError) as excinfo:
            c.call("analyze", REQUEST)
        assert excinfo.value.status == 503
        assert len(stub.requests) == 1
        stats = c.stats()
        assert stats["retries_exhausted"] == 1
        assert stats["retry_sleep_s"] == 0.0

    def test_connection_refused_is_retryable_status_zero(self):
        c = AnalysisClient("http://127.0.0.1:9", timeout=0.5,
                           retries=1, backoff_base=0.001,
                           rng=random.Random(0))
        with pytest.raises(ServiceError) as excinfo:
            c.call("analyze", REQUEST)
        assert excinfo.value.status == 0
        assert c.stats()["client_retries"] == 1

    def test_healthz_and_metrics_are_never_retried(self, stub):
        stub.script[:] = [refusal(503, "0.01")] * 4
        c = client(stub)
        with pytest.raises(ServiceError):
            c.healthz()
        with pytest.raises(ServiceError):
            c.metrics()
        assert len(stub.requests) == 2  # one each, no resends
        assert c.stats()["client_retries"] == 0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            AnalysisClient("http://127.0.0.1:1", retries=-1)
