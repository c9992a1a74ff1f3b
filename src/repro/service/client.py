"""HTTP client for the analysis daemon and gateway (stdlib ``urllib`` only).

One method answers every endpoint: :meth:`AnalysisClient.call` POSTs a
request's JSON payload to ``/<kind>`` verbatim and returns an
:class:`Outcome`.  The payload fields are the endpoint's own
(``ENDPOINTS[kind].fields`` in :mod:`repro.service.server`, documented
in ``docs/service.md``), so the client restates none of them.  The
outcome keeps the raw response bytes: a cache hit is *bit-identical* to
the cold run's body, and :attr:`Outcome.body` is how callers (the
benchmark suite, the CI smoke test) check that promise without trusting
any re-serialisation.

Retries
-------
Every endpoint is content-addressed on the server, so resending a
request is idempotent — the client therefore retries transient failures
(connection errors, socket timeouts, 429 queue-full, 503
draining/degraded/shed-load) with **capped exponential backoff and full
jitter**, honouring the server's ``Retry-After`` hint when it is larger
than the drawn backoff.  Both the attempt count (``retries``) and the
total time spent waiting (``retry_budget_s``) are capped; when either
runs out the *last* structured :class:`ServiceError` is raised, status
and ``retry_after`` intact.  ``GET /healthz`` and ``GET /metrics`` are
never retried: a 503 from ``/healthz`` is an answer (draining or
degraded), not a failure.
"""

from __future__ import annotations

import dataclasses
import datetime
import http.client
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.request
from email.utils import parsedate_to_datetime

from repro.errors import ReproError

#: Statuses worth resending an idempotent request for.  ``0`` is the
#: client-side bucket: connection refused/reset, socket timeout.
RETRYABLE_STATUSES = frozenset({0, 429, 503})


def parse_retry_after(value: str | None) -> float | None:
    """Lenient ``Retry-After`` parse: seconds, HTTP-date, or ``None``.

    RFC 9110 allows both delta-seconds and an HTTP-date, and proxies have
    been seen emitting garbage; a malformed value must read as "no hint",
    never raise — a crash here would mask the 429/503 it rode in on with
    an unrelated :class:`ValueError` traceback.
    """
    if value is None:
        return None
    value = value.strip()
    if not value:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        pass
    try:
        when = parsedate_to_datetime(value)
    except (TypeError, ValueError, IndexError, OverflowError):
        return None
    if when is None:
        return None
    if when.tzinfo is None:
        when = when.replace(tzinfo=datetime.timezone.utc)
    now = datetime.datetime.now(datetime.timezone.utc)
    return max(0.0, (when - now).total_seconds())


class ServiceError(ReproError):
    """A non-2xx response from the analysis service.

    ``status`` is the HTTP code (0 for client-side connection problems);
    ``retry_after`` carries the server's back-off hint in seconds when
    one was sent and parseable, else ``None``.
    """

    def __init__(self, message: str, status: int, retry_after: float | None = None):
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One answered request: ``document`` is the parsed report; ``body``
    the exact bytes received (a cache hit is bit-identical to the cold
    response); ``cached`` whether the server answered from its result
    cache; ``key`` the request's content address; ``server_elapsed_s``
    the server-side handling time (for a hit, the cache lookup; for a
    miss, the full computation)."""

    document: dict
    body: bytes
    cached: bool
    key: str
    server_elapsed_s: float


class AnalysisClient:
    """Talk to a running ``python -m repro serve`` daemon or
    ``python -m repro gateway``.

    Parameters
    ----------
    base_url:
        e.g. ``"http://127.0.0.1:8040"`` (a trailing slash is fine).
    timeout:
        Socket timeout in seconds for every call (default 60).
    retries:
        Extra attempts for a failed :meth:`call` (default 2; 0 disables
        retrying).  Only transient failures are retried
        (connection errors and HTTP 429/503); a 400 or a 504 is final.
    backoff_base / backoff_cap:
        The attempt-``k`` sleep is drawn uniformly from
        ``[0, min(backoff_cap, backoff_base * 2**k)]`` (full jitter),
        then raised to the server's ``Retry-After`` when that is larger.
    retry_budget_s:
        Total wall-clock budget for retry sleeps; a sleep that would
        overrun it raises the last error instead (default 30).
    rng:
        Optional :class:`random.Random` for the jitter draws (tests pin
        it for determinism).
    """

    def __init__(self, base_url: str, timeout: float = 60.0, *,
                 retries: int = 2, backoff_base: float = 0.1,
                 backoff_cap: float = 5.0, retry_budget_s: float = 30.0,
                 rng: random.Random | None = None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.retry_budget_s = retry_budget_s
        self._rng = rng if rng is not None else random.Random()
        self._stats_lock = threading.Lock()
        self._counters = {
            "client_retries": 0,
            "retry_sleep_s": 0.0,
            "retries_exhausted": 0,
        }

    # -- endpoints -----------------------------------------------------

    def call(self, kind: str, payload: dict) -> Outcome:
        """POST ``payload`` verbatim to ``/<kind>`` and return the answer.

        ``kind`` is an endpoint (``analyze``, ``sta``, ``sweep``) and
        ``payload`` its JSON request object, with the fields that
        endpoint's row of :data:`repro.service.server.ENDPOINTS`
        accepts (``docs/service.md``).  Every endpoint is
        content-addressed and so idempotent server-side: transient
        failures are retried (see the class docstring) and a retry can
        never double-compute a cached result.
        """
        _, body, headers = self._request(
            "POST", f"/{kind}", json.dumps(payload).encode("utf-8"),
            retry=True)
        return Outcome(
            document=json.loads(body),
            body=body,
            cached=headers.get("X-Repro-Cache") == "hit",
            key=headers.get("X-Repro-Key", ""),
            server_elapsed_s=float(headers.get("X-Repro-Elapsed-S", "nan")),
        )

    def healthz(self) -> dict:
        """The health document (raises :class:`ServiceError` with status
        503 once the server is draining or degraded — never retried, the
        503 *is* the answer)."""
        _, body, _ = self._request("GET", "/healthz")
        return json.loads(body)

    def metrics(self) -> dict:
        """The metrics document: request/queue/cache counters plus the
        cumulative solver instrumentation."""
        _, body, _ = self._request("GET", "/metrics")
        return json.loads(body)

    def stats(self) -> dict:
        """Client-side retry counters: ``client_retries`` (sleep/resend
        cycles taken), ``retry_sleep_s`` (total backoff slept),
        ``retries_exhausted`` (requests that failed even after every
        allowed attempt)."""
        with self._stats_lock:
            return dict(self._counters)

    # -- plumbing ------------------------------------------------------

    def _request(self, method: str, path: str, body: bytes | None = None,
                 retry: bool = False):
        attempts = self.retries if retry else 0
        deadline = (time.monotonic() + self.retry_budget_s) if attempts else None
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceError as exc:
                if attempt >= attempts or exc.status not in RETRYABLE_STATUSES:
                    if attempts and exc.status in RETRYABLE_STATUSES:
                        with self._stats_lock:
                            self._counters["retries_exhausted"] += 1
                    raise
                delay = self._rng.uniform(
                    0.0, min(self.backoff_cap, self.backoff_base * 2 ** attempt))
                if exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                if deadline is not None and delay > deadline - time.monotonic():
                    # Sleeping would overrun the budget: fail now with the
                    # last structured error rather than half-sleep.
                    with self._stats_lock:
                        self._counters["retries_exhausted"] += 1
                    raise
                time.sleep(delay)
                attempt += 1
                with self._stats_lock:
                    self._counters["client_retries"] += 1
                    self._counters["retry_sleep_s"] += delay

    def _request_once(self, method: str, path: str, body: bytes | None = None):
        request = urllib.request.Request(
            self.base_url + path, data=body, method=method,
            headers={"Content-Type": "application/json"} if body else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, response.read(), dict(response.headers)
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                message = json.loads(raw).get("error", raw.decode("utf-8", "replace"))
            except (ValueError, AttributeError):
                message = raw.decode("utf-8", "replace") or str(exc)
            raise ServiceError(
                f"HTTP {exc.code}: {message}", exc.code,
                retry_after=parse_retry_after(exc.headers.get("Retry-After")),
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc.reason}", 0) from None
        except (TimeoutError, socket.timeout) as exc:
            raise ServiceError(
                f"timed out talking to {self.base_url} "
                f"(socket timeout {self.timeout:g} s): {exc}", 0) from None
        except (ConnectionError, http.client.HTTPException) as exc:
            raise ServiceError(
                f"connection to {self.base_url} failed: "
                f"{type(exc).__name__}: {exc}", 0) from None
