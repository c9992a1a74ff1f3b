"""Long-lived AWE analysis service: daemon, cache, client.

The one-shot CLI pays full process startup, deck parsing, and MNA
factorisation on every invocation and throws the results away.  This
package amortises that cost one level above the moment recursion: a
daemon (``python -m repro serve``) keeps a pool of
:class:`~repro.engine.batch.BatchEngine` workers hot and fronts them
with a content-addressed result cache, so the timing loops that resubmit
the same (or a trivially reformatted) deck get their run report back in
microseconds instead of milliseconds.

* :mod:`repro.service.canon` — canonical deck text and request hashing:
  whitespace / comment / element-order / unit-spelling variants of one
  circuit map to one cache key.
* :mod:`repro.service.cache` — byte-budget LRU of validated
  ``repro.run-report/1`` JSON documents, with optional on-disk
  persistence and hit/miss/eviction counters.
* :mod:`repro.service.server` — the server core the daemon and the
  gateway share: one endpoint table (``POST /analyze``, ``POST /sta``,
  ``POST /sweep``), one request skeleton, one health/canary policy and
  one stdlib ``http.server`` front (``GET /healthz``,
  ``GET /metrics``); the daemon on top of it, with a bounded queue,
  429 admission control, per-request timeouts, and graceful SIGTERM
  drain; and :func:`~repro.service.server.answer`, which answers one
  request in process through the same endpoint row.
* :mod:`repro.service.client` — a dependency-free HTTP client whose one
  :meth:`~repro.service.client.AnalysisClient.call` POSTs any
  endpoint's payload, with capped, full-jitter retry for transient
  failures.

The CLI's ``analyze``, ``sta`` and ``sweep`` build the JSON payload an
endpoint takes, then send it with ``--server`` through ``call`` or
answer it locally through ``answer``; either way the request is parsed
and run by its endpoint row, and the answer is an :class:`Outcome`.
The request/response schema, cache semantics, and metrics fields are
documented in ``docs/service.md``.
"""

from repro.service.cache import ResultCache
from repro.service.canon import (canonical_deck, request_key,
                                 sta_request_key, sweep_request_key)
from repro.service.client import (AnalysisClient, Outcome, ServiceError,
                                  parse_retry_after)
from repro.service.server import AnalysisService, ServiceServer, answer, serve

__all__ = [
    "AnalysisClient",
    "AnalysisService",
    "Outcome",
    "ResultCache",
    "ServiceError",
    "ServiceServer",
    "answer",
    "canonical_deck",
    "parse_retry_after",
    "request_key",
    "serve",
    "sta_request_key",
    "sweep_request_key",
]
