"""Result cache: content-addressed run-report documents, LRU by bytes.

Values are the *serialised* ``repro.run-report/1`` JSON bodies the
server would send — caching bytes rather than objects is what makes the
warm-hit guarantee trivial: a hit returns the cold run's response
bit-identical, no re-serialisation involved.

Two tiers:

* an in-memory LRU bounded by a byte budget (``max_bytes``), because a
  report for a many-node request can run to hundreds of kilobytes and
  "number of entries" is the wrong unit to bound a daemon's footprint;
* optional on-disk persistence (``directory=``): every store is written
  through atomically, and a memory miss falls back to disk, so a
  restarted daemon starts warm.  Disk entries are re-validated on load
  (parseable JSON with the right schema tag) and quietly discarded when
  corrupt.

All operations are thread-safe; the counters (``hits`` / ``misses`` /
``evictions`` / ``disk_hits`` / ``stores`` / ``oversize_skips`` /
``disk_store_failures``) feed the server's ``/metrics`` endpoint.
Disk persistence stays best-effort — a full or read-only disk never
fails the request whose report was already computed — but every failed
write-through is counted (``disk_store_failures``) so the condition is
diagnosable instead of silent.
"""

from __future__ import annotations

import collections
import json
import os
import threading

from repro import faults
from repro.report import REPORT_SCHEMA, STA_REPORT_SCHEMA, SWEEP_REPORT_SCHEMA

#: Disk entries are re-validated on load; every document kind the
#: service caches is legitimate.  (A missing schema silently discards
#: persisted bodies of that kind as "corrupt" — a restart loses every
#: warm entry of the endpoint.)
_DISK_SCHEMAS = frozenset({REPORT_SCHEMA, STA_REPORT_SCHEMA,
                           SWEEP_REPORT_SCHEMA})


class ResultCache:
    """Byte-budget LRU of serialised run-report documents.

    Parameters
    ----------
    max_bytes:
        In-memory budget.  Inserting past it evicts least-recently-used
        entries; a single body larger than the whole budget is stored
        only on disk (counted in ``oversize_skips``).
    directory:
        Optional persistence directory (created on demand).  ``None``
        keeps the cache memory-only.
    """

    def __init__(self, max_bytes: int = 64 * 1024 * 1024,
                 directory: str | None = None):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        self.max_bytes = int(max_bytes)
        self.directory = directory
        self._entries: collections.OrderedDict[str, bytes] = collections.OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._counters = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "stores": 0,
            "disk_hits": 0,
            "oversize_skips": 0,
            "disk_store_failures": 0,
        }

    # -- lookup / store ------------------------------------------------

    def get(self, key: str) -> bytes | None:
        """The cached body for ``key``, or ``None``.  A hit refreshes
        the entry's LRU position; a memory miss consults the disk tier
        (counted as both a hit and a ``disk_hit``)."""
        body = self.memory_hit(key)
        if body is not None:
            return body
        body = self._disk_load(key)
        with self._lock:
            if body is None:
                self._counters["misses"] += 1
                return None
            self._counters["hits"] += 1
            self._counters["disk_hits"] += 1
            self._store_in_memory(key, body)
            return body

    def memory_hit(self, key: str) -> bytes | None:
        """The in-memory body for ``key``, counted as a hit, or ``None``
        without touching the disk tier or counting a miss: the second
        look of a caller whose :meth:`get` has already counted one."""
        with self._lock:
            body = self._entries.get(key)
            if body is not None:
                self._entries.move_to_end(key)
                self._counters["hits"] += 1
            return body

    def put(self, key: str, body: bytes) -> None:
        """Store ``body`` under ``key`` (write-through to disk when
        persistence is configured)."""
        if not isinstance(body, bytes):
            raise TypeError(f"cache bodies are bytes, got {type(body).__name__}")
        with self._lock:
            self._counters["stores"] += 1
            if len(body) > self.max_bytes:
                # Counted here, on the store, and only here: a get() that
                # later promotes the disk copy back toward memory re-skips
                # but must not re-count, or the counter reports touches.
                self._counters["oversize_skips"] += 1
            self._store_in_memory(key, body)
        self._disk_store(key, body)

    def clear(self) -> None:
        """Drop every in-memory entry (disk entries are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> dict:
        """Counter snapshot plus current occupancy, ``cache_``-prefixed
        so the server can merge it straight into ``/metrics``."""
        with self._lock:
            out = {f"cache_{name}": count for name, count in self._counters.items()}
            out["cache_entries"] = len(self._entries)
            out["cache_bytes"] = self._bytes
            out["cache_max_bytes"] = self.max_bytes
            return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals -----------------------------------------------------

    def _store_in_memory(self, key: str, body: bytes) -> None:
        """Insert/refresh under the byte budget; caller holds the lock.

        A body larger than the whole budget is skipped silently —
        ``put()`` owns the ``oversize_skips`` count so disk-hit
        promotions through :meth:`get` don't inflate it.
        """
        if len(body) > self.max_bytes:
            return
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
        self._entries[key] = body
        self._bytes += len(body)
        while self._bytes > self.max_bytes:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= len(evicted)
            self._counters["evictions"] += 1

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _disk_store(self, key: str, body: bytes) -> None:
        if self.directory is None:
            return
        path = self._disk_path(key)
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            if faults.active().fire("cache_io_store"):
                raise OSError("injected fault: cache disk store")
            # makedirs is inside the try: an unwritable parent directory
            # is exactly the best-effort failure this guard exists for.
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "wb") as handle:
                handle.write(body)
            os.replace(tmp, path)
        except OSError:
            # Persistence is best-effort; a full or read-only disk must
            # never fail the request whose report was already computed —
            # but it must be visible, so count it for stats()/metrics.
            with self._lock:
                self._counters["disk_store_failures"] += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _disk_load(self, key: str) -> bytes | None:
        if self.directory is None:
            return None
        path = self._disk_path(key)
        try:
            if faults.active().fire("cache_io_load"):
                raise OSError("injected fault: cache disk load")
            with open(path, "rb") as handle:
                body = handle.read()
        except OSError:
            return None
        try:
            document = json.loads(body)
            if document.get("schema") not in _DISK_SCHEMAS:
                raise ValueError(f"wrong schema: {document.get('schema')!r}")
        except (ValueError, AttributeError):
            # A truncated write or a stale schema: drop the file so the
            # corruption is paid for once, then treat it as a miss.
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        return body
