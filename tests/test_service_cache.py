"""Tests for the service result cache (`repro.service.cache`)."""

import json
import threading

import pytest

from repro import faults
from repro.faults import FaultPlan
from repro.report import REPORT_SCHEMA
from repro.service.cache import ResultCache


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    faults.reset()
    yield
    faults.reset()


def body(tag: str, pad: int = 0) -> bytes:
    """A schema-tagged JSON body (what the server actually stores)."""
    document = {"schema": REPORT_SCHEMA, "tag": tag, "pad": "x" * pad}
    return (json.dumps(document) + "\n").encode()


class TestLru:
    def test_miss_then_hit(self):
        cache = ResultCache(max_bytes=1 << 20)
        assert cache.get("k1") is None
        cache.put("k1", body("one"))
        assert cache.get("k1") == body("one")
        stats = cache.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_stores"] == 1
        assert stats["cache_entries"] == 1

    def test_byte_budget_evicts_least_recently_used(self):
        one, two, three = body("one", 300), body("two", 300), body("three", 300)
        cache = ResultCache(max_bytes=len(one) + len(two) + 10)
        cache.put("one", one)
        cache.put("two", two)
        cache.get("one")          # refresh: "two" is now the LRU entry
        cache.put("three", three)  # must evict exactly one entry: "two"
        assert cache.get("one") is not None
        assert cache.get("three") is not None
        assert cache.get("two") is None
        assert cache.stats()["cache_evictions"] == 1
        assert cache.stats()["cache_bytes"] <= cache.max_bytes

    def test_replacing_a_key_reclaims_its_bytes(self):
        cache = ResultCache(max_bytes=1 << 20)
        cache.put("k", body("a", 500))
        cache.put("k", body("b", 10))
        assert cache.stats()["cache_bytes"] == len(body("b", 10))
        assert cache.get("k") == body("b", 10)

    def test_oversize_body_is_not_cached_in_memory(self):
        cache = ResultCache(max_bytes=64)
        cache.put("big", body("big", 500))
        assert len(cache) == 0
        assert cache.stats()["cache_oversize_skips"] == 1
        # It never evicted anything to make room it could not provide.
        assert cache.stats()["cache_evictions"] == 0

    def test_oversize_skips_counted_once_not_per_disk_promotion(self, tmp_path):
        """Regression: a get() that promotes the disk copy back toward
        memory re-skips the oversize body but must not re-count it —
        the counter reports oversize *stores*, not touches."""
        directory = str(tmp_path / "cache")
        cache = ResultCache(max_bytes=64, directory=directory)
        big = body("big", 500)
        cache.put("big", big)
        assert cache.stats()["cache_oversize_skips"] == 1
        for _ in range(3):
            assert cache.get("big") == big  # served from disk every time
        stats = cache.stats()
        assert stats["cache_disk_hits"] == 3
        assert stats["cache_oversize_skips"] == 1

    def test_rejects_non_bytes(self):
        cache = ResultCache()
        with pytest.raises(TypeError):
            cache.put("k", {"schema": REPORT_SCHEMA})

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestDiskTier:
    def test_restart_warm(self, tmp_path):
        directory = str(tmp_path / "cache")
        first = ResultCache(max_bytes=1 << 20, directory=directory)
        first.put("k1", body("persisted"))

        second = ResultCache(max_bytes=1 << 20, directory=directory)
        assert second.get("k1") == body("persisted")
        stats = second.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_disk_hits"] == 1
        # Promoted into memory: the next hit does not touch the disk.
        assert second.get("k1") == body("persisted")
        assert second.stats()["cache_disk_hits"] == 1

    def test_corrupt_disk_entry_is_dropped(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory=directory)
        cache.put("k1", body("fine"))
        path = tmp_path / "cache" / "k1.json"
        path.write_bytes(b'{"schema": "repro.run-')  # truncated write
        cache.clear()
        assert cache.get("k1") is None
        assert not path.exists()

    def test_wrong_schema_on_disk_is_dropped(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory=directory)
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "k1.json").write_bytes(
            b'{"schema": "repro.run-report/0"}')
        assert cache.get("k1") is None
        assert not (tmp_path / "cache" / "k1.json").exists()

    def test_memory_only_cache_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ResultCache()
        cache.put("k1", body("one"))
        assert list(tmp_path.iterdir()) == []

    def test_uncreatable_directory_is_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")  # a *file* where the parent dir must go
        cache = ResultCache(directory=str(blocker / "cache"))
        cache.put("k1", body("one"))  # must not raise
        assert cache.get("k1") == body("one")
        assert cache.stats()["cache_disk_store_failures"] == 1

    def test_injected_store_fault_is_counted_and_survived(self, tmp_path):
        faults.install(FaultPlan.parse("cache_io_store=1:x2"))
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory=directory)
        cache.put("k1", body("one"))
        cache.put("k2", body("two"))
        cache.put("k3", body("three"))  # probe cap exhausted: this lands
        stats = cache.stats()
        assert stats["cache_disk_store_failures"] == 2
        assert stats["cache_stores"] == 3
        # Memory tier was never affected; only k3 reached the disk.
        assert cache.get("k1") == body("one")
        restarted = ResultCache(directory=directory)
        assert restarted.get("k1") is None
        assert restarted.get("k3") == body("three")

    def test_injected_load_fault_reads_as_miss(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory=directory)
        cache.put("k1", body("one"))
        cache.clear()
        faults.install(FaultPlan.parse("cache_io_load=1:x1"))
        assert cache.get("k1") is None          # injected read error
        assert cache.get("k1") == body("one")   # disk is fine afterwards


class TestThreadSafety:
    def test_concurrent_puts_and_gets_stay_consistent(self):
        cache = ResultCache(max_bytes=16 * 1024)
        errors = []

        def hammer(tag):
            try:
                for i in range(200):
                    key = f"{tag}-{i % 7}"
                    cache.put(key, body(key, 40))
                    got = cache.get(key)
                    assert got is None or got == body(key, 40)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in "abcd"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["cache_bytes"] <= cache.max_bytes
        assert stats["cache_stores"] == 800


class TestDiskSchemas:
    """Both result schemas persist: an `/sta` body on disk must survive
    a restart exactly like a run-report (it used to be unlinked as
    corrupt, silently re-running every persisted STA request)."""

    def test_sta_report_round_trips_through_disk(self, tmp_path):
        from repro.report import STA_REPORT_SCHEMA

        directory = str(tmp_path / "cache")
        sta = (json.dumps({"schema": STA_REPORT_SCHEMA,
                           "kind": "sta", "design": "d"}) + "\n").encode()
        ResultCache(directory=directory).put("sta-key", sta)

        rebooted = ResultCache(directory=directory)
        assert rebooted.get("sta-key") == sta
        assert rebooted.stats()["cache_disk_hits"] == 1
        assert (tmp_path / "cache" / "sta-key.json").exists()

    def test_every_endpoints_report_round_trips_through_disk(self, tmp_path):
        """Each `ENDPOINTS` row's clean report survives a restart (the
        `/sweep` schema was missing, so its disk entries were dropped)."""
        from repro.engine import BatchEngine
        from repro.service.server import ENDPOINTS, canonicalize

        requests = {
            "analyze": {"deck": "d\nVin in 0 STEP(0 5)\nR1 in 1 1k\n"
                                "C1 1 0 1p\n.end\n", "nodes": ["1"]},
            "sta": {"design": {
                "name": "disk", "inputs": [{"name": "i1", "net": "n"}],
                "outputs": [{"name": "o1", "net": "n", "required": 1e-9}],
                "instances": [], "nets": [{"name": "n", "segments": []}]}},
            "sweep": {"deck": "d\nVin in 0 STEP(0 5)\nR1 in 1 1k\n"
                              "C1 1 0 1p\n.end\n", "node": "1",
                      "points": [{"element": "R1", "scale": 2.0}]},
        }
        assert set(requests) == set(ENDPOINTS)
        directory = str(tmp_path / "cache")
        for kind, payload in requests.items():
            _, params = canonicalize(kind, json.dumps(payload).encode())
            document = ENDPOINTS[kind].run(params, BatchEngine(), None, 0.0)
            body = (json.dumps(document) + "\n").encode()
            ResultCache(directory=directory).put(kind, body)
            assert ResultCache(directory=directory).get(kind) == body, kind
