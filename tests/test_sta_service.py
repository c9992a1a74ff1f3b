"""Service tests for ``POST /sta``: error paths, caching, HTTP surface.

The same contract the ``/analyze`` tests pin down, at the second
endpoint: malformed or invalid designs are 400 at parse time (never
reaching a worker), deadlines are 504, a warm hit is **bit-identical**
to the cold response, and the 404 help strings advertise ``/sta``.
"""

import json

import pytest

from repro.report import validate_sta_report
from repro.service import (
    AnalysisClient,
    AnalysisService,
    ServiceError,
    ServiceServer,
    sta_request_key,
)
from repro.sta import NOMINAL, Corner, Design, default_library


def demo_design_dict(name="svc-demo", wire_r=200.0):
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
                {"a": "root", "b": "o1", "resistance": wire_r,
                 "capacitance": 15e-15}]},
        ],
    }


def sta_body(**overrides):
    payload = {"design": demo_design_dict()}
    payload.update(overrides)
    return json.dumps(payload).encode()


@pytest.fixture
def service():
    svc = AnalysisService(workers=1, queue_size=4).start()
    yield svc
    svc.close(timeout=60)


class TestStaSubmit:
    def test_cold_then_warm_is_bit_identical(self, service):
        status, body, headers = service.submit(sta_body(), kind="sta")
        assert status == 200, body
        assert headers["X-Repro-Cache"] == "miss"
        document = validate_sta_report(json.loads(body))
        assert document["kind"] == "sta"
        assert document["design"] == "svc-demo"

        status2, body2, headers2 = service.submit(sta_body(), kind="sta")
        assert status2 == 200
        assert headers2["X-Repro-Cache"] == "hit"
        assert body2 == body
        assert headers2["X-Repro-Key"] == headers["X-Repro-Key"]

    def test_key_matches_canon_helper(self, service):
        _, _, headers = service.submit(sta_body(k=4), kind="sta")
        design = Design.from_dict(demo_design_dict())
        assert headers["X-Repro-Key"] == sta_request_key(
            design, 4, (NOMINAL,), "awe")

    def test_invalid_json_is_400(self, service):
        status, body, _ = service.submit(b"{not json", kind="sta")
        assert status == 400
        assert "JSON" in json.loads(body)["error"]

    def test_malformed_design_is_400(self, service):
        status, body, _ = service.submit(
            json.dumps({"design": {"name": "x"}}).encode(), kind="sta")
        assert status == 400
        assert json.loads(body)["error_type"] == "StaError"

    def test_semantically_invalid_design_is_400(self, service):
        # Structurally parseable, but the net has no sinks: caught by
        # design.validate at parse time, before any worker is involved.
        design = demo_design_dict()
        design["instances"] = []
        design["nets"] = [{"name": "n_in", "segments": []},
                          {"name": "n_out", "segments": []}]
        status, body, _ = service.submit(
            json.dumps({"design": design}).encode(), kind="sta")
        assert status == 400
        assert "n_in" in json.loads(body)["error"]

    def test_cyclic_design_is_400(self, service):
        design = {
            "name": "ring",
            "inputs": [{"name": "i1", "net": "n_in"}],
            "outputs": [{"name": "o1", "net": "n1", "required": 1e-9}],
            "instances": [
                {"name": "u1", "cell": "NAND2_X1",
                 "connections": {"A": "n_in", "B": "n2", "Y": "n1"}},
                {"name": "u2", "cell": "INV_X1",
                 "connections": {"A": "n1", "Y": "n2"}},
            ],
            "nets": [{"name": "n_in"}, {"name": "n1"}, {"name": "n2"}],
        }
        status, body, _ = service.submit(
            json.dumps({"design": design}).encode(), kind="sta")
        assert status == 400
        assert "cycle" in json.loads(body)["error"]

    def test_unknown_field_is_400(self, service):
        status, body, _ = service.submit(sta_body(vibes=1), kind="sta")
        assert status == 400
        assert "vibes" in json.loads(body)["error"]

    @pytest.mark.parametrize("overrides, fragment", [
        ({"k": -1}, "k"),
        ({"k": True}, "k"),
        ({"interconnect": "psychic"}, "interconnect"),
        ({"corners": []}, "corners"),
        ({"corners": [{"name": "a"}, {"name": "a"}]}, "unique"),
        ({"timeout": -2}, "timeout"),
    ])
    def test_bad_parameters_are_400(self, service, overrides, fragment):
        status, body, _ = service.submit(sta_body(**overrides), kind="sta")
        assert status == 400
        assert fragment in json.loads(body)["error"]

    def test_impossible_deadline_is_504(self, service):
        status, body, _ = service.submit(sta_body(timeout=1e-6), kind="sta")
        assert status == 504
        assert "budget" in json.loads(body)["error"]

    def test_custom_corners_and_library_round_trip(self, service):
        library = default_library().to_dict()
        body_bytes = sta_body(
            corners=[Corner(name="slow", wire_r=1.5, cell=1.3).to_dict()],
            library=library, interconnect="elmore", k=2)
        status, body, _ = service.submit(body_bytes, kind="sta")
        assert status == 200, body
        document = validate_sta_report(json.loads(body))
        assert [c["name"] for c in document["corners"]] == ["slow"]
        assert document["interconnect"] == "elmore"


class TestStaHttp:
    def test_client_round_trip_and_cache_hit(self):
        with ServiceServer(port=0, workers=1) as server:
            client = AnalysisClient(server.url, timeout=60)
            design = Design.from_dict(demo_design_dict())
            request = {"design": design.to_canonical_dict(), "k": 3}
            cold = client.call("sta", request)
            assert not cold.cached
            assert cold.document["worst_slack_s"] is not None
            assert cold.document["k"] == 3

            warm = client.call("sta", request)
            assert warm.cached
            assert warm.body == cold.body
            assert warm.key == cold.key

            metrics = client.metrics()
            assert metrics["cache_hits"] >= 1

    def test_http_400_surfaces_as_service_error(self):
        with ServiceServer(port=0, workers=1) as server:
            client = AnalysisClient(server.url, timeout=30)
            with pytest.raises(ServiceError) as excinfo:
                client.call("sta", {"design": {"name": "broken"}})
            assert excinfo.value.status == 400

    def test_404_help_strings_mention_sta(self):
        with ServiceServer(port=0, workers=1) as server:
            client = AnalysisClient(server.url, timeout=30)
            with pytest.raises(ServiceError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404
            assert "/sta" in str(excinfo.value)
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/nope", b"{}")
            assert excinfo.value.status == 404
            assert "/sta" in str(excinfo.value)
