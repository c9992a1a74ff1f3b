"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main

DECK = """\
cli test net
Vin in 0 STEP(0 5)
R1 in 1 1k
C1 1 0 1p
R2 1 2 2k
C2 2 0 0.5p
.end
"""


@pytest.fixture
def deck_file(tmp_path):
    path = tmp_path / "net.sp"
    path.write_text(DECK)
    return str(path)


class TestReport:
    def test_basic_report(self, deck_file, capsys):
        assert main(["report", deck_file, "--node", "2"]) == 0
        out = capsys.readouterr().out
        assert "AWE timing report" in out
        assert "cli test net" in out
        assert " 2 " in out

    def test_fixed_order(self, deck_file, capsys):
        assert main(["report", deck_file, "--node", "2", "--order", "1"]) == 0
        out = capsys.readouterr().out
        assert "    1 " in out

    def test_threshold_column(self, deck_file, capsys):
        assert main(
            ["report", deck_file, "--node", "2", "--threshold", "4.0"]
        ) == 0
        assert "thr delay" in capsys.readouterr().out

    def test_unreached_threshold_reports_na(self, deck_file, capsys):
        assert main(
            ["report", deck_file, "--node", "2", "--threshold", "6.0"]
        ) == 0
        assert capsys.readouterr().out.splitlines()[-1].split()[-1] == "n/a"

    def test_multiple_nodes(self, deck_file, capsys):
        assert main(["report", deck_file, "--node", "1", "--node", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n  1 ") + out.count("\n  2 ") >= 2

    def test_missing_deck(self, capsys):
        assert main(["report", "/nonexistent.sp", "--node", "2"]) == 2

    def test_bad_node(self, deck_file, capsys):
        assert main(["report", deck_file, "--node", "zz"]) == 1
        assert "error" in capsys.readouterr().err


class TestPoles:
    def test_exact_poles(self, deck_file, capsys):
        assert main(["poles", deck_file]) == 0
        out = capsys.readouterr().out
        assert "exact poles (2)" in out

    def test_awe_poles(self, deck_file, capsys):
        assert main(["poles", deck_file, "--order", "2", "--node", "2"]) == 0
        out = capsys.readouterr().out
        assert "AWE poles, order 2" in out

    def test_order_without_node(self, deck_file, capsys):
        assert main(["poles", deck_file, "--order", "2"]) == 2


class TestSimulate:
    def test_summary(self, deck_file, capsys):
        assert main(["simulate", deck_file, "--node", "2", "--t-stop", "2e-8"]) == 0
        out = capsys.readouterr().out
        assert "transient:" in out
        assert "v(2)" in out

    def test_csv_output(self, deck_file, tmp_path, capsys):
        csv = str(tmp_path / "wave.csv")
        assert main(
            ["simulate", deck_file, "--node", "1", "--node", "2",
             "--t-stop", "2e-8", "--csv", csv]
        ) == 0
        data = np.genfromtxt(csv, delimiter=",", names=True)
        assert {"time", "v1", "v2"} <= set(data.dtype.names)
        assert data["v2"][-1] == pytest.approx(5.0, rel=1e-2)


class TestShippedDecks:
    """The decks under examples/decks must stay loadable by every command."""

    @pytest.fixture(params=["bus_segment.sp", "pcb_trace.sp"])
    def shipped(self, request):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "decks", request.param)
        return os.path.abspath(path)

    def test_poles(self, shipped, capsys):
        assert main(["poles", shipped]) == 0
        assert "exact poles" in capsys.readouterr().out

    def test_report_runs(self, shipped, capsys):
        node = "a3" if "bus" in shipped else "t6"
        assert main(["report", shipped, "--node", node, "--target", "0.05"]) == 0

    @staticmethod
    def deck(name):
        import os

        return os.path.abspath(os.path.join(
            os.path.dirname(__file__), "..", "examples", "decks", name))

    def test_unstable_fixed_order_reports_na(self, capsys):
        # Order 3 on the lossy board trace fits an unstable pole: no final
        # value and no delay, which the JSON report also gives as null.
        assert main(["report", self.deck("pcb_trace.sp"), "--node", "t6",
                     "--order", "3"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row == ["t6", "3", "n/a", "n/a", "n/a"]

    def test_batch_row_after_unstable_fit(self, capsys):
        decks = [self.deck("pcb_trace.sp"), self.deck("bus_segment.sp")]
        assert main(["batch", *decks, "--node", "t6", "--order", "3"]) == 1
        out = capsys.readouterr().out
        assert " t6 " in out and "n/a" in out
        assert "FAILED [CircuitError]" in out  # the second deck's row
        assert "1 of 2 job(s) failed" in out

    def test_victim_without_transition_reports_na(self, capsys):
        import os

        deck = os.path.abspath(os.path.join(
            os.path.dirname(__file__), "..", "examples", "decks",
            "bus_segment.sp"))
        assert main(["report", deck, "--node", "v2", "--target", "0.05"]) == 0
        assert "n/a" in capsys.readouterr().out


class TestSensitivity:
    def test_report(self, deck_file, capsys):
        assert main(["sensitivity", deck_file, "--node", "2"]) == 0
        out = capsys.readouterr().out
        assert "Elmore" in out
        assert "R1" in out and "C2" in out

    def test_top_limit(self, deck_file, capsys):
        assert main(["sensitivity", deck_file, "--node", "2", "--top", "2"]) == 0
        out = capsys.readouterr().out
        # Header + exactly two contributor lines mentioning elements.
        contributor_lines = [l for l in out.splitlines() if l.startswith("  R") or l.startswith("  C")]
        assert len(contributor_lines) == 2

    def test_unknown_node(self, deck_file, capsys):
        assert main(["sensitivity", deck_file, "--node", "zz"]) == 1


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


DECK_B = """\
second net
Vin in 0 STEP(0 5)
R1 in 1 5k
C1 1 0 2p
R2 1 2 1k
C2 2 0 1p
.end
"""


class TestBatch:
    @pytest.fixture
    def two_decks(self, tmp_path):
        a = tmp_path / "a.sp"
        b = tmp_path / "b.sp"
        a.write_text(DECK)
        b.write_text(DECK_B)
        return [str(a), str(b)]

    def test_batch_two_decks(self, two_decks, capsys):
        assert main(["batch", *two_decks, "--node", "2"]) == 0
        out = capsys.readouterr().out
        assert "batch: 2 job(s)" in out
        assert "cli test net" in out and "second net" in out

    def test_batch_multiple_nodes(self, two_decks, capsys):
        assert main(["batch", *two_decks, "--node", "1", "--node", "2"]) == 0
        out = capsys.readouterr().out
        # Each deck reports each node on its own line.
        assert out.count(" 1 ") >= 2 and out.count(" 2 ") >= 2

    def test_batch_stats_is_one_json_object_on_stderr(self, two_decks, capsys):
        import json

        assert main(["batch", *two_decks, "--node", "2", "--stats"]) == 0
        captured = capsys.readouterr()
        # The human-readable table stays on stdout; stderr carries exactly
        # one machine-readable JSON object.
        assert "batch: 2 job(s)" in captured.out
        assert "lu_factorizations" not in captured.out
        stats = json.loads(captured.err)
        assert stats["lu_factorizations"] >= 1
        assert stats["triangular_solves"] >= 1
        assert stats["jobs"] == 2

    def test_batch_stats_json_file(self, two_decks, tmp_path, capsys):
        import json

        path = tmp_path / "stats.json"
        assert main(["batch", *two_decks, "--node", "2",
                     "--stats-json", str(path)]) == 0
        captured = capsys.readouterr()
        assert str(path) in captured.err
        stats = json.loads(path.read_text())
        assert stats["lu_factorizations"] >= 1

    def test_batch_failure_isolated(self, two_decks, tmp_path, capsys):
        bad = tmp_path / "bad.sp"
        bad.write_text("broken deck\nnot an element line\n.end\n")
        assert main(["batch", two_decks[0], str(bad), "--node", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAILED [parse]" in out
        assert "cli test net" in out  # the good deck still ran

    def test_batch_unknown_node_failure(self, two_decks, capsys):
        assert main(["batch", *two_decks, "--node", "zz"]) == 1
        out = capsys.readouterr().out
        assert "FAILED [CircuitError]" in out
        assert "2 of 2 job(s) failed" in out

    def test_failed_row_states_the_type_once(self, two_decks, capsys):
        assert main(["batch", *two_decks, "--node", "zz"]) == 1
        out = capsys.readouterr().out
        assert "FAILED [CircuitError] unknown node 'zz'" in out
        assert "repro.errors" not in out

    def test_run_report_error_is_the_message_alone(self, two_decks, tmp_path,
                                                    capsys):
        import json

        path = tmp_path / "report.json"
        assert main(["report", two_decks[0], "--node", "zz",
                     "--json", str(path)]) == 1
        (job,) = json.loads(path.read_text())["jobs"]
        assert job["error_type"] == "CircuitError"
        assert job["error"] == "unknown node 'zz'"


class TestAnalyzeAgainstServer:
    """`python -m repro analyze` against an in-process daemon."""

    @pytest.fixture
    def server_url(self):
        from repro.service import ServiceServer

        with ServiceServer(port=0, workers=1) as server:
            yield server.url

    def test_analyze_then_cache_hit(self, deck_file, server_url, capsys):
        assert main(["analyze", deck_file, "--server", server_url,
                     "--node", "2"]) == 0
        captured = capsys.readouterr()
        assert "computed" in captured.err
        assert "cli test net" in captured.out
        assert " 2 " in captured.out

        assert main(["analyze", deck_file, "--server", server_url,
                     "--node", "2"]) == 0
        assert "cache hit" in capsys.readouterr().err

    def test_analyze_json_output(self, deck_file, server_url, tmp_path, capsys):
        import json

        out_path = tmp_path / "report.json"
        assert main(["analyze", deck_file, "--server", server_url,
                     "--node", "2", "--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.run-report/1"
        assert document["totals"]["jobs_failed"] == 0

    def test_analyze_failure_exit_code(self, deck_file, server_url, capsys):
        assert main(["analyze", deck_file, "--server", server_url,
                     "--node", "zz"]) == 1
        assert "CircuitError" in capsys.readouterr().err

    def test_analyze_unreachable_server(self, deck_file, capsys):
        assert main(["analyze", deck_file, "--server",
                     "http://127.0.0.1:9", "--node", "2"]) == 1
        assert "error" in capsys.readouterr().err


class TestEndpointCommands:
    """`sta`, `sweep` and `analyze` build the payload their endpoint
    takes and answer it in process or with `--server`; both paths parse
    and run it through the endpoint's row, so the documents agree."""

    @pytest.fixture(scope="class")
    def server_url(self):
        from repro.service import ServiceServer

        with ServiceServer(port=0, workers=1) as server:
            yield server.url

    @staticmethod
    def document(capsys, argv) -> dict:
        import json

        assert main([*argv, "--json", "-"]) == 0
        return json.loads(capsys.readouterr().out)

    @staticmethod
    def daemon(url, kind, payload):
        from repro.service import AnalysisClient

        return AnalysisClient(url).call(kind, payload)

    def test_sta_local_and_served_agree(self, server_url, tmp_path, capsys,
                                        monkeypatch):
        import io
        import json

        from repro.sta import default_library
        from tests.test_server_core import DESIGN, answers

        library = default_library().to_dict()
        library_path = tmp_path / "library.json"
        library_path.write_text(json.dumps(library))
        argv = ["sta", "-", "--library", str(library_path),
                "--corner", "nominal", "--corner", "slow:wire_r=1.5,cell=1.3"]
        documents = []
        for server in ([], ["--server", server_url]):
            monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(DESIGN)))
            documents.append(self.document(capsys, argv + server))
        local, served = documents
        assert [corner["name"] for corner in local["corners"]] == [
            "nominal", "slow"]
        assert answers(local) == answers(served)

        direct = self.daemon(server_url, "sta", {
            "design": DESIGN, "k": 5,
            "corners": [{"name": "nominal"},
                        {"name": "slow", "wire_r": 1.5, "cell": 1.3}],
            "interconnect": "awe", "library": library})
        assert direct.cached  # the same payload: the CLI's cache entry
        assert answers(direct.document) == answers(local)

    def test_sweep_local_and_served_agree(self, deck_file, server_url,
                                          tmp_path, capsys):
        import json

        from tests.test_server_core import answers

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"points": [{"element": "C1", "scale": 2.0}], "mode": "exact"}))
        argv = ["sweep", deck_file, "--node", "2",
                "--point", "R2:scale=1.1", "--plan", str(plan)]
        local = self.document(capsys, argv)
        served = self.document(capsys, argv + ["--server", server_url])
        # The plan file's mode pins every point, --point's too.
        assert [point["mode"] for point in local["points"]] == [
            "exact", "exact"]
        assert answers(local) == answers(served)

        direct = self.daemon(server_url, "sweep", {
            "deck": DECK, "node": "2",
            "points": [{"element": "R2", "scale": 1.1},
                       {"element": "C1", "scale": 2.0}],
            "mode": "exact", "first_order_threshold": 0.05,
            "error_bound": 1e-3})
        assert direct.cached
        assert answers(direct.document) == answers(local)

    def test_analyze_against_a_server_answers_as_report(
            self, deck_file, server_url, capsys):
        from tests.test_server_core import answers

        served = self.document(capsys, ["analyze", deck_file, "--node", "2",
                                        "--server", server_url])
        local = self.document(capsys, ["report", deck_file, "--node", "2"])
        assert answers(served) == answers(local)

    @pytest.mark.parametrize("mode", ["local", "server"])
    def test_a_refused_request_is_one_error_line(self, deck_file, server_url,
                                                 tmp_path, capsys, mode):
        import json

        from tests.test_server_core import DESIGN

        design = tmp_path / "design.json"
        design.write_text(json.dumps(DESIGN))
        server = ["--server", server_url] if mode == "server" else []
        for argv, message in (
                (["sweep", deck_file, "--node", "2",
                  "--point", "R9:scale=2"], "unknown element 'R9'"),
                (["sta", str(design), "--corner", "a", "--corner", "a"],
                 "corner names must be unique")):
            assert main(argv + server) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ") and message in line

    def test_unreadable_json_input_is_one_error_line(self, deck_file,
                                                     tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text('{"name": "x",')
        for argv in (["sta", str(broken)],
                     ["sweep", deck_file, "--node", "2",
                      "--plan", str(broken)]):
            assert main(argv) == 1
            (line,) = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and "not valid JSON" in line
