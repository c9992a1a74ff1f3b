"""Service smoke test: every endpoint on both serving surfaces.

Boots ``repro serve`` and then ``repro gateway --shards 2`` on free ports
and, on each, sends every endpoint's request twice through
``AnalysisClient.call``: the cold answer must pass the endpoint's own
check and the warm one must be a bit-identical cache hit.  Then the
installed entry point's ``sta`` and ``sweep`` run as subprocesses with
``--json -``, locally and with ``--server URL``, and their documents
must be equal once timings are removed.  Each surface must then drain
to exit 0 on SIGTERM.

Run from the checkout root::

    PYTHONPATH=src python .github/scripts/service_smoke.py
"""

import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from repro import AnalysisClient, Step
from repro.circuit.writer import write_netlist
from repro.papercircuits import FIG16_OUTPUT, fig16_stiff_rc_tree
from repro.papercircuits.generators import random_rc_tree
from repro.service.server import ENDPOINTS
from repro.sta import Design, Instance, Net, PortIn, PortOut, WireSegment

#: Surface → (command line after ``python -m repro``, announce prefix).
SURFACES = {
    "daemon": (["serve", "--workers", "1"], "repro service listening on "),
    "gateway": (["gateway", "--shards", "2"], "repro gateway listening on "),
}

SWEEP_DECK = write_netlist(random_rc_tree(12, seed=7), {"Vin": Step(0.0, 1.0)})
SWEEP_POINTS = [
    {"element": "R2", "scale": 1.02, "label": "r-small"},
    {"element": "C5", "scale": 2.0, "label": "c-big"},
    {"element": "Vin", "value": 0.9, "label": "retune"},
]
DESIGN = Design(
    name="ci-smoke",
    inputs=(PortIn("i1", net="n_in", arrival=0.0, slew=2e-11,
                   drive_resistance=500.0),),
    outputs=(PortOut("o1", net="n_out", required=5e-10, load=4e-15),),
    instances=(Instance("u1", "INV_X1", {"A": "n_in", "Y": "n_out"}),),
    nets=(Net("n_in", ()),
          Net("n_out", (WireSegment("root", "o1", 200.0, 15e-15),))),
)

#: Endpoint → the JSON payload POSTed to it.
REQUESTS = {
    "analyze": {"deck": write_netlist(fig16_stiff_rc_tree(),
                                      {"Vin": Step(0.0, 5.0)}),
                "nodes": [FIG16_OUTPUT], "threshold": 2.5},
    "sta": {"design": DESIGN.to_canonical_dict(), "k": 3},
    "sweep": {"deck": SWEEP_DECK, "node": "8", "points": SWEEP_POINTS},
}


def analyze(document):
    assert document["totals"]["jobs_failed"] == 0, document
    return f"{len(document['jobs'][0]['responses'])} response(s)"


def sta(document):
    assert document["worst_slack_s"] is not None, document
    paths = document["corners"][0]["paths"]
    assert paths and paths[0]["nodes"][-1] == "o1", paths
    return f"worst slack {document['worst_slack_s']:.3g} s, {len(paths)} paths"


def sweep(document):
    assert document["incremental_points"] > 0, document
    return (f"{len(SWEEP_POINTS)} points, "
            f"{document['incremental_points']} incremental, "
            f"stats {document['stats']}")


CHECKS = {"analyze": analyze, "sta": sta, "sweep": sweep}


def cli_commands(workdir: Path) -> dict:
    """The ``sta`` and ``sweep`` command lines for the requests above."""
    design = workdir / "design.json"
    design.write_text(json.dumps(REQUESTS["sta"]["design"]))
    deck = workdir / "sweep.sp"
    deck.write_text(SWEEP_DECK)
    points = []
    for point in SWEEP_POINTS:
        field = "scale" if "scale" in point else "value"
        points += ["--point", f"{point['element']}:{field}={point[field]},"
                              f"label={point['label']}"]
    return {"sta": ["sta", str(design), "--k", "3"],
            "sweep": ["sweep", str(deck), "--node", "8", *points]}


def cli(command: list) -> dict:
    """Run ``python -m repro COMMAND --json -``: its document."""
    done = subprocess.run([sys.executable, "-m", "repro", *command,
                           "--json", "-"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, (command, done.stderr)
    return json.loads(done.stdout)


def answers(document):
    """``document`` without its timing fields: ``phase_seconds`` and
    every ``*_s`` key."""
    if isinstance(document, dict):
        return {key: answers(value) for key, value in document.items()
                if key != "phase_seconds" and not key.endswith("_s")}
    if isinstance(document, list):
        return [answers(value) for value in document]
    return document


def smoke(surface: str, commands: dict, local: dict) -> None:
    command, announce = SURFACES[surface]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *command, "--port", "0"],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        assert line.startswith(announce), line
        url = line.strip().rsplit(" ", 1)[-1]
        print(f"{surface} up at {url}")
        client = AnalysisClient(url, timeout=120)
        for kind, check in CHECKS.items():
            cold = client.call(kind, REQUESTS[kind])
            warm = client.call(kind, REQUESTS[kind])
            summary = check(cold.document)
            assert not cold.cached, f"/{kind}: cold request was a hit"
            assert warm.cached and warm.body == cold.body, (
                f"/{kind}: hit not bit-identical")
            print(f"{surface} /{kind}: {summary}, "
                  f"cold {cold.server_elapsed_s * 1e3:.2f} ms, "
                  f"bit-identical warm hit {warm.server_elapsed_s * 1e3:.3f} ms")
        metrics = client.metrics()
        assert metrics["cache_hits"] == metrics["cache_misses"] == len(CHECKS)
        for kind, args in commands.items():
            served = cli([*args, "--server", url])
            assert answers(served) == answers(local[kind]), (
                f"repro {kind} --server differs from the local run")
            print(f"{surface} `repro {kind} --server`: equals the local run "
                  "minus timings")
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
        assert code == 0, f"{surface} exited {code} after SIGTERM"
        print(f"{surface}: SIGTERM drain, clean exit 0")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def main() -> int:
    assert set(CHECKS) == set(ENDPOINTS), "every endpoint needs a check here"
    with tempfile.TemporaryDirectory() as workdir:
        commands = cli_commands(Path(workdir))
        local = {kind: cli(args) for kind, args in commands.items()}
        for kind, document in local.items():
            print(f"local `repro {kind}`: {CHECKS[kind](document)}")
        for surface in SURFACES:
            smoke(surface, commands, local)
    return 0


if __name__ == "__main__":
    sys.exit(main())
