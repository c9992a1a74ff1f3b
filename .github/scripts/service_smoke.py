"""Service smoke test: every endpoint on both serving surfaces.

Boots ``repro serve`` and then ``repro gateway --shards 2`` on free ports
and, on each, sends every endpoint's request twice: the cold answer must
pass the endpoint's own check and the warm one must be a bit-identical
cache hit.  Each surface must then drain to exit 0 on SIGTERM.

Run from the checkout root::

    PYTHONPATH=src python .github/scripts/service_smoke.py
"""

import signal
import subprocess
import sys

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

FIG16_DECK = write_netlist(fig16_stiff_rc_tree(), {"Vin": Step(0.0, 5.0)})
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


def analyze(client):
    cold = client.analyze(FIG16_DECK, FIG16_OUTPUT, threshold=2.5)
    warm = client.analyze(FIG16_DECK, FIG16_OUTPUT, threshold=2.5)
    assert cold.ok, cold.document
    return cold, warm, (f"cold {cold.server_elapsed_s * 1e3:.2f} ms, "
                        f"warm {warm.server_elapsed_s * 1e3:.3f} ms")


def sta(client):
    cold = client.sta(DESIGN, k=3)
    warm = client.sta(DESIGN, k=3)
    assert cold.worst_slack_s is not None, cold.document
    paths = cold.document["corners"][0]["paths"]
    assert paths and paths[0]["nodes"][-1] == "o1", paths
    return cold, warm, (f"worst slack {cold.worst_slack_s:.3g} s, "
                        f"{len(paths)} paths")


def sweep(client):
    cold = client.sweep(SWEEP_DECK, "8", SWEEP_POINTS)
    warm = client.sweep(SWEEP_DECK, "8", SWEEP_POINTS)
    assert cold.incremental_points > 0, cold.document
    return cold, warm, (f"{len(SWEEP_POINTS)} points, "
                        f"{cold.incremental_points} incremental, "
                        f"stats {cold.document['stats']}")


CHECKS = {"analyze": analyze, "sta": sta, "sweep": sweep}


def smoke(surface: str) -> None:
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
            cold, warm, summary = check(client)
            assert not cold.cached, f"/{kind}: cold request was a hit"
            assert warm.cached and warm.body == cold.body, (
                f"/{kind}: hit not bit-identical")
            print(f"{surface} /{kind}: {summary}, bit-identical warm hit")
        metrics = client.metrics()
        assert metrics["cache_hits"] == metrics["cache_misses"] == len(CHECKS)
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
    for surface in SURFACES:
        smoke(surface)
    return 0


if __name__ == "__main__":
    sys.exit(main())
