"""Produce ``refs/bignet.json``: converged transient 50 % delays.

The references come from an independent path, ``repro.simulate`` (a
TR-BDF2 transient integrated until successive step refinements agree),
not from AWE.  They are keyed by a digest of the generated deck, so a
change to the generator simply leaves them unused.  Run once, from the
checkout root::

    python3 awebench/make_refs.py --seeds 0-9

It takes about a minute per seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import common  # noqa: E402
import gen  # noqa: E402


def crossing(times, values, level: float) -> float:
    """First time the sampled waveform reaches ``level`` (linear
    interpolation between samples)."""
    for k in range(1, len(times)):
        if values[k] >= level:
            v0, v1 = values[k - 1], values[k]
            return times[k - 1] + (level - v0) / (v1 - v0) * (
                times[k] - times[k - 1])
    raise ValueError("waveform never reaches the level")


def references(net) -> dict:
    from repro import parse_netlist, simulate

    deck = parse_netlist(net.deck)
    t_stop = 4.0 * max(checks.tree_bounds(net, tap)[1] for tap in net.taps)
    result = simulate(deck.circuit, deck.stimuli, t_stop, steps=400,
                      refine_tolerance=1e-3, max_refinements=5)
    out = {}
    for tap in net.taps:
        wave = result.voltage(tap)
        out[tap] = float(crossing(wave.times, wave.values, 0.5 * net.swing))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="0-9",
                        help="inclusive range, e.g. 0-9")
    args = parser.parse_args()
    first, _, last = args.seeds.partition("-")
    common.import_repro()
    path = checks.REFS / "bignet.json"
    table = checks.load_refs("bignet")
    for seed in range(int(first), int(last or first) + 1):
        for index in range(len(gen.BIGNET_KINDS)):
            net = gen.bignet_net(seed, index)
            table[checks.deck_digest(net.deck)] = references(net)
            print(f"seed {seed} net {index}: "
                  f"{table[checks.deck_digest(net.deck)]}", flush=True)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
