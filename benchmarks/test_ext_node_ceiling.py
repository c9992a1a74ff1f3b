"""Extension benchmark — the node ceiling: dense vs sparse vs reduced.

The paper's nets stop at a few hundred nodes; extracted modern
interconnect does not.  This benchmark charts what actually bounds the
reproduction's usable net size, end to end (`AweAnalyzer` construction
through a fixed-order response), on uniform RC ladders:

* **dense** — ``sparse=False``: O(n²) memory, O(n³) factorisation; the
  historical ceiling.
* **sparse** — the default backend above ``_SPARSE_THRESHOLD``: SuperLU
  on the near-tridiagonal MNA system, near-linear on ladders.
* **reduced** — :func:`repro.reduce.reduce_circuit` pre-collapse (taps
  pinned) feeding the sparse path: ~9x fewer unknowns before stamping.
  Note the pre-pass itself is pure Python, so a *one-shot* reduced run
  is not faster than plain sparse at these sizes — the payoff is the
  ~9x smaller system (memory, factor size) and batch runs where one
  reduced circuit serves many jobs.

The quick run (always on) records the three curves at modest sizes into
``BENCH_scaling.json`` under ``node_scaling``.  Set
``REPRO_SCALING_FULL=1`` (the nightly CI job does) for the full study:
the 10⁴-node regression floor — sparse must beat dense end-to-end by at
least 5x — and the 10⁵-node ceiling proof: a hundred-thousand-node net
must complete under plain sparse and under sparse+reduced without ever
materialising a dense matrix.  ``docs/scaling.md`` walks through reading the recorded numbers.

The ``ingest`` entry times one plain sparse analysis from deck bytes in,
layer by layer: ``parse_netlist``, ``validate_for_analysis``, the
``MnaSystem`` (stamp and floating groups, inside the analyzer's
constructor), the LU, the moments and order-2 fit, and ``delay_50``.
The quick run measures 10⁴ sections; the full study measures 10⁵ and
runs a 10⁶-section ladder in a child process, which records its peak
RSS.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from _bench_utils import record_bench, report
from repro import AweAnalyzer, Step
from repro.circuit import parse_netlist, validate_for_analysis, write_netlist
from repro.papercircuits import rc_ladder
from repro.rctree import elmore_delays
from repro.reduce import reduce_circuit

STIMULI = {"Vin": Step(0.0, 5.0)}

FULL = os.environ.get("REPRO_SCALING_FULL") == "1"

#: Node counts for the always-on quick curve; dense is measured at every
#: one of these (the largest takes ~a second).
QUICK_SIZES = (256, 512, 1024, 2048)


def _measure(sections: int, sparse: bool | None, reduce: bool,
             repeat: int = 3) -> dict:
    """Best-of wall time for one end-to-end analysis of an RC ladder.

    Everything the pipeline does is on the clock: circuit pre-reduction
    (when ``reduce``), MNA assembly, factorisation, moments, Padé and
    waveform construction — so the curves compare what a user actually
    waits for, not just the factor.
    """
    node = str(sections)
    best = float("inf")
    for _ in range(repeat):
        circuit = rc_ladder(sections)
        start = time.perf_counter()
        if reduce:
            circuit = reduce_circuit(circuit, keep=(node,)).circuit
        analyzer = AweAnalyzer(circuit, STIMULI, sparse=sparse, max_order=2)
        response = analyzer.response(node, order=2)
        best = min(best, time.perf_counter() - start)
    return {
        "seconds": best,
        "dimension": analyzer.system.index.dimension,
        "use_sparse": bool(analyzer.system.use_sparse),
        "delay_50_s": response.delay_50(),
    }


#: The layers of one ``ingest`` measurement, in pipeline order.
INGEST_STEPS = ("parse_s", "validate_s", "mna_s", "lu_s", "moments_s", "delay_s")


def _ingest(sections: int) -> dict:
    """Seconds per layer of one plain sparse analysis of an RC ladder,
    from its deck text to the far end's 50 % delay."""
    text = write_netlist(rc_ladder(sections), STIMULI)
    node = str(sections)
    seconds = {}
    clock = time.perf_counter()

    def lap(step: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        seconds[step] = now - clock
        clock = now

    deck = parse_netlist(text)
    lap("parse_s")
    validate_for_analysis(deck.circuit)
    lap("validate_s")
    analyzer = AweAnalyzer(deck.circuit, deck.stimuli)
    lap("mna_s")
    analyzer.system.lu()
    lap("lu_s")
    response = analyzer.response(node, order=2)
    lap("moments_s")
    delay = response.delay_50()
    lap("delay_s")
    return {
        "sections": sections,
        "deck_bytes": len(text.encode()),
        "dimension": analyzer.system.index.dimension,
        "use_sparse": bool(analyzer.system.use_sparse),
        "total_s": sum(seconds.values()),
        "delay_50_s": delay,
        **seconds,
    }


def _ingest_child(sections: int) -> dict:
    """:func:`_ingest` in a fresh interpreter, with its peak RSS."""
    code = (
        "import json, resource, sys\n"
        f"sys.path[:0] = {[os.path.dirname(__file__)]!r}\n"
        "from test_ext_node_ceiling import _ingest\n"
        f"result = _ingest({sections})\n"
        "result['peak_rss_mb'] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024\n"
        "print(json.dumps(result))\n"
    )
    output = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    ).stdout
    return json.loads(output.splitlines()[-1])


def _ingest_rows(result: dict) -> list[tuple]:
    return [(f"{result['sections']:.0e} {step[:-2]}", f"{result[step]*1e3:.1f} ms")
            for step in INGEST_STEPS + ("total_s",)]


def test_ingest_quick():
    """Deck bytes in to ``delay_50`` out at 10⁴ sections, layer by layer."""
    result = min((_ingest(10_000) for _ in range(2)), key=lambda r: r["total_s"])
    report("Extension — ingest of a 10^4-section ladder, layer by layer",
           _ingest_rows(result), headers=("layer", "measured"))
    assert result["use_sparse"]
    assert np.isfinite(result["delay_50_s"]) and result["delay_50_s"] > 0
    entry = {"1e4": result}
    if FULL:
        entry["1e5"] = min((_ingest(100_000) for _ in range(2)),
                           key=lambda r: r["total_s"])
        entry["1e6"] = _ingest_child(1_000_000)
        report("Extension — ingest at 10^5 and 10^6 sections (nightly)",
               _ingest_rows(entry["1e5"]) + _ingest_rows(entry["1e6"])
               + [("1e+06 peak RSS", f"{entry['1e6']['peak_rss_mb']:.0f} MiB")],
               headers=("layer", "measured"))
        assert entry["1e6"]["use_sparse"] and entry["1e6"]["delay_50_s"] > 0
    record_bench("ingest", entry)


def test_node_ceiling_quick(benchmark):
    """Dense vs sparse vs reduced end-to-end curve at modest sizes."""
    benchmark.pedantic(
        lambda: _measure(QUICK_SIZES[0], None, False, repeat=1),
        rounds=3, iterations=1,
    )

    curve = {}
    for sections in QUICK_SIZES:
        curve[sections] = {
            "dense": _measure(sections, False, False),
            "sparse": _measure(sections, None, False),
            "reduced": _measure(sections, None, True),
        }

    largest = curve[QUICK_SIZES[-1]]
    report(
        "Extension — node ceiling, end-to-end analyze of RC ladders",
        [
            (f"n={n}",
             "sparse < dense",
             " / ".join(f"{kind} {curve[n][kind]['seconds']*1e3:.1f} ms"
                        for kind in ("dense", "sparse", "reduced")))
            for n in QUICK_SIZES
        ],
    )

    # Shape claims, deliberately loose for shared CI machines: the sparse
    # backend must clearly beat dense at the largest quick size, and the
    # pre-reduction must shrink the system ~9x without moving the delay.
    assert largest["sparse"]["use_sparse"] and not largest["dense"]["use_sparse"]
    assert largest["dense"]["seconds"] > 2.0 * largest["sparse"]["seconds"]
    assert largest["reduced"]["dimension"] < largest["sparse"]["dimension"] / 4
    assert largest["reduced"]["delay_50_s"] == pytest.approx(
        largest["sparse"]["delay_50_s"], rel=0.01
    )
    # The quick largest size sanity-anchors against the Elmore tree walk:
    # a 2-pole fit of a long uniform ladder lands within a few percent.
    elmore = elmore_delays(rc_ladder(QUICK_SIZES[-1]))[str(QUICK_SIZES[-1])]
    assert largest["sparse"]["delay_50_s"] == pytest.approx(
        0.693 * elmore, rel=0.15
    )

    record_bench(
        "node_scaling",
        {
            "sections": list(QUICK_SIZES),
            "curve": {str(n): curve[n] for n in QUICK_SIZES},
            "dense_over_sparse_at_largest":
                largest["dense"]["seconds"] / largest["sparse"]["seconds"],
        },
    )


@pytest.mark.skipif(not FULL, reason="set REPRO_SCALING_FULL=1 (nightly job)")
def test_node_ceiling_full():
    """The 10⁴ regression floor and the 10⁵ sparse+reduced ceiling."""
    n4 = 10_000
    dense4 = _measure(n4, False, False, repeat=1)
    sparse4 = _measure(n4, None, False, repeat=2)
    reduced4 = _measure(n4, None, True, repeat=2)
    floor = dense4["seconds"] / sparse4["seconds"]

    # 10⁵ nodes, with and without pre-reduction: the sparse backend must
    # be auto-picked and carry the analysis end to end (a dense matrix at
    # this size would be 80 GB — ``use_sparse`` proves it never existed).
    # Plain sparse carries no floor; its time decides whether reduction
    # still pays.
    n5 = 100_000
    sparse5 = _measure(n5, None, False, repeat=1)
    reduced5 = _measure(n5, None, True, repeat=1)

    report(
        "Extension — node ceiling, full study (nightly)",
        [
            ("10^4 dense", "seconds", f"{dense4['seconds']:.2f} s"),
            ("10^4 sparse", ">= 5x faster", f"{sparse4['seconds']:.3f} s ({floor:.0f}x)"),
            ("10^4 reduced", "Python pre-pass dominates",
             f"{reduced4['seconds']:.3f} s"),
            ("10^5 sparse", "completes, never dense",
             f"{sparse5['seconds']:.2f} s, dim {sparse5['dimension']}"),
            ("10^5 sparse+reduced", "completes, never dense",
             f"{reduced5['seconds']:.2f} s, dim {reduced5['dimension']}"),
        ],
    )

    assert floor >= 5.0, (
        f"sparse regression: only {floor:.1f}x faster than dense at 10^4 nodes"
    )
    assert sparse5["use_sparse"], "10^5-node net fell back to dense assembly"
    assert reduced5["use_sparse"], "10^5-node net fell back to dense assembly"
    assert np.isfinite(reduced5["delay_50_s"]) and reduced5["delay_50_s"] > 0
    # Reduction shrinks the ladder ~9x before stamping.
    assert reduced5["dimension"] < n5 / 4

    record_bench(
        "node_scaling_full",
        {
            "dense_1e4_s": dense4["seconds"],
            "sparse_1e4_s": sparse4["seconds"],
            "reduced_1e4_s": reduced4["seconds"],
            "sparse_over_dense_1e4": floor,
            "sparse_1e5_s": sparse5["seconds"],
            "sparse_1e5_delay_50_s": sparse5["delay_50_s"],
            "reduced_1e5_s": reduced5["seconds"],
            "reduced_1e5_dimension": reduced5["dimension"],
            "reduced_1e5_delay_50_s": reduced5["delay_50_s"],
        },
    )
