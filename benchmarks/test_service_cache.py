"""Request-level amortisation: the daemon's result cache, cold vs warm.

The batch engine amortises one LU across the outputs of one run; the
service (docs/service.md) amortises whole analyses across requests.
This benchmark runs a real `ServiceServer` on an ephemeral port, submits
the paper's Fig. 16 stiff tree cold, then replays an *equivalent but
cosmetically different* deck and measures the server-side handling time
of the content-addressed hit.  The acceptance claims:

* the warm body is bit-identical to the cold body,
* the warm hit is at least 10x faster server-side than the cold run.

Results land in ``BENCH_scaling.json`` under ``service_cache``.
"""

from _bench_utils import record_bench, report
from repro import AnalysisClient, ServiceServer, Step
from repro.circuit.writer import write_netlist
from repro.papercircuits import FIG16_OUTPUT, fig16_stiff_rc_tree


def make_decks():
    """The Fig. 16 deck and an equivalent respelling of it."""
    cold_deck = write_netlist(fig16_stiff_rc_tree(), {"Vin": Step(0.0, 5.0)})
    body = cold_deck.splitlines()
    # Same circuit, different bytes: shuffled element order, a comment,
    # and extra whitespace — the canonicaliser must see through all of it.
    warm_deck = "\n".join(
        [body[0], "* equivalent respelling of the same deck"]
        + [line.replace(" ", "  ") for line in reversed(body[1:-1])]
        + [body[-1]]
    ) + "\n"
    assert warm_deck != cold_deck
    return cold_deck, warm_deck


def request(deck):
    """The ``/analyze`` payload for ``deck``: the Fig. 16 output, with a
    threshold delay."""
    return {"deck": deck, "nodes": [FIG16_OUTPUT], "threshold": 2.5}


def run_cold_warm(warm_requests=5):
    cold_deck, warm_deck = make_decks()
    with ServiceServer(port=0, workers=1) as server:
        client = AnalysisClient(server.url)
        cold = client.call("analyze", request(cold_deck))
        assert cold.document["totals"]["jobs_failed"] == 0
        assert not cold.cached
        warms = [client.call("analyze", request(warm_deck))
                 for _ in range(warm_requests)]
        metrics = client.metrics()
    return cold, warms, metrics


def test_warm_hit_is_bit_identical_and_10x_faster(benchmark):
    cold, warms, metrics = run_cold_warm()

    for warm in warms:
        assert warm.cached
        assert warm.key == cold.key
        assert warm.body == cold.body        # bit-identical, not re-rendered

    assert metrics["cache_misses"] == 1
    assert metrics["cache_hits"] == len(warms)

    cold_s = cold.server_elapsed_s
    warm_s = min(w.server_elapsed_s for w in warms)
    speedup = cold_s / max(warm_s, 1e-9)

    # Benchmark the steady state a deployed daemon lives in: every
    # request after the first is a hit.
    with ServiceServer(port=0, workers=1) as server:
        client = AnalysisClient(server.url)
        cold_deck, warm_deck = make_decks()
        client.call("analyze", request(cold_deck))
        benchmark(lambda: client.call("analyze", request(warm_deck)))

    report(
        "Service cache — Fig. 16 deck, cold analysis vs content-addressed hit",
        [
            ("cold server-side", "full AWE analysis", f"{cold_s*1e3:.2f} ms"),
            ("warm server-side (best)", "cache lookup", f"{warm_s*1e3:.3f} ms"),
            ("speedup", ">= 10x", f"{speedup:.0f}x"),
            ("warm body", "bit-identical", "yes"),
        ],
    )
    record_bench(
        "service_cache",
        {
            "deck": "fig16_stiff_rc_tree",
            "node": FIG16_OUTPUT,
            "cold_s": cold_s,
            "warm_best_s": warm_s,
            "warm_requests": len(warms),
            "speedup": speedup,
            "bit_identical": all(w.body == cold.body for w in warms),
            "cache_hits": metrics["cache_hits"],
            "cache_misses": metrics["cache_misses"],
        },
    )
    assert speedup >= 10.0
