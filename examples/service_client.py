"""The analysis daemon end to end: serve, analyze, cache, drain.

Starts a real `ServiceServer` on an ephemeral port (the in-process
equivalent of `python -m repro serve --port 0`), submits the paper's
Fig. 16 stiff tree cold, then re-submits a cosmetically different but
equivalent deck and shows the content-addressed cache answering
bit-identically, orders of magnitude faster.  Finishes with the
/metrics counters and a graceful drain.

Run:  python examples/service_client.py
"""

from repro import AnalysisClient, ServiceServer, Step
from repro.circuit.writer import write_netlist
from repro.papercircuits import FIG16_OUTPUT, fig16_stiff_rc_tree


def main():
    deck = write_netlist(fig16_stiff_rc_tree(), {"Vin": Step(0.0, 5.0)})

    # 1. A daemon on a free port.  `with` = start + graceful drain/close.
    with ServiceServer(port=0, workers=2) as server:
        print(f"daemon listening on {server.url}")
        client = AnalysisClient(server.url)
        print(f"healthz: {client.healthz()['status']}")

        # 2. Cold request: a worker runs the full AWE analysis.  The
        #    payload is the JSON object POSTed to /analyze.
        request = {"deck": deck, "nodes": [FIG16_OUTPUT], "threshold": 2.5}
        cold = client.call("analyze", request)
        assert cold.document["totals"]["jobs_failed"] == 0
        assert not cold.cached
        response = cold.document["jobs"][0]["responses"][0]
        print(f"\ncold: computed in {cold.server_elapsed_s * 1e3:.2f} ms "
              f"server-side (order {response['order']}, "
              f"50% delay {response['delay_50_s']:.3g} s)")
        print(f"  content address: {cold.key[:16]}…")

        # 3. The same analysis, spelled differently: extra comments,
        #    shuffled whitespace, `1000` for `1k`.  Canonicalisation maps
        #    it to the same key, and the hit is *bit-identical*.
        noisy = ("* regenerated deck, run 2\n"
                 + deck.replace(" 1k", "   1000 ; respelled"))
        warm = client.call("analyze", {**request, "deck": noisy})
        assert warm.cached and warm.key == cold.key
        assert warm.body == cold.body
        speedup = cold.server_elapsed_s / max(warm.server_elapsed_s, 1e-9)
        print(f"warm: cache hit in {warm.server_elapsed_s * 1e3:.2f} ms "
              f"({speedup:.0f}x faster, byte-for-byte the cold body)")

        # 4. The daemon's own view of all this.
        metrics = client.metrics()
        print("\nmetrics:")
        for name in ("requests_total", "requests_ok", "cache_hits",
                     "cache_misses", "cache_entries", "queue_depth"):
            print(f"  {name:<15} {metrics[name]}")
        print(f"  solver: {metrics['solver']['lu_factorizations']} LU "
              f"factorization(s), "
              f"{metrics['solver']['triangular_solves']} triangular solve(s)")

    # 5. Leaving the `with` block drained and stopped the daemon; the
    #    same lifecycle a SIGTERM triggers for `python -m repro serve`.
    print("\ndaemon drained and stopped cleanly")


if __name__ == "__main__":
    main()
