"""Batch timing: a 50-job sweep through the batch engine.

A static-timing pass asks the same question of many nets at once:
"when does each sink of this interconnect settle?"  This example builds
ten seeded random RC trees, queries five sinks on each (50 jobs), and
runs them two ways:

* the naive loop — a fresh `AweAnalyzer` per job,
* `BatchEngine` — one analyzer per *net*, so the MNA assembly, the LU
  factorisation and the multi-RHS moment recursion are shared by every
  sink of that net.

The two produce bit-identical waveforms; the engine only amortises.
The instrumentation counters show where the saving comes from, and a
deliberately broken job demonstrates structured failure isolation.

Run:  python examples/batch_timing.py
"""

import time

import numpy as np

from repro import AweAnalyzer, AweJob, BatchEngine, Step
from repro.circuit.units import format_engineering as fmt
from repro.papercircuits import random_rc_tree

STIMULI = {"Vin": Step(0.0, 5.0)}
TREE_NODES = 120


def build_jobs():
    jobs = []
    for seed in range(10):
        net = random_rc_tree(TREE_NODES, seed=seed)
        for k in range(5):
            sink = str(TREE_NODES - 11 * k)
            jobs.append(
                AweJob(
                    net,
                    (sink,),
                    stimuli=STIMULI,
                    order=3,
                    label=f"net{seed}/{sink}",
                )
            )
    return jobs


def naive_loop(jobs):
    out = []
    for job in jobs:
        analyzer = AweAnalyzer(job.circuit, job.stimuli, max_order=job.max_order)
        out.append(
            {node: analyzer.response(node, order=job.order) for node in job.nodes}
        )
    return out


def main():
    jobs = build_jobs()
    print(f"{len(jobs)} timing jobs over 10 distinct {TREE_NODES}-node RC trees\n")

    # 1. The naive way: one analyzer per job.
    start = time.perf_counter()
    reference = naive_loop(jobs)
    t_naive = time.perf_counter() - start
    print(f"naive loop (fresh analyzer per job):  {t_naive * 1e3:7.1f} ms")

    # 2. The engine: one analyzer per distinct circuit.
    engine = BatchEngine()
    start = time.perf_counter()
    results = engine.run(jobs)
    t_engine = time.perf_counter() - start
    print(f"BatchEngine (analyzer reuse):         {t_engine * 1e3:7.1f} ms"
          f"   ({t_naive / t_engine:.1f}x)")

    # Both agree to the last bit.
    times = np.linspace(0.0, 50e-9, 200)
    for expected, result in zip(reference, results):
        for node in expected:
            assert np.array_equal(
                expected[node].waveform.evaluate(times),
                result.responses[node].waveform.evaluate(times))
    print("\nboth runs bit-identical ✓")

    # Where the saving came from, in counters.
    stats = engine.stats()
    print("\ninstrumentation (the engine run):")
    for key in ("jobs", "distinct_circuits", "analyzers_built",
                "lu_factorizations", "moment_solves", "moments_computed",
                "triangular_solves", "solve_columns"):
        print(f"  {key:<20} {stats[key]}")
    print("  -> one LU per net, not per job; each multi-RHS triangular")
    print("     solve advances every active moment chain at once.")

    # The slowest sinks, as a timing report would list them.
    print("\nslowest five sinks (50% delay):")
    delays = sorted(
        ((result.label, response.delay_50())
         for result in results
         for response in result.responses.values()
         # a fixed low order can leave the odd random tree unstable;
         # a timing pass would escalate those (error_target=), here we skip
         if response.waveform.is_stable),
        key=lambda item: -item[1],
    )
    for label, delay in delays[:5]:
        print(f"  {label:<12} {fmt(delay, 's')}")

    # A bad job never kills the batch: it becomes a failure record.
    broken = AweJob(jobs[0].circuit, ("no_such_node",), stimuli=STIMULI,
                    label="broken")
    mixed = engine.run([broken, jobs[1]])
    print("\nfailure isolation:")
    for result in mixed:
        status = "ok" if result.ok else f"FAILED [{result.error_type}] {result.error}"
        print(f"  {result.label:<12} {status}")


if __name__ == "__main__":
    main()
