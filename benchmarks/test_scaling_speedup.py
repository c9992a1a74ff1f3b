"""Scaling study: AWE cost vs circuit size, and the speedup over the
SPICE-style reference (the paper's opening motivation: RC-tree methods
run "at faster than 1000x the speed" of SPICE while AWE generalises them
at comparable cost).

Two measurements on uniform RC ladders of growing size:

* wall-clock of a full second-order AWE evaluation (assembly + LU +
  moments + Padé) vs a converged transient simulation of the same net —
  the speedup should be large (hundreds to thousands) and grow with the
  accuracy demanded of the transient,
* the moment recursion's near-linear growth: each extra moment is one
  forward/back substitution, so doubling the order far less than doubles
  the total time.
"""

import time

import numpy as np
import pytest

from _bench_utils import record_bench, report
from repro import AweAnalyzer, AweJob, BatchEngine, Step, simulate
from repro.papercircuits import random_rc_tree, rc_ladder

STIMULI = {"Vin": Step(0.0, 5.0)}


def awe_delay(circuit, node):
    analyzer = AweAnalyzer(circuit, STIMULI)
    return analyzer.response(node, order=2).delay_50()


def transient_delay(circuit, node, t_stop):
    result = simulate(circuit, STIMULI, t_stop)
    v_final = result.voltage(node).values[-1]
    return result.voltage(node).threshold_delay(0.5 * v_final)


def best_of(fn, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_awe_vs_spice_speedup(benchmark):
    sections = 30
    circuit = rc_ladder(sections)
    node = str(sections)
    t_stop = 10 * 100.0 * 50e-15 * sections**2  # ~10 Elmore delays

    benchmark(lambda: awe_delay(rc_ladder(sections), node))

    t_awe = best_of(lambda: awe_delay(circuit, node))
    t_spice = best_of(lambda: transient_delay(circuit, node, t_stop), repeat=2)
    d_awe = awe_delay(circuit, node)
    d_spice = transient_delay(circuit, node, t_stop)

    report(
        "Scaling — AWE vs SPICE-style transient, 30-section RC ladder",
        [
            ("50% delay agreement", "within a few %",
             f"AWE {d_awe:.4g} s vs transient {d_spice:.4g} s"),
            ("AWE time", "milliseconds", f"{t_awe*1e3:.2f} ms"),
            ("transient time", "orders slower", f"{t_spice*1e3:.2f} ms"),
            ("speedup", '"faster than 1000x" (paper Sec. I)', f"{t_spice/t_awe:.0f}x"),
        ],
    )

    assert d_awe == pytest.approx(d_spice, rel=0.05)
    assert t_spice / t_awe > 20  # conservative floor; typically ≫ 100

    record_bench(
        "awe_vs_spice",
        {
            "sections": sections,
            "awe_delay_s": d_awe,
            "transient_delay_s": d_spice,
            "awe_time_s": t_awe,
            "transient_time_s": t_spice,
            "speedup": t_spice / t_awe,
        },
    )


def test_moment_cost_is_incremental(benchmark):
    """Each extra order costs back-substitutions, not re-factorisation."""
    circuit = rc_ladder(60)
    analyzer = AweAnalyzer(circuit, STIMULI, max_order=8)
    analyzer.subproblems()  # everything up to max order precomputed once

    def fits():
        for q in (1, 2, 3, 4):
            analyzer.response("60", order=q)

    benchmark(fits)

    t_low = best_of(lambda: AweAnalyzer(circuit, STIMULI, max_order=2).subproblems())
    t_high = best_of(lambda: AweAnalyzer(circuit, STIMULI, max_order=8).subproblems())

    report(
        "Scaling — moment recursion cost vs max order (60-section ladder)",
        [
            ("moments to order 2", "setup-dominated", f"{t_low*1e3:.2f} ms"),
            ("moments to order 8", "+12 back-substitutions", f"{t_high*1e3:.2f} ms"),
            ("ratio", "far below 4x", f"{t_high/t_low:.2f}x"),
        ],
    )
    assert t_high < 4.0 * t_low

    record_bench(
        "moment_cost_incremental",
        {
            "sections": 60,
            "time_to_order_2_s": t_low,
            "time_to_order_8_s": t_high,
            "ratio": t_high / t_low,
        },
    )


def _batch_jobs(n_circuits=10, nodes_per_circuit=5, tree_nodes=180):
    """50 RC-tree timing jobs over 10 distinct interconnect nets — the
    shape of a static-timing sweep where many sinks of the same net are
    queried."""
    jobs = []
    for s in range(n_circuits):
        circuit = random_rc_tree(tree_nodes, seed=200 + s)
        for i in range(nodes_per_circuit):
            node = str(tree_nodes - i * 7)
            jobs.append(AweJob(circuit, (node,), stimuli=STIMULI, order=3))
    return jobs


def test_batch_engine_speedup(benchmark):
    """Batch engine vs the naive per-job loop (fresh analyzer every job).

    The engine wins by amortising MNA assembly, the LU factorisation and
    the shared moment recursion across all jobs that target the same
    circuit — the multi-RHS layer keeps the triangular-solve count
    independent of how many subproblems each analysis carries.  Results
    must stay bit-identical to the naive loop.
    """
    jobs = _batch_jobs()
    assert len(jobs) >= 50

    def naive_sequential():
        out = []
        for job in jobs:
            analyzer = AweAnalyzer(job.circuit, job.stimuli, max_order=job.max_order)
            out.append({n: analyzer.response(n, order=job.order) for n in job.nodes})
        return out

    engine = BatchEngine()
    benchmark(lambda: engine.run(jobs))

    t_seq = best_of(naive_sequential, repeat=2)
    t_batch = best_of(lambda: engine.run(jobs), repeat=2)
    speedup = t_seq / t_batch

    reference = naive_sequential()
    engine.reset_stats()  # so the recorded stats cover exactly one run
    results = engine.run(jobs)
    times = np.linspace(0.0, 20e-9, 200)
    for expected, result in zip(reference, results):
        assert result.ok, result.error
        for node, response in result.responses.items():
            assert np.array_equal(expected[node].poles, response.poles)
            assert np.array_equal(
                expected[node].waveform.evaluate(times),
                response.waveform.evaluate(times),
            )

    stats = engine.stats()
    report(
        "Batch engine — 50 RC-tree jobs (10 nets x 5 sinks), in process",
        [
            ("results", "bit-identical", "bit-identical"),
            ("naive sequential", "one analyzer per job", f"{t_seq*1e3:.1f} ms"),
            ("batch engine", "one analyzer per net", f"{t_batch*1e3:.1f} ms"),
            ("speedup", ">= 1.5x", f"{speedup:.2f}x"),
        ],
    )
    record_bench(
        "batch_engine_speedup",
        {
            "jobs": len(jobs),
            "distinct_circuits": 10,
            "tree_nodes": 180,
            "sequential_time_s": t_seq,
            "batch_time_s": t_batch,
            "speedup": speedup,
            "bit_identical": True,
            "engine_stats": {
                k: v for k, v in stats.items() if not k.endswith("_s")
            },
        },
    )
    assert speedup >= 1.5
