"""Cost of the tracing layer when it is switched *off*.

The trace layer's contract (docs/observability.md) is "zero overhead when
off": every traced object defaults to the shared :data:`NULL_TRACER`,
whose ``span`` returns one preallocated context manager and whose
``event`` is a bare no-op.  This benchmark turns that claim into a
number and an assertion:

* count how many tracer call sites (``span`` + ``event``) an untraced
  run of the 50-job batch benchmark actually hits, using a counting
  ``NullTracer`` subclass wired through the same analyzer-reuse loop the
  engine runs,
* microbenchmark the per-call cost of the real ``NULL_TRACER``,
* bound the total: ``calls x cost_per_call`` must stay under 2 % of the
  batch wall time.
"""

import time

from _bench_utils import record_bench, report
from repro import AweAnalyzer, AweJob, BatchEngine, Step
from repro.papercircuits import random_rc_tree
from repro.trace import NULL_TRACER, NullTracer

STIMULI = {"Vin": Step(0.0, 5.0)}


class CountingNullTracer(NullTracer):
    """A no-op tracer that only counts how often it is called."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def span(self, name, stats=None, **meta):
        self.calls += 1
        return super().span(name, stats, **meta)

    def event(self, name, **data):
        self.calls += 1


def batch_jobs(n_circuits=10, nodes_per_circuit=5, tree_nodes=180):
    """Same shape as the batch-engine speedup benchmark: 50 RC-tree
    timing jobs over 10 distinct interconnect nets."""
    jobs = []
    for s in range(n_circuits):
        circuit = random_rc_tree(tree_nodes, seed=200 + s)
        for i in range(nodes_per_circuit):
            node = str(tree_nodes - i * 7)
            jobs.append(AweJob(circuit, (node,), stimuli=STIMULI, order=3))
    return jobs


def count_tracer_calls(jobs) -> int:
    """Replay the engine's analyzer-reuse loop with a counting tracer.

    One analyzer per distinct circuit, then every job's responses on the
    reused analyzer — exactly the call pattern ``BatchEngine.run`` drives
    through ``NULL_TRACER`` when tracing is off.
    """
    counter = CountingNullTracer()
    analyzers = {}
    for job in jobs:
        analyzer = analyzers.get(id(job.circuit))
        if analyzer is None:
            analyzer = AweAnalyzer(
                job.circuit, job.stimuli, max_order=job.max_order,
                tracer=counter,
            )
            analyzers[id(job.circuit)] = analyzer
        for node in job.nodes:
            analyzer.response(node, order=job.order)
    return counter.calls


def best_of(fn, repeat=3):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def per_call_seconds(fn, iterations=200_000) -> float:
    start = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - start) / iterations


def test_null_tracer_overhead_under_two_percent(benchmark):
    jobs = batch_jobs()
    assert len(jobs) >= 50

    engine = BatchEngine()
    benchmark(lambda: engine.run(jobs))

    t_batch = best_of(lambda: engine.run(jobs))
    calls = count_tracer_calls(jobs)
    assert calls > 0  # the hot path really does go through the tracer

    def span_site():
        with NULL_TRACER.span("phase", stats=None, node="x"):
            pass

    def event_site():
        NULL_TRACER.event("decision", order=3, reason="bench")

    cost = max(per_call_seconds(span_site), per_call_seconds(event_site))
    overhead_s = calls * cost
    fraction = overhead_s / t_batch

    report(
        "Trace layer — NULL_TRACER overhead on the 50-job batch",
        [
            ("tracer call sites hit", "per batch run", f"{calls}"),
            ("cost per no-op call", "sub-microsecond", f"{cost*1e9:.0f} ns"),
            ("total no-op cost", "negligible", f"{overhead_s*1e6:.1f} us"),
            ("batch wall time", "milliseconds", f"{t_batch*1e3:.1f} ms"),
            ("overhead fraction", "< 2%", f"{100.0*fraction:.4f}%"),
        ],
    )
    record_bench(
        "trace_overhead",
        {
            "jobs": len(jobs),
            "tracer_calls": calls,
            "null_call_cost_s": cost,
            "overhead_s": overhead_s,
            "batch_time_s": t_batch,
            "overhead_fraction": fraction,
        },
    )
    assert fraction < 0.02
