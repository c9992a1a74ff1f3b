"""Batch AWE analysis: many (circuit, stimuli, nodes) jobs, one engine.

The paper's throughput pitch (Sec. IV, Fig. 19) is that AWE reduces each
net's timing to "a succession of dc solutions" — cheap enough to run on
thousands of nets.  This module supplies the missing fan-out layer: an
:class:`AweJob` describes one net's analysis, and :class:`BatchEngine`
runs many of them in process with

* **analyzer reuse** — jobs on the same circuit object share one
  :class:`~repro.core.driver.AweAnalyzer`, so the expensive
  output-independent work (MNA assembly, LU factorisation, the batched
  moment recursion) is paid once per distinct circuit, not once per job;
* **per-job isolation** — a failing or timed-out job yields a structured
  failure :class:`BatchResult`; it never aborts the batch;
* **instrumentation** — per-circuit
  :class:`~repro.instrumentation.SolverStats` are merged into the
  engine's :meth:`BatchEngine.stats` view (also surfaced by
  ``python -m repro batch --stats``).

Process parallelism lives one level up: the gateway's shards
(:mod:`repro.gateway`) are separate ``repro serve`` processes, each
running its own engine.

Determinism: the numbers a job produces are independent of how jobs are
grouped — every job runs the same :class:`AweAnalyzer` code path — and
results come back in the input job order.
"""

from __future__ import annotations

import dataclasses
import signal
import threading
import time
from contextlib import contextmanager

from repro import faults
from repro.analysis.sources import Stimulus
from repro.circuit.netlist import Circuit
from repro.core.driver import AweAnalyzer, AweResponse
from repro.errors import BatchTimeoutError, CircuitError
from repro.instrumentation import SolverStats
from repro.reduce import reduce_circuit
from repro.trace import Tracer


@dataclasses.dataclass(frozen=True)
class AweJob:
    """One unit of batch work: a circuit, its stimuli, and output nodes.

    Parameters
    ----------
    circuit:
        The circuit to analyse.  Jobs sharing the *same object* share one
        analyzer (and therefore one factorisation and moment recursion).
    nodes:
        Output node name(s); a bare string is promoted to a 1-tuple.
    stimuli:
        Source stimuli, as for :class:`~repro.core.driver.AweAnalyzer`.
    order / error_target / max_order:
        Forwarded to :meth:`AweAnalyzer.response` / the analyzer.
    label:
        Display name in results and reports; defaults to the circuit
        title plus the node list.
    response_options:
        Extra keyword arguments for :meth:`AweAnalyzer.response`
        (``stabilize``, ``match_initial_slope``, ...).
    reduce:
        Collapse series RC chains (:func:`repro.reduce.reduce_circuit`)
        before analysis, keeping this job's output nodes as taps.  Jobs
        that share a circuit share one reduced copy (reduced with the
        union of their taps), so analyzer reuse is preserved.
    """

    circuit: Circuit
    nodes: tuple[str, ...]
    stimuli: dict[str, Stimulus] | None = None
    order: int | None = None
    error_target: float = 0.01
    max_order: int = 8
    label: str = ""
    response_options: dict = dataclasses.field(default_factory=dict)
    reduce: bool = False

    def __post_init__(self):
        nodes = (self.nodes,) if isinstance(self.nodes, str) else tuple(self.nodes)
        if not nodes:
            raise CircuitError("an AweJob needs at least one output node")
        object.__setattr__(self, "nodes", nodes)
        if not self.label:
            object.__setattr__(
                self, "label", f"{self.circuit.title} @ {','.join(nodes)}")


@dataclasses.dataclass(frozen=True)
class BatchResult:
    """Outcome of one :class:`AweJob` — success or structured failure.

    ``responses`` maps each requested node to its
    :class:`~repro.core.driver.AweResponse` on success and is ``None`` on
    failure, in which case ``error``/``error_type`` describe what went
    wrong (``error_type`` is the exception class name, e.g.
    ``"BatchTimeoutError"`` for a per-job timeout; ``error`` is the
    exception's message, or its class name when the message is empty).

    ``trace`` is the job's serialized trace record (the plain-dict tree
    of :meth:`repro.trace.Tracer.to_record`) when the run was started
    with ``trace=True``, else ``None``.
    Rebuild the object form with
    :meth:`repro.trace.TraceSpan.from_record`, or feed it straight to
    :mod:`repro.report`.
    """

    index: int
    label: str
    responses: dict[str, AweResponse] | None
    error: str | None = None
    error_type: str | None = None
    elapsed_s: float = 0.0
    trace: dict | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _stimuli_key(stimuli: dict[str, Stimulus] | None):
    """Hashable cache key for a stimuli mapping (stimuli are frozen
    dataclasses, so their reprs are canonical)."""
    if stimuli is None:
        return None
    return tuple(sorted((name, repr(stim)) for name, stim in stimuli.items()))


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`BatchTimeoutError` if the block runs past ``seconds``.

    Uses ``SIGALRM``/``setitimer``, so it is preemptive — a job stuck in
    a long LAPACK call is still interrupted at the next bytecode
    boundary.  Silently degrades to a no-op where real-time signals are
    unavailable (non-main thread, non-Unix platforms).

    Nesting-safe: on exit the previous handler is restored *and* an
    enclosing ``_deadline``'s timer is re-armed with its remaining budget
    (arming our own timer cancels the outer one — without the re-arm, an
    inner block, timed out or not, would silently disarm the outer
    deadline for the rest of its group).  An outer budget that expired
    while the inner block ran is re-armed with a minimal delay so it
    still fires promptly.

    A timeout the block swallows (the signal can land inside a callback
    that catches every exception) is raised again on exit.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    message = f"job exceeded its {seconds:g} s timeout"
    fired = False

    def _expired(signum, frame):
        nonlocal fired
        fired = True
        raise BatchTimeoutError(message)

    previous = signal.signal(signal.SIGALRM, _expired)
    outer_remaining, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    armed_at = time.monotonic()
    try:
        yield
    finally:
        # Disarm before touching the handler so a firing between the two
        # calls cannot hit a half-restored state; then hand control (and
        # any leftover budget) back to the enclosing deadline.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining:
            elapsed = time.monotonic() - armed_at
            signal.setitimer(
                signal.ITIMER_REAL, max(outer_remaining - elapsed, 1e-6)
            )
    if fired:
        raise BatchTimeoutError(message)


def _execute_group(entries, timeout, trace, stats: SolverStats):
    """Run one circuit group's jobs sequentially with analyzer reuse.

    ``entries`` is ``[(job_index, job), ...]``, every job on the same
    circuit object.  The group's solver counters are merged into
    ``stats`` and its analyzers freed on return.  Returns ``(results,
    analyzers_built)``.

    With ``trace=True`` each job gets its own
    :class:`~repro.trace.Tracer`, swapped onto the (shared) analyzer for
    the job's duration; the serialized record rides back on
    ``BatchResult.trace``.  Shared work (MNA assembly, LU, the batched
    moment recursion) lands in the trace of the job that triggered it.
    """
    plan = faults.active()
    analyzers: dict = {}
    results: list[BatchResult] = []
    for index, job in entries:
        tracer = Tracer(job.label, job_index=index) if trace else None
        start = time.perf_counter()
        try:
            with _deadline(timeout):
                if plan.enabled:
                    # The slow-job probe burns budget *inside* the job's
                    # deadline, so an injected stall exercises the same
                    # timeout path a genuinely stuck solve would.
                    plan.sleep("slow_job", 0.25)
                key = (_stimuli_key(job.stimuli), job.max_order)
                analyzer = analyzers.get(key)
                if analyzer is None:
                    analyzer = AweAnalyzer(
                        job.circuit, job.stimuli, max_order=job.max_order,
                        tracer=tracer,
                    )
                    analyzers[key] = analyzer
                elif trace:
                    analyzer.use_tracer(tracer)
                responses = {
                    node: analyzer.response(
                        node,
                        order=job.order,
                        error_target=job.error_target,
                        **job.response_options,
                    )
                    for node in job.nodes
                }
            results.append(
                BatchResult(
                    index=index,
                    label=job.label,
                    responses=responses,
                    elapsed_s=time.perf_counter() - start,
                    trace=tracer.to_record() if trace else None,
                )
            )
        except Exception as exc:
            if trace:
                # Failures raised outside any span (e.g. an unknown node
                # rejected before the response span opens) would otherwise
                # leave the trace silent about why the job died.
                tracer.event("job_failed", error_type=type(exc).__name__,
                             error=str(exc))
            results.append(
                BatchResult(
                    index=index,
                    label=job.label,
                    responses=None,
                    error=str(exc) or type(exc).__name__,
                    error_type=type(exc).__name__,
                    elapsed_s=time.perf_counter() - start,
                    trace=tracer.to_record() if trace else None,
                )
            )
    for analyzer in analyzers.values():
        stats.merge(analyzer.system.stats)
    return results, len(analyzers)


class BatchEngine:
    """Run many :class:`AweJob`\\ s in process with analyzer reuse.

    Parameters
    ----------
    workers:
        Must be 1: jobs run in the calling process.  Process parallelism
        comes from the gateway's shards (``repro gateway --shards N``).
    timeout:
        Default per-job wall-clock timeout in seconds (``None`` = no
        limit).  A timed-out job becomes a failure record with
        ``error_type == "BatchTimeoutError"``.

    The engine is reusable; :meth:`stats` accumulates over every
    :meth:`run` since construction (:meth:`reset_stats` clears it).
    """

    def __init__(self, workers: int = 1, timeout: float | None = None):
        if workers != 1:
            raise ValueError(
                f"BatchEngine runs in process (workers=1), got {workers!r}; "
                "for process parallelism run gateway shards "
                "(repro gateway --shards N)")
        self.timeout = timeout
        self._solver_stats = SolverStats()
        self._engine_stats: dict[str, float] = {
            "jobs": 0,
            "jobs_failed": 0,
            "distinct_circuits": 0,
            "analyzers_built": 0,
            "runs": 0,
            "batch_wall_time_s": 0.0,
        }

    # -- public API ----------------------------------------------------

    def run(
        self,
        jobs,
        timeout: float | None = None,
        trace: bool = False,
    ) -> list[BatchResult]:
        """Execute ``jobs`` and return one :class:`BatchResult` per job,
        in input order.  Failures (including per-job timeouts) are
        captured as failure records; this method only raises for
        malformed input, never for a failing job.

        ``trace=True`` records one hierarchical trace per job (wall-time
        spans, counter deltas, escalation events — see
        ``docs/observability.md``) and returns it on each result's
        ``trace`` field as a serialized record."""
        jobs = list(jobs)
        for job in jobs:
            if not isinstance(job, AweJob):
                raise CircuitError(f"expected an AweJob, got {type(job).__name__}")
        if not jobs:
            return []
        timeout = self.timeout if timeout is None else timeout
        jobs = self._apply_reduction(jobs)

        start = time.perf_counter()
        groups = self._group_by_circuit(jobs)
        results: list[BatchResult | None] = [None] * len(jobs)
        builds = 0
        for entries in groups:
            group_results, group_builds = _execute_group(
                entries, timeout, trace, self._solver_stats)
            builds += group_builds
            for result in group_results:
                results[result.index] = result

        failed = sum(1 for r in results if not r.ok)
        self._engine_stats["jobs"] += len(jobs)
        self._engine_stats["jobs_failed"] += failed
        self._engine_stats["distinct_circuits"] += len(groups)
        self._engine_stats["analyzers_built"] += builds
        self._engine_stats["runs"] += 1
        self._engine_stats["batch_wall_time_s"] += time.perf_counter() - start
        return results

    def stats(self) -> dict[str, float]:
        """Engine-level counters plus the merged per-circuit solver
        instrumentation (see :mod:`repro.instrumentation`)."""
        out = dict(self._engine_stats)
        out.update(self._solver_stats.as_dict())
        return out

    def reset_stats(self) -> None:
        for key in self._engine_stats:
            self._engine_stats[key] = 0.0 if key.endswith("_s") else 0
        self._solver_stats.reset()

    # -- internals -----------------------------------------------------

    @staticmethod
    def _apply_reduction(jobs):
        """Pre-reduce the circuits of ``reduce=True`` jobs.

        Reduction runs once per distinct circuit object with the union
        of those jobs' output nodes as taps, and every such job is
        rewritten onto the *same* reduced circuit — so
        :meth:`_group_by_circuit`'s identity grouping (and therefore
        analyzer reuse) still applies after reduction.  A no-op
        reduction keeps the original object.
        """
        if not any(job.reduce for job in jobs):
            return jobs
        taps: dict[int, tuple[Circuit, set]] = {}
        for job in jobs:
            if job.reduce:
                circuit, nodes = taps.setdefault(id(job.circuit),
                                                 (job.circuit, set()))
                nodes.update(job.nodes)
        reduced = {
            key: reduce_circuit(circuit, keep=tuple(sorted(nodes))).circuit
            for key, (circuit, nodes) in taps.items()
        }
        return [
            dataclasses.replace(
                job, circuit=reduced[id(job.circuit)], reduce=False)
            if job.reduce else job
            for job in jobs
        ]

    @staticmethod
    def _group_by_circuit(jobs):
        """Group ``(index, job)`` pairs by circuit *identity*, preserving
        first-seen order."""
        groups: dict[int, list] = {}
        for index, job in enumerate(jobs):
            groups.setdefault(id(job.circuit), []).append((index, job))
        return list(groups.values())
