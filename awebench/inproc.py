"""The in-process workloads, ``bignet`` and ``sta``; run as a child of
``run.py`` with a clean thread environment.

Roles:

``probe``
    Import ``repro``, serve the workload's first request, report how long
    that took since the parent spawned this interpreter, and exit.
``main``
    The same set-up, then whole cycles of requests, back to back from one
    caller, until ``--seconds`` have passed; then the correctness gate.
``traced``
    One cycle untraced, then the same cycle one layer at a time (the
    traced run); per-layer self times and work counts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import gen  # noqa: E402

#: Sweep points per ``bignet`` net re-checked against direct evaluation.
SWEEP_CHECKS = 3


class Request:
    __slots__ = ("path", "body", "net")

    def __init__(self, path: str, body: bytes, net=None):
        self.path, self.body, self.net = path, body, net


def bignet_requests(seed: int) -> list[Request]:
    """One cycle: an analyze and a multi-tap sweep request per net."""
    requests = []
    for index in range(len(gen.BIGNET_KINDS)):
        net = gen.bignet_net(seed, index)
        analyze = {"deck": net.deck, "nodes": list(net.taps),
                   "reduce": net.reduce, "order": gen.BIGNET_ORDER[net.kind]}
        sweep = {"deck": net.deck,
                 "plans": gen.bignet_sweep_plans(net, seed, index)}
        requests.append(Request("/analyze", json.dumps(analyze).encode(), net))
        requests.append(Request("/sweep", json.dumps(sweep).encode(), net))
    return requests


def sta_requests(seed: int, block: int, **design_options) -> list[Request]:
    """One stratified block of designs."""
    sizes = gen.sta_block_sizes(seed, block)
    return [Request("/sta", json.dumps(gen.sta_request(gen.sta_design(
        seed, block * len(sizes) + i, size, **design_options))).encode())
        for i, size in enumerate(sizes)]


def cycle(workload: str, seed: int, number: int) -> list[Request]:
    if workload == "bignet":
        return bignet_requests(seed)
    return sta_requests(seed, number)


def failure_layer(exc: BaseException) -> str:
    """The innermost ``repro`` module on the traceback (the layer that
    raised), or ``benchmark`` when the program was never entered."""
    layer = "benchmark"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename).resolve()
        if common.SRC in path.parents:
            layer = ".".join(path.relative_to(common.SRC).with_suffix("").parts)
    return layer


def run_one(calls, request: Request):
    """``(seconds, body, counts, document, failure)`` for one request."""
    start = time.perf_counter()
    try:
        body, counts, document = calls.E2E[request.path](request.body)
    except calls.JobFailed as exc:
        return (time.perf_counter() - start, None, {}, None,
                f"{exc.error_type} in repro.engine.batch")
    except Exception as exc:  # counted by type and layer, never fatal
        return (time.perf_counter() - start, None, {}, None,
                f"{type(exc).__name__} in {failure_layer(exc)}")
    return time.perf_counter() - start, body, counts, document, None


def setup(args):
    """Generate the first cycle, import the program, serve the first
    request; the set-up time excludes input generation."""
    gen_start = time.perf_counter()
    first_cycle = cycle(args.workload, args.seed, 0)
    gen_s = time.perf_counter() - gen_start
    common.import_repro()
    import calls

    run_one(calls, first_cycle[0])
    setup_s = time.time() - args.spawned - gen_s
    return calls, first_cycle, setup_s


# ----------------------------------------------------------------------
# roles
# ----------------------------------------------------------------------


def role_probe(args) -> dict:
    _, _, setup_s = setup(args)
    return {"setup_s": setup_s}


def role_main(args) -> dict:
    calls, first_cycle, setup_s = setup(args)
    latencies, failures, problems = [], Counter(), []
    counts_by_request: dict[int, dict] = {}
    drift = []
    done = []          # (request, document) of the first cycle
    start = time.perf_counter()
    number = 0
    while True:
        requests = first_cycle if number == 0 else cycle(
            args.workload, args.seed, number)
        for position, request in enumerate(requests):
            seconds, body, counts, document, failure = run_one(calls, request)
            latencies.append(seconds if failure is None else float("inf"))
            if failure is not None:
                failures[failure] += 1
                continue
            if args.workload == "bignet":
                # Every cycle repeats the same requests: counts must repeat.
                earlier = counts_by_request.setdefault(position, counts)
                if earlier != counts:
                    drift.append(f"request {position} counts {counts} after "
                                 f"{earlier}")
                if number == 0:
                    done.append((request, document))
            else:
                problems += sta_problems(request, document)
        number += 1
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    # Read before the gate: its direct re-evaluations of the large nets
    # are the benchmark's work, not the program's, and would raise it.
    peak_rss = common.peak_rss_mb()
    if args.workload == "bignet":
        problems += bignet_gate(calls, done)
    completed = sum(1 for s in latencies if s != float("inf"))
    return {
        "attempted": len(latencies), "failed": sum(failures.values()),
        "wrong": len(problems), "problems": problems[:20],
        "failures": dict(failures), "drift": drift,
        "elapsed_s": elapsed, "completed": completed, "cycles": number,
        "latencies_s": latencies, "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
    }


def sta_problems(request: Request, document) -> list[str]:
    import checks

    design = json.loads(request.body)["design"]
    return [f"{document['design']}: {problem}"
            for problem in checks.check_sta_report(document, design)]


def bignet_gate(calls, done) -> list[str]:
    """Delay bounds/references for every net, and a sample of sweep
    points against direct evaluation."""
    import checks
    from repro import SweepEngine, SweepPlan, parse_netlist

    refs = checks.load_refs("bignet")
    problems = []
    for request, document in done:
        net = request.net
        if request.path == "/analyze":
            problems += checks.check_bignet_delays(net, document, refs)
            continue
        deck = parse_netlist(net.deck)
        engine = SweepEngine(deck.circuit, deck.stimuli)
        payload = json.loads(request.body)["plans"][0]
        plan = SweepPlan.from_payload(payload)
        sample = SweepPlan(plan.node, plan.points[:SWEEP_CHECKS], plan.mode,
                           plan.first_order_threshold, plan.error_bound)
        problems += checks.check_sweep_points(engine, sample,
                                              engine.evaluate(sample))
    return problems


def role_traced(args) -> dict:
    """Failures are counted once, from the untraced pass, and its answers
    go through the same correctness gate as the ``main`` role's."""
    calls, first_cycle, _ = setup(args)
    requests = first_cycle
    failures = Counter()
    e2e_counts: list[dict] = []
    done, failed_at = [], set()
    start = time.perf_counter()
    for position, request in enumerate(requests):
        _, _, counts, document, failure = run_one(calls, request)
        e2e_counts.append(counts)
        if failure is not None:
            failures[failure] += 1
            failed_at.add(position)
        else:
            done.append((request, document))
    untraced = time.perf_counter() - start

    layers = calls.Layers()
    drift = []
    for position, request in enumerate(requests):
        before = dict(layers.counts)
        try:
            calls.TRACED[request.path](layers, request.body)
        except Exception as exc:
            if position in failed_at:
                continue        # already counted by the untraced pass
            drift.append(f"request {position}: the traced pass raised "
                         f"{type(exc).__name__} in {failure_layer(exc)} "
                         f"where the untraced pass did not")
            continue
        if args.workload == "bignet":
            mine = {k: v - before.get(k, 0) for k, v in layers.counts.items()
                    if k != "sweep.timed_points" and v - before.get(k, 0)}
            theirs = {k: v for k, v in e2e_counts[position].items() if v}
            if mine != theirs:
                drift.append(f"request {position}: untraced counts {theirs} "
                             f"but traced counts {mine}")
    counts = {k: v for k, v in layers.counts.items()}
    drift += common.check_counts(args.workload, args.seed, counts)
    if args.workload == "bignet":
        problems = bignet_gate(calls, done)
    else:
        problems = [p for request, document in done
                    for p in sta_problems(request, document)]
    probe = sta_probe(calls, args.seed) if args.workload == "sta" else {}
    return {"layers": layers_payload(layers), "untraced_s": untraced,
            "failures": dict(failures), "drift": drift, "probe": probe,
            "wrong": len(problems), "problems": problems[:20],
            "attempted": len(requests), "counts": counts}


def layers_payload(layers) -> dict:
    return {"seconds": dict(layers.seconds), "counts": dict(layers.counts),
            "samples": {k: list(v) for k, v in layers.samples.items()},
            "wall": layers.wall}


def sta_probe(calls, seed: int) -> dict:
    """Branchy RC-tree wiring, the class of nets on which the
    escalation's error estimate can raise: run a few such designs and
    count failures by exception type and layer.  Kept out of the timed
    workload so its figures stay steady; reported beside it."""
    requests = sta_requests(seed, 0, branchy=True)
    failures = Counter()
    for request in requests:
        _, _, _, _, failure = run_one(calls, request)
        if failure is not None:
            failures[failure] += 1
    return {"attempted": len(requests), "failures": dict(failures)}


ROLES = {"probe": role_probe, "main": role_main, "traced": role_traced}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("bignet", "sta"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=sorted(ROLES), required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() when the parent spawned us")
    args = parser.parse_args()
    common.emit(ROLES[args.role](args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
