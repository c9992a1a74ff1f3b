"""The repository benchmark: ``bignet``, ``sta`` and ``serve``.

Usage (from the checkout root)::

    python3 awebench/run.py --workload bignet --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run that gives the per-layer
metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and sample count, the environment,
and any failure by exception type and layer.

Workloads (see ``BENCHMARK.json`` for why each exists):

``bignet``
    Two seeded extracted nets of 10^4 nodes on the sparse backend: a
    chain-dominated ladder analysed with the public ``reduce`` request
    field on and a branchy RC tree with it off.  Each net gets a
    multi-tap analyze request, then a what-if sweep request on two
    taps.  One caller, back to back, whole cycles of four requests.
``sta``
    Seeded gate-level designs of 25-60 RC-wired nets, two corners, top-3
    paths, through ``run_sta`` and ``build_sta_report``.  Whole blocks of
    four designs whose sizes average 42.5 nets.
``serve``
    ``python -m repro gateway --port 0 --shards 2`` over plain HTTP with
    at most two connections: an open-loop phase at a fixed rate for
    latency and a closed-loop phase for capacity (``served.py``).

This launcher imports neither the program nor numpy: it clears the
inherited BLAS/OpenMP thread variables and runs each measurement in a
fresh child interpreter, so every run sees the thread default a user
gets and ``setup_s`` includes a cold interpreter.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

HERE = Path(__file__).resolve().parent

#: Set-up samples per in-process run (the median is ``setup_s``).
SETUPS = 3

#: Hard wall-clock limit for the whole run.
RUN_LIMIT_S = 175.0

#: Reported in place of a latency percentile that falls on failed
#: requests (a failure misses every latency limit).
FAILED_LATENCY_MS = 1e9

#: Metric names and units, from the benchmark's contract file.
_SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

TRACE_SPANS = ("mna_assembly", "lu", "operating_points", "moment_recursion",
               "response", "pade_escalation", "pade", "residues", "waveform")

#: Layer timers that partition a traced pass (nested ``trace.*`` spans
#: are inside ``sta.build_s`` and are left out of the sum).
TOP_LAYERS = ("circuit.parse_s", "reduce.s", "mna.stamp_s", "mna.factor_s",
              "core.moments_s", "core.pade_s", "core.waveform_s",
              "report.serialize_s", "sweep.setup_s", "sweep.tap_setup_s",
              "sweep.points_s", "sta.parse_s", "sta.build_s", "sta.analyze_s",
              "sta.paths_s")

ENV_PROBE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy
import repro
info = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": []}
libs = sorted({line.split()[-1] for line in open("/proc/self/maps")
               if "openblas" in line.lower() and ".so" in line})
for path in libs:
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get is not None and config is not None:
                get.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                info["blas"].append({"library": os.path.basename(path),
                                     "config": config().decode().strip(),
                                     "threads": get()})
print(json.dumps(info))
"""


class BenchmarkError(RuntimeError):
    """The run cannot produce a result."""


def spawn(argv: list[str], deadline: float) -> dict:
    """Run a child interpreter in its own process group to completion and
    return its JSON line; nothing it started outlives it."""
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(
            timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        common.stop_group(proc.pid)
        proc.communicate()
        raise BenchmarkError(f"child {argv[:2]} ran past the run limit") from exc
    finally:
        common.stop_group(proc.pid)
    if proc.returncode != 0:
        raise BenchmarkError(f"child {argv[:2]} exited {proc.returncode}:\n"
                             + err[-3000:])
    return common.last_json_line(out)


def child(script: str, args, role: str | None, deadline: float) -> dict:
    argv = [str(HERE / script), "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    if role is not None:
        argv += ["--workload", args.workload, "--role", role,
                 "--spawned", repr(time.time())]
    else:
        argv += ["--trace", str(args.trace)]
    return spawn(argv, deadline)


def percentile_ms(latencies_s, q: float) -> float:
    value = common.quantile(latencies_s, q)
    return FAILED_LATENCY_MS if math.isinf(value) else value * 1e3


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------


def inproc_end_to_end(args, deadline: float):
    setups = [child("inproc.py", args, "probe", deadline)["setup_s"]
              for _ in range(SETUPS - 1)]
    main = child("inproc.py", args, "main", deadline)
    setups.append(main["setup_s"])
    latencies = main["latencies_s"]
    bad = main["failed"] + min(main["wrong"], main["attempted"])
    metrics = {
        "throughput_rps": (main["completed"] / main["elapsed_s"],
                           main["completed"]),
        "latency_p50_ms": (percentile_ms(latencies, 0.5), len(latencies)),
        "latency_p90_ms": (percentile_ms(latencies, 0.9), len(latencies)),
        "ok_share": (max(main["attempted"] - bad, 0) / main["attempted"],
                     main["attempted"]),
        "setup_s": (common.median(setups), len(setups)),
        "peak_rss_mb": (main["peak_rss_mb"], 1),
    }
    return metrics, main, bad


def serve_end_to_end(result):
    opened = [r["latency_s"] for r in result["open"]]
    attempted = result["attempted"]
    bad = min(result["failed"], attempted)
    metrics = {
        "throughput_rps": (result["closed_ok"] / result["closed_s"],
                           result["closed_ok"]),
        "latency_p50_ms": (percentile_ms(opened, 0.5), len(opened)),
        "latency_p90_ms": (percentile_ms(opened, 0.9), len(opened)),
        "ok_share": ((attempted - bad) / attempted, attempted),
        "setup_s": (common.median(result["setups_s"]),
                    len(result["setups_s"])),
        "peak_rss_mb": (result["peak_rss_mb"], 1 + 2),
    }
    return metrics, bad


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def layer_metrics(layers: dict | None, untraced_s: float) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    if layers is None:
        return metrics
    sec, cnt, smp = layers["seconds"], layers["counts"], layers["samples"]

    def s(*names):
        return sum(sec.get(name, 0.0) for name in names)

    trace = {f"trace.{span}_s": s(f"trace.{span}_s") for span in TRACE_SPANS}
    metrics.update(trace)
    metrics.update({
        "circuit.parse_s": s("circuit.parse_s"),
        "reduce.s": s("reduce.s"),
        "reduce.dim_ratio": common.mean(smp.get("reduce.dim_ratio", ())),
        "mna.stamp_s": s("mna.stamp_s", "trace.mna_assembly_s"),
        "mna.factor_s": s("mna.factor_s", "trace.lu_s"),
        "mna.dimension": common.mean(smp.get("mna.dimension", ())),
        "core.moments_s": s("core.moments_s", "trace.operating_points_s",
                            "trace.moment_recursion_s"),
        "core.pade_s": s("core.pade_s", "trace.pade_escalation_s",
                         "trace.pade_s", "trace.residues_s",
                         "trace.response_s"),
        "core.waveform_s": s("core.waveform_s", "trace.waveform_s"),
        "core.order_escalations": cnt.get("mna.order_escalations", 0),
        "core.mean_order": common.mean(smp.get("core.order", ())),
        "sweep.setup_s": s("sweep.setup_s"),
        "sweep.tap_setup_s": s("sweep.tap_setup_s"),
        "sweep.point_us": (s("sweep.points_s") * 1e6
                           / cnt["sweep.timed_points"]
                           if cnt.get("sweep.timed_points") else 0.0),
        "sta.build_s": s("sta.build_s"), "sta.analyze_s": s("sta.analyze_s"),
        "sta.paths_s": s("sta.paths_s"),
        "sta.build_self_s": s("trace.sta_build_s"),
        "report.serialize_s": s("report.serialize_s"),
        "report.bytes": common.mean(smp.get("report.bytes", ())),
        "engine.unattributed_s": layers["wall"] - s(*TOP_LAYERS),
        # The traced run's own delay_50 call repeats work the report
        # builder does anyway; it is a probe, not tracing overhead.
        "trace.overhead_share": ((layers["wall"] - s("core.waveform_s"))
                                 / untraced_s - 1.0
                                 if untraced_s > 0 else 0.0),
    })
    for name in ("lu_factorizations", "triangular_solves", "solve_columns"):
        metrics[f"mna.{name}"] = cnt.get(f"mna.{name}", 0)
    for name in ("first_order", "rank1", "exact", "fallbacks",
                 "factorizations"):
        metrics[f"sweep.{name}"] = cnt.get(f"sweep.{name}", 0)
    return metrics


def gateway_metrics(result: dict) -> dict:
    opened = [r for r in result["open"] if r["server_s"] is not None]
    everything = result["open"] + result["closed_all"]
    shards = Counter(r["shard"] for r in everything if r["shard"] is not None)
    metrics = {
        "gateway.server_ms": common.median([r["server_s"] for r in opened])
        * 1e3 if opened else 0.0,
        "gateway.hop_ms": common.median(
            [r["service_s"] - r["server_s"] for r in opened]) * 1e3
        if opened else 0.0,
        "gateway.cache_hit_share": sum(1 for r in everything
                                       if r["cache"] == "hit")
        / len(everything),
        "gateway.coalesced_share": sum(1 for r in everything
                                       if r["coalesced"] == "joined")
        / len(everything),
        "gateway.shard_skew": (max(shards.values()) * len(shards)
                               / sum(shards.values()) if shards else 0.0),
        "loadgen.late_p90_ms": common.quantile(
            [r["late_s"] for r in result["open"]], 0.9) * 1e3,
        **result["metrics_delta"],
        **result["counts"],
    }
    for path, name in (("/analyze", "analyze"), ("/sta", "sta"),
                       ("/sweep", "sweep")):
        samples = [r["service_s"] for r in opened if r["path"] == path]
        metrics[f"serve.{name}_p50_ms"] = (common.median(samples) * 1e3
                                           if samples else 0.0)
    return metrics


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------


def report(name: str, value: float, unit: str, samples=None) -> None:
    count = "" if samples is None else f"  (n={samples})"
    print(f"  {name:<30} {value:>14.6g} {unit}{count}")


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    ticks = common.cpu_ticks()
    env = spawn(["-c", ENV_PROBE], deadline)
    print("environment: " + json.dumps(env, sort_keys=True))
    faults: list[str] = []
    failures: dict = {}
    problems: list[str] = []

    if args.workload == "serve":
        result = child("served.py", args, None, deadline)
        failures, problems = result["failures"], result["problems"]
        faults += result["drift"]
        attempted = result["attempted"]
        if args.trace:
            metrics = layer_metrics(result["layers"], result["untraced_s"])
            metrics.update(gateway_metrics(result))
            metrics["gate.fail_share"] = result["failed"] / attempted
            metrics["gate.wrong_answers"] = result["wrong"]
            failed = result["failed"]
        else:
            measured, failed = serve_end_to_end(result)
    elif args.trace:
        result = child("inproc.py", args, "traced", deadline)
        failures, problems = result["failures"], result["problems"]
        faults += result["drift"]
        attempted = result["attempted"]
        failed = sum(failures.values())
        metrics = layer_metrics(result["layers"], result["untraced_s"])
        metrics["gate.fail_share"] = (
            min(failed + result["wrong"], attempted) / attempted)
        metrics["gate.wrong_answers"] = result["wrong"]
        probe = result["probe"]
        if probe:
            probe_failed = probe["failures"]
            metrics["gate.probe_fail_share"] = (sum(probe_failed.values())
                                                / probe["attempted"])
            metrics["gate.probe_arithmetic_share"] = sum(
                n for kind, n in probe_failed.items()
                if kind.startswith("ArithmeticError")) / probe["attempted"]
            print(f"failure probe (branchy RC-tree wiring, "
                  f"{probe['attempted']} designs): "
                  + (json.dumps(probe_failed) if probe_failed else "none"))
    else:
        measured, main, failed = inproc_end_to_end(args, deadline)
        failures, problems = main["failures"], main["problems"]
        faults += main["drift"]
        attempted = main["attempted"]

    steal = common.steal_share(ticks, common.cpu_ticks())
    if steal is not None:
        print(f"cpu steal during the run: {steal:.4f} of all CPU time")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}:")
    if args.trace:
        for name, unit in PER_LAYER.items():
            report(name, metrics[name], unit)
        out = {name: {"value": float(metrics[name]), "unit": unit}
               for name, unit in PER_LAYER.items()}
    else:
        for name, unit in END_TO_END.items():
            report(name, measured[name][0], unit, measured[name][1])
        out = {name: {"value": float(measured[name][0]), "unit": unit}
               for name, unit in END_TO_END.items()}
    for kind, count in sorted(failures.items()):
        print(f"failure: {count} x {kind}")
    for problem in problems:
        print(f"wrong answer: {problem}")
    for fault in faults:
        print(f"BENCHMARK FAULT: {fault}")
    result_line = {
        "correct": not problems and not faults,
        "attempted": int(attempted), "failed": int(failed), "metrics": out,
    }
    return result_line


def run_all(args) -> dict:
    """Every workload, untraced then traced; metrics keyed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in common.WORKLOADS:
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": workload,
                                        "trace": trace})
            result_line = run(one)
            print(json.dumps(result_line), flush=True)
            merged["correct"] &= result_line["correct"]
            merged["attempted"] += result_line["attempted"]
            merged["failed"] += result_line["failed"]
            merged["metrics"].update(
                {f"{workload}.{name}": value
                 for name, value in result_line["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=(*common.WORKLOADS, "all"),
                        required=True,
                        help="one workload, or all of them traced and "
                             "untraced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not common.program_present():
        print(f"error: no program sources under {common.SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    try:
        result_line = run_all(args) if args.workload == "all" else run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
