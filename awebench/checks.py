"""The correctness gate: independent checks of the program's answers.

* ``bignet`` responses are checked against this module's own walk over
  the generator's tree: every model's final value and Elmore delay
  (``sum(k_i / p_i)`` over its terms, the first moment, which neither
  AWE nor reduction may change) must equal the tree's to ``rtol`` 1e-6,
  an order-1 model's 50 % delay must be ``ln 2`` times the Elmore delay,
  and every delay must lie inside the Penfield-Rubinstein bounds.  Where
  ``refs/bignet.json`` holds one, the delay is also checked against a
  converged transient reference produced once by ``make_refs.py``.
* ``bignet`` sweep points are checked against
  ``SweepEngine.direct_point`` at the plan's error bound.
* ``sta`` reports are checked for the arithmetic identities every timing
  report must satisfy (path delays sum to arrivals, slack is required
  minus arrival, paths are ordered by slack).
* ``serve`` results are compared with the in-process result of the same
  request (see ``served.py``).

Every check returns a list of problem strings; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"

#: Relative tolerance of an AWE 50 % delay against a converged transient,
#: by net kind: the reduced ladders run at order 2 (measured error up to
#: 3.3 % on seeds 0-7), the trees at order 1 (up to 13 %).
TRANSIENT_RTOL = {"ladder": 0.05, "tree": 0.2}

#: Relative tolerance of the moment identities (final value, Elmore
#: delay, order-1 delay); measured agreement is better than 1e-6.
MOMENT_RTOL = 1e-5


def deck_digest(deck: str) -> str:
    return hashlib.sha256(deck.encode()).hexdigest()[:20]


def tree_bounds(net, tap: str) -> tuple[float, float]:
    """Penfield-Rubinstein bounds on the 50 % step-response crossing at
    ``tap`` of a generator tree: ``T_D - T_max/2 <= t50 <= 2 T_D``."""
    n = len(net.parent)
    subtree = list(net.c)
    for i in range(n - 1, 0, -1):
        subtree[net.parent[i]] += subtree[i]
    elmore = [0.0] * n
    path_r = [0.0] * n
    for i in range(n):
        up = net.parent[i]
        elmore[i] = (elmore[up] if up >= 0 else 0.0) + net.r[i] * subtree[i]
        path_r[i] = (path_r[up] if up >= 0 else 0.0) + net.r[i]
    t_max = sum(path_r[i] * net.c[i] for i in range(n))
    t_d = elmore[int(tap[1:])]
    return max(0.0, t_d - 0.5 * t_max), 2.0 * t_d


def model_moments(response: dict) -> tuple[float, float]:
    """``(final value, Elmore delay)`` of a reported step-response model
    ``y(t) = y_inf + sum k_i exp(p_i t)``: the Elmore delay is
    ``integral (1 - y / y_inf) dt = sum(k_i / p_i) / y_inf``."""
    total = sum(complex(t["residue"]["re"], t["residue"]["im"])
                / complex(t["pole"]["re"], t["pole"]["im"])
                for t in response["terms"])
    final = response["final_value"]
    return final, (total / final).real


def load_refs(name: str) -> dict:
    path = REFS / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def check_bignet_delays(net, document: dict, refs: dict) -> list[str]:
    problems = []
    stored = refs.get(deck_digest(net.deck), {})
    for response in document["jobs"][0]["responses"]:
        tap, t50 = response["node"], response.get("delay_50_s")
        if t50 is None or not math.isfinite(t50):
            problems.append(f"{net.name} {tap}: no 50% delay")
            continue
        low, high = tree_bounds(net, tap)
        t_d = 0.5 * high
        final, elmore = model_moments(response)
        if not _close(final, net.swing, MOMENT_RTOL):
            problems.append(f"{net.name} {tap}: final value {final:.9e}, "
                            f"the step is {net.swing}")
        if not _close(elmore, t_d, MOMENT_RTOL):
            problems.append(f"{net.name} {tap}: model Elmore delay "
                            f"{elmore:.9e} vs tree walk {t_d:.9e}")
        if response["order"] == 1 and not _close(t50, math.log(2) * t_d,
                                                 MOMENT_RTOL):
            problems.append(f"{net.name} {tap}: order-1 t50 {t50:.9e} vs "
                            f"ln2 * T_D {math.log(2) * t_d:.9e}")
        if not low * (1 - 1e-9) <= t50 <= high * (1 + 1e-9):
            problems.append(f"{net.name} {tap}: t50 {t50:.4e} outside "
                            f"Penfield-Rubinstein bounds [{low:.4e}, "
                            f"{high:.4e}]")
        if tap in stored:
            ref = stored[tap]
            if abs(t50 - ref) > TRANSIENT_RTOL[net.kind] * abs(ref):
                problems.append(f"{net.name} {tap}: t50 {t50:.6e} vs "
                                f"transient reference {ref:.6e}")
    return problems


def check_sweep_points(engine, plan, result) -> list[str]:
    """Points of ``result`` against fresh direct evaluation."""
    problems = []
    for point, got in zip(plan.points, result.points):
        want = engine.direct_point(point, plan.node)
        bound = max(plan.error_bound, 1e-9)
        for field in ("dc", "elmore_delay"):
            a, b = getattr(got, field), getattr(want, field)
            if abs(a - b) > bound * abs(b):
                problems.append(
                    f"sweep {plan.node} {point.element} ({got.mode}): {field} "
                    f"{a:.9e} vs direct {b:.9e}")
    return problems


def check_sta_report(document: dict, design: dict) -> list[str]:
    """Identities of one ``/sta`` report of ``design`` (the request's
    design dict, whose input arrivals start every path)."""
    arrivals = {port["name"]: port["arrival"] for port in design["inputs"]}
    problems = []
    for corner in document["corners"]:
        name = corner["name"]
        slacks = [p["slack_s"] for p in corner["paths"]]
        if slacks != sorted(slacks):
            problems.append(f"{name}: paths not ordered by slack")
        endpoint_slacks = [e["slack_s"] for e in corner["endpoints"]
                           if e["slack_s"] is not None]
        worst = corner["worst_slack_s"]
        if endpoint_slacks and not _close(worst, min(endpoint_slacks)):
            problems.append(f"{name}: worst slack {worst} is not the "
                            f"minimum endpoint slack")
        for path in corner["paths"]:
            edges = path["edges"]
            if [e["src"] for e in edges] + [edges[-1]["dst"]] != path["nodes"]:
                problems.append(f"{name}: path {path['rank']} edges do not "
                                f"chain its nodes")
            if any(e["delay_s"] < 0.0 for e in edges):
                problems.append(f"{name}: path {path['rank']} has a "
                                f"negative edge delay")
            if not _close(path["slack_s"],
                          path["required_s"] - path["arrival_s"]):
                problems.append(f"{name}: path {path['rank']} slack is not "
                                f"required - arrival")
            start = path["arrival_s"] - sum(e["delay_s"] for e in edges)
            want = arrivals.get(path["start"])
            # Summation rounding is a few ulps of the path arrival.
            if want is None or abs(start - want) > 1e-9 * abs(path["arrival_s"]):
                problems.append(f"{name}: path {path['rank']} delays do not "
                                f"add up to its arrival from {path['start']} "
                                f"({start:.6e} s left, input arrives at "
                                f"{want})")
    return problems


def _close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-15)


def same_answer(got, want, path: str = "$") -> list[str]:
    """Structural comparison of two result documents, ignoring what
    legitimately differs between runs (timings, traces, generator)."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key in want:
            if _volatile(key):
                continue
            if key not in got:
                problems.append(f"{path}.{key}: missing")
                continue
            problems += same_answer(got[key], want[key], f"{path}.{key}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: list length differs"]
        problems = []
        for i, (a, b) in enumerate(zip(got, want)):
            problems += same_answer(a, b, f"{path}[{i}]")
        return problems
    if isinstance(want, float) and isinstance(got, (int, float)):
        return [] if _close(got, want) or got == want else [
            f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _volatile(key: str) -> bool:
    return (key.endswith("_s") and key not in (
        "delay_50_s", "delay_threshold_s", "t0_s", "slack_s", "arrival_s",
        "required_s", "delay_s", "worst_slack_s")) or key in (
        "phase_seconds", "events", "traced", "trace", "generator",
        "counters", "wall_time_s", "batching_factor",
        "order_escalations_traced")
