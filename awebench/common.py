"""Shared plumbing: environment, statistics, result lines, count ledger.

This module imports neither ``repro`` nor numpy, so the launcher can use
it before it has cleaned the thread environment of its children.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from pathlib import Path

#: The checkout root (the directory holding ``awebench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Where the program's sources live inside the checkout.
SRC = ROOT / "src"

#: Scratch space inside the checkout (logs, the work-count ledger).
STATE = ROOT / ".awebench"

#: Thread-count variables a caller's shell may set; the benchmark clears
#: them so every run measures the default a user gets.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

WORKLOADS = ("bignet", "sta", "serve")


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """The environment every benchmark child runs with."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def import_repro():
    """Import the checkout's ``repro`` and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, "
                         f"expected {SRC / 'repro'}")
    return repro


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if pos > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# child protocol: the last stdout line of a child is one JSON object
# ----------------------------------------------------------------------


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("child printed no JSON result line")


def group_members(pgid: int) -> list[int]:
    """Live processes of a process group."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry.name))
    return members


def stop_group(pgid: int, timeout: float = 10.0) -> list[int]:
    """SIGKILL whatever is left of a process group and wait until it is
    gone; returns the pids that were still alive."""
    import signal
    import time

    leftovers = group_members(pgid)
    if leftovers:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + timeout
        while group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.02)
    return leftovers


def cpu_ticks() -> list[int]:
    """The host-wide CPU tick counters of ``/proc/stat`` (user, nice,
    system, idle, iowait, irq, softirq, steal, ...), or ``[]``."""
    try:
        with open("/proc/stat") as handle:
            return [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time a hypervisor gave to other guests between two
    :func:`cpu_ticks` readings: a virtual machine slowed by its
    neighbours shows it here."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after[:8]) - sum(before[:8])
    return (after[7] - before[7]) / total if total > 0 else None


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# work-count ledger: the same seed on the same program must give the
# same counts, run after run
# ----------------------------------------------------------------------


def program_digest() -> str:
    """Content hash of the program's and the benchmark's Python sources:
    a ledger entry only binds runs of the same code."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted([*SRC.rglob("*.py"), *here.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare ``counts`` with the ledger entry of an earlier run of the
    same seed on the same program; record them when there is none.
    Returns one message per drifting count."""
    path = STATE / "counts" / f"{program_digest()}-{workload}-{seed}.json"
    if path.is_file():
        recorded = json.loads(path.read_text())
        return [f"work count {name} drifted: {recorded.get(name)} in an "
                f"earlier run of seed {seed}, {value} now"
                for name, value in sorted(counts.items())
                if recorded.get(name) != value]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return []
