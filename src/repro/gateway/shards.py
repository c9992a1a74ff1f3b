"""Shard workers: single-engine ``repro serve`` daemons the gateway owns.

A shard is one ordinary analysis daemon (:mod:`repro.service.server`)
run as a child process — the gateway adds nothing to the worker side, so
every daemon behaviour (admission control, per-request deadlines,
``/metrics``) holds per shard and is observable through it.  This
module handles only process lifecycle:

* :class:`ShardProcess` spawns ``python -m repro serve --port 0``,
  parses the ``repro service listening on URL`` announce line to learn
  the ephemeral port, and can kill / respawn the child (respawning is
  how the gateway turns a crashed shard into a retried request instead
  of a client-visible failure);
* :class:`AttachedShard` wraps an externally managed URL (an in-process
  :class:`~repro.service.server.ServiceServer` in tests and docs, or a
  daemon on another host) behind the same interface, minus lifecycle.

Spawned children get a scrubbed environment: the parent's
``REPRO_FAULTS`` is dropped so a fault plan installed to exercise the
*gateway* (``shard_crash``, boundary 503s) does not leak into every
worker and fire twice.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import repro
from repro.faults import ENV_SEED, ENV_SPEC

#: The daemon's announce-line prefix (printed by ``repro serve`` once
#: bound; wrappers parse it — see docs/service.md "Command line").
ANNOUNCE_PREFIX = "repro service listening on "

#: How long a shard may take to print its announce line.
SPAWN_TIMEOUT_S = 30.0


def _shard_environment() -> dict:
    """A child environment that can import ``repro`` and carries no
    fault plan."""
    env = dict(os.environ)
    env.pop(ENV_SPEC, None)
    env.pop(ENV_SEED, None)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + existing
                             if existing else package_root)
    return env


def _drain(stream) -> None:
    with stream:
        stream.read()


def _address(url: str) -> tuple[str, int]:
    host, _, port = url[len("http://"):].rpartition(":")
    return host, int(port)


class AttachedShard:
    """A shard the gateway routes to but does not own.

    Used where process spawning is wrong for the job: tier-1 tests and
    executable docs attach in-process :class:`ServiceServer` instances
    (fast, no subprocess), and a deployment can attach daemons running
    on other hosts.  ``alive`` is always True — health is judged by the
    gateway's own forward outcomes — and kill/respawn are refused.
    """

    owned = False

    def __init__(self, url: str):
        if not url.startswith("http://"):
            raise ValueError(f"shard URLs are http://host:port, got {url!r}")
        self.url = url.rstrip("/")
        self.restarts = 0

    @property
    def address(self) -> tuple[str, int]:
        return _address(self.url)

    def alive(self) -> bool:
        return True

    def kill(self) -> None:
        raise RuntimeError("cannot kill an attached shard (not owned)")

    def respawn(self) -> str:
        raise RuntimeError("cannot respawn an attached shard (not owned)")

    def terminate(self, timeout: float = 10.0) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttachedShard({self.url!r})"


class ShardProcess:
    """One owned shard: spawn, watch, kill, respawn a ``serve`` child.

    All methods are blocking (the gateway calls them from its request
    and start-up threads).  ``spawn``/``respawn`` return the announced
    URL.
    """

    owned = True

    def __init__(self, index: int, *, queue_size: int = 64,
                 cache_dir: str | None = None):
        self.index = index
        self.queue_size = queue_size
        self.cache_dir = cache_dir
        self.url: str | None = None
        self.restarts = 0
        self._process: subprocess.Popen | None = None

    # -- lifecycle -----------------------------------------------------

    def _command(self) -> list:
        command = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", "--workers", "1",
            "--queue-size", str(self.queue_size),
        ]
        if self.cache_dir is not None:
            command += ["--cache-dir", self.cache_dir]
        return command

    def spawn(self) -> str:
        """Start the child and block until it announces its URL."""
        if self._process is not None and self._process.poll() is None:
            return self.url
        process = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=_shard_environment(),
            text=True,
        )
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        url = None
        for line in process.stdout:
            if line.startswith(ANNOUNCE_PREFIX):
                url = line[len(ANNOUNCE_PREFIX):].strip()
                break
            if time.monotonic() > deadline:
                break
        if url is None:
            process.kill()
            process.wait()
            process.stdout.close()
            raise RuntimeError(
                f"shard {self.index} failed to announce within "
                f"{SPAWN_TIMEOUT_S:g} s (exit code {process.poll()})")
        # Keep draining stdout so the child can never block on a full
        # pipe, whatever it prints after the announce; the drain closes
        # the pipe once the child has exited.
        threading.Thread(target=_drain, args=(process.stdout,),
                         daemon=True).start()
        self._process = process
        self.url = url
        return url

    def respawn(self) -> str:
        """Replace a dead (or killed) child with a fresh one."""
        if self._process is not None:
            if self._process.poll() is None:
                self._process.kill()
            self._process.wait()
            self._process = None
        self.restarts += 1
        return self.spawn()

    # -- health / teardown ---------------------------------------------

    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    @property
    def address(self) -> tuple[str, int]:
        if self.url is None:
            raise RuntimeError(f"shard {self.index} was never spawned")
        return _address(self.url)

    def kill(self) -> None:
        """SIGKILL the child — the crash the ``shard_crash`` probe
        injects: no drain, no cleanup, exactly an OOM kill."""
        if self._process is not None and self._process.poll() is None:
            self._process.send_signal(signal.SIGKILL)
            self._process.wait()

    def terminate(self, timeout: float = 10.0) -> None:
        """Graceful stop: SIGTERM (the daemon drains), then SIGKILL."""
        if self._process is None:
            return
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
            try:
                self._process.wait(timeout)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._process = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive() else "dead"
        return f"ShardProcess(index={self.index}, url={self.url!r}, {state})"


__all__ = ["ANNOUNCE_PREFIX", "AttachedShard", "ShardProcess"]
