"""Shared pieces of the benchmark: paths, statistics, checks and the ledger.

Every workload runs in *rounds*: a fixed amount of work derived from the
seed, repeated until the run's time budget is spent.  A round's exact
counts (tasks, parcels, journal appends, ...) must repeat bit for bit,
so the :class:`Ledger` compares every round against the first one and a
mismatch fails the run like a wrong answer does.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import re
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

import numpy as np

#: Checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the package under test lives in a checkout.
SRC = ROOT / "src"
#: Scratch space for journals, checkpoints, spans and ledgers.
WORK = ROOT / ".perfbench"

#: Every metric name the benchmark emits must match this.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on ``sys.path``.

    Raises :class:`SystemExit` (code 2) when the checkout has no
    ``src/repro``: the benchmark measures that package and nothing else.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package to measure at {SRC / 'repro'}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


class CheckFailed(AssertionError):
    """An output check failed: a wrong answer, never just a slow one."""


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), nearest-rank on the sorted data.

    Raises :class:`ValueError` unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it, so a tail figure is never read off a handful
    of points.
    """
    data = sorted(samples)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if min_samples_for(q) > len(data):
        raise ValueError(
            f"p{q:g} needs {min_samples_for(q)} samples for "
            f"{MIN_TAIL_SAMPLES} beyond it, got {len(data)}"
        )
    rank = math.ceil(q / 100.0 * len(data))
    return data[max(rank, 1) - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count that leaves :data:`MIN_TAIL_SAMPLES` above p``q``."""
    beyond = 1.0 - q / 100.0
    return math.ceil(MIN_TAIL_SAMPLES / beyond - 1e-9)


class HostProbe:
    """How fast the host runs right now, for the resources a workload uses.

    On a shared host the same code runs up to 1.5x slower for tens of
    seconds at a time, with no steal time to show for it.  Timing a fixed
    reference task beside every round and every set-up tells how fast the
    host is at that moment; :meth:`slowdown` is that time over the task's
    nominal time (geometric mean over ``kinds``), and the timed figures
    are scaled by it.  The reference tasks touch nothing of ``repro``, so
    no change to the program moves them:

    * ``python`` -- a dict-and-integer loop (interpreter speed);
    * ``numpy`` -- streaming arithmetic over 2 MiB float32 arrays
      (memory bandwidth, the Jacobi kernel's bottleneck);
    * ``pingpong`` -- small-message round trips over a pipe to a helper
      process (the other vCPU's availability and wake-up latency, which
      the multiprocess backend pays on every message).

    ``power`` (at most 1) scales by only part of the slowdown, for a
    workload whose time is only partly bound by what the tasks gauge.
    """

    #: Seconds each reference task takes on a quiet 2-vCPU Xeon VM; only
    #: ratios to these matter.
    NOMINAL_S = {"python": 0.002, "numpy": 0.0024, "pingpong": 0.0014}

    def __init__(self, kinds: Iterable[str], power: float = 1.0) -> None:
        self.kinds = tuple(kinds)
        self.power = power
        self._arrays = None
        self._peer = None
        if "numpy" in self.kinds:
            a = np.ones(1 << 19, dtype=np.float32)
            self._arrays = (a, np.ones_like(a), np.empty_like(a))
        if "pingpong" in self.kinds:
            ctx = helper_context()
            self._conn, child = ctx.Pipe()
            self._peer = ctx.Process(target=_echo, args=(child,), daemon=True)
            self._peer.start()
            child.close()

    def _python(self) -> None:
        table: dict[int, int] = {}
        acc = 0
        for i in range(10_000):
            table[i & 255] = i
            acc += len(table) + (i % 7)

    def _numpy(self) -> None:
        a, b, c = self._arrays
        for _ in range(4):
            np.add(a, b, out=c)
            np.multiply(c, 0.25, out=c)

    def _pingpong(self) -> None:
        for _ in range(40):
            self._conn.send_bytes(b"x")
            self._conn.recv_bytes()

    def slowdown(self) -> float:
        ratio = 1.0
        for kind in self.kinds:
            t0 = time.perf_counter()
            getattr(self, "_" + kind)()
            ratio *= (time.perf_counter() - t0) / self.NOMINAL_S[kind]
        return ratio ** (self.power / len(self.kinds))

    def close(self) -> None:
        """Stop the ``pingpong`` helper process, if any."""
        if self._peer is not None:
            try:
                self._conn.send_bytes(b"")
            except OSError:  # the helper is gone already
                pass
            self._conn.close()
            self._peer.join(timeout=30)
            if self._peer.is_alive():
                self._peer.kill()
                self._peer.join()
            self._peer = None


def helper_context():
    """The multiprocessing context for the benchmark's own helper processes.

    ``fork``: the ``spawn`` and ``forkserver`` methods start
    multiprocessing's resource tracker, a process that outlives the run.
    """
    return multiprocessing.get_context("fork")


def _children() -> dict[int, list[int]]:
    """Parent pid -> child pids, for every process visible in ``/proc``."""
    tree: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name (field 2) may hold spaces; fields after it don't.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def descendants() -> list[int]:
    """Every process below this one, direct children or not."""
    tree = _children()
    out, todo = [], [os.getpid()]
    while todo:
        kids = tree.get(todo.pop(), [])
        out.extend(kids)
        todo.extend(kids)
    return out


def stop_descendants(grace_s: float = 5.0) -> list[int]:
    """Wait for every process this one started, directly or not, to end.

    Gives them ``grace_s`` to exit on their own, then terminates and kills
    the rest, and reaps this process's own children.  Returns the pids
    that were still running when called (none on a clean run).
    """
    left = descendants()
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        for pid in descendants() if sig is not None else ():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + (grace_s if sig is None else 1.0)
        while True:
            _reap()
            if not descendants():
                return left
            if time.monotonic() >= deadline:
                break
            time.sleep(0.02)
    return left


def _reap() -> None:
    """Collect the exit status of every finished child of this process."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _echo(conn) -> None:  # pragma: no cover - helper process
    """Answer every message with itself until an empty one arrives."""
    while True:
        data = conn.recv_bytes()
        if not data:
            return
        conn.send_bytes(data)


def median(samples: Iterable[float]) -> float:
    return statistics.median(list(samples))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Checks:
    """Counts operations attempted and failed; remembers the first failures."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def error(self, what: str) -> None:
        """Record an operation that raised instead of answering."""
        self.check(False, what)


#: Ledger entries that are not expected to repeat: they depend on when
#: the transport flushes or how termination-detection rounds interleave.
INEXACT = frozenset(
    {
        "runtime.backend.messages",
        "runtime.backend.bytes",
        "runtime.backend.sync_rounds",
    }
)


class Ledger:
    """Per-round counts; the exact ones must repeat in every round."""

    def __init__(self) -> None:
        self.exact: dict[str, float] | None = None
        self.inexact: dict[str, list[float]] = {}

    def record(self, counts: dict[str, float], checks: Checks) -> None:
        exact = {k: v for k, v in counts.items() if k not in INEXACT}
        for name in counts.keys() & INEXACT:
            self.inexact.setdefault(name, []).append(counts[name])
        if self.exact is None:
            self.exact = exact
            return
        checks.check(
            exact == self.exact,
            f"exact counts changed between rounds: {_diff(self.exact, exact)}",
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "exact": dict(sorted((self.exact or {}).items())),
            "inexact_median": {
                k: median(v) for k, v in sorted(self.inexact.items())
            },
        }


def _diff(a: dict[str, float], b: dict[str, float]) -> str:
    keys = sorted(a.keys() | b.keys())
    return ", ".join(f"{k}: {a.get(k)} -> {b.get(k)}" for k in keys if a.get(k) != b.get(k))
