"""Host-ceiling probe: how much faster two processes burn CPU than one.

``os.cpu_count()`` can promise two cores that deliver far less than 2x
(a shared or throttled host).  The multiprocess figures of
``parcels-mp`` read against this measured ceiling, not the core count.
"""

from __future__ import annotations

import statistics
import time

from .common import helper_context

#: Loop iterations per process per measurement (about 0.1 s of CPU).
BURN = 1_500_000


def _burn(barrier, results, n: int) -> None:  # pragma: no cover - child process
    barrier.wait()
    acc = 0
    for i in range(n):
        acc += i * i
    results.put(acc)


def _timed(ctx, processes: int, n: int) -> float:
    barrier = ctx.Barrier(processes + 1)
    results = ctx.Queue()
    procs = [ctx.Process(target=_burn, args=(barrier, results, n)) for _ in range(processes)]
    for proc in procs:
        proc.start()
    try:
        barrier.wait(timeout=60)
        t0 = time.perf_counter()
        for _ in procs:
            results.get(timeout=60)
        return time.perf_counter() - t0
    finally:
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.kill()
                proc.join()


def ceiling_2p(repeats: int = 3, n: int = BURN) -> float:
    """Throughput of two burning processes over one, median of ``repeats``."""
    ctx = helper_context()
    ratios = []
    for _ in range(repeats):
        one = _timed(ctx, 1, n)
        two = _timed(ctx, 2, n)
        ratios.append(2.0 * one / two)
    return statistics.median(ratios)
