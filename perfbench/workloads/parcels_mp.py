"""``parcels-mp``: the multiprocess backend across two OS processes.

The driver process (locality 0) plus one worker process (locality 1).
Each round spawns the worker, then runs three phases and stops it:

1. **chain** -- ``CHAIN`` serial ``async_at(1, ...).get()`` round trips;
   each is one latency sample;
2. **storm** -- ``STORM`` actions with 64-int payloads fanned out to
   locality 1 in waves of ``WAVE``, each wave joined by ``when_all``;
3. **heat** -- the Fig 3 heat stencil split over both processes.

It is the only workload that crosses the process boundary: pipe framing,
pickling, reply tokens and termination-detection sync rounds dominate
it, and every other workload skips them.  The worker processes are not
profiled in the traced run; their internal split needs an in-program
event seam.

Why waves: one fan-out of 2000 actions deadlocked the driver and the
worker in about one round in sixty on a 2-core host.  Both were blocked
in ``Connection.send_bytes`` on full pipes -- the driver flushing parcel
batches, the worker sending replies -- and neither was reading.  The
backend has no flow control on its pipes.  A wave of 200 keeps the
unread bytes in each direction under the 64 KiB pipe buffer.  The
deadlock is a defect of the backend, left for a fix in the program.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.config import Config
from repro.runtime import Runtime, perfcounters, when_all
from repro.stencil import DistributedHeat1D, Heat1DParams, heat1d_reference

from ..common import median
from .base import Workload, with_tails

NAME = "parcels-mp"
WHY = (
    "the only workload crossing the process boundary: pipe framing, pickling, "
    "reply tokens and sync rounds of the multiprocess backend dominate"
)

PROCESSES = 2
WORKERS = 2
CHAIN = 200
STORM = 1000
WAVE = 200
PAYLOAD = 64
HEAT_NX = 8192
HEAT_STEPS = 60
HEAT_PARTS_PER_LOCALITY = 4


def chain_action(x: int) -> int:
    """Module-level so the parcel layer ships it by reference."""
    return 3 * x + 1


def storm_action(payload: Sequence[int], i: int) -> int:
    return sum(payload) + i


def _config() -> Config:
    return Config(runtime__backend="multiprocess", runtime__processes=PROCESSES)


def _inputs(seed: int) -> tuple[list[int], list[int], np.ndarray]:
    rng = np.random.default_rng(seed)
    chain = [int(x) for x in rng.integers(0, 1 << 30, size=CHAIN)]
    payload = [int(x) for x in rng.integers(0, 1 << 20, size=PAYLOAD)]
    return chain, payload, rng.random(HEAT_NX)


def ready(seed: int) -> Callable[[], None]:
    _chain, _payload, u0 = _inputs(seed)
    rt = Runtime(n_localities=PROCESSES, workers_per_locality=WORKERS, config=_config())
    rt.start()
    solver = DistributedHeat1D(rt, HEAT_NX, Heat1DParams(), HEAT_PARTS_PER_LOCALITY)
    solver.initialize(u0)
    return rt.stop


class ParcelsMp(Workload):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.chain, self.payload, self.u0 = _inputs(self.seed)
        self.params = Heat1DParams()
        self.expected_heat = heat1d_reference(self.u0, HEAT_STEPS, self.params)
        self.expected_storm = STORM * sum(self.payload) + STORM * (STORM - 1) // 2

    def round(self, op: str, record: bool) -> dict[str, float]:
        spans, checks = self.spans, self.checks
        with spans.span("runtime.core.construct", op):
            rt = Runtime(n_localities=PROCESSES, workers_per_locality=WORKERS, config=_config())
        with spans.span("runtime.backend.spawn", op):
            rt.start()
        stopped = False
        try:
            rtts = []
            chain_ok = True
            for x in self.chain:
                t0 = time.perf_counter()
                with spans.span("runtime.parcel.async_at_get", op):
                    value = rt.async_at(1, chain_action, x).get()
                rtts.append(time.perf_counter() - t0)
                chain_ok &= value == chain_action(x)
            checks.check(chain_ok, f"{op}: a round-trip chain result is wrong")

            t0 = time.perf_counter()
            total = 0
            for first in range(0, STORM, WAVE):
                with spans.span("runtime.parcel.storm", op):
                    futures = [
                        rt.async_at(1, storm_action, self.payload, i)
                        for i in range(first, first + WAVE)
                    ]
                    with spans.span("runtime.futures.when_all", op):
                        total += sum(f.get() for f in when_all(futures).get())
            storm_s = time.perf_counter() - t0
            checks.check(total == self.expected_storm, f"{op}: storm sum {total} is wrong")

            solver = DistributedHeat1D(rt, HEAT_NX, self.params, HEAT_PARTS_PER_LOCALITY)
            with spans.span("stencil.initialize", op):
                solver.initialize(self.u0)
            t0 = time.perf_counter()
            with spans.span("stencil.run", op):
                out = solver.run(HEAT_STEPS)
            heat_s = time.perf_counter() - t0
            checks.check(
                np.array_equal(out, self.expected_heat),
                f"{op}: cross-process heat1d differs from heat1d_reference",
            )
            with spans.span("runtime.backend.stop", op):
                rt.stop()
            stopped = True
        finally:
            if not stopped:
                rt.stop()
        backend = rt.backend.counters()
        workers = rt.backend.worker_stats().values()
        counts = {
            "runtime.threads.tasks": perfcounters.query(rt, "/threads{total}/count/cumulative")
            + backend["remote_tasks_executed"],
            "runtime.parcel.sent": perfcounters.query(rt, "/parcels{total}/count/sent")
            + backend["remote_parcels_sent"],
            "runtime.parcel.bytes": perfcounters.query(rt, "/parcels{total}/data/sent")
            + sum(w.get("bytes_sent", 0) for w in workers),
            "runtime.backend.remote_tasks": backend["remote_tasks_executed"],
            "runtime.backend.messages": backend["messages_sent"]
            + sum(w.get("messages_sent", 0) for w in workers),
            "runtime.backend.bytes": backend["wire_bytes_sent"]
            + sum(w.get("wire_bytes_sent", 0) for w in workers),
            "runtime.backend.sync_rounds": backend["sync_rounds"],
            "stencil.lups": float(HEAT_NX * HEAT_STEPS),
        }
        if record:
            self.record("latency_ms", *(r * 1e3 for r in rtts))
            self.record("parcels_per_s", STORM / storm_s)
            self.record("lups_per_s", HEAT_NX * HEAT_STEPS / heat_s)
        return counts

    OPS_KEY = "parcels_per_s"
    PROBES = ("python", "pingpong")

    def details(self) -> dict[str, tuple[float, str]]:
        out = {"parcels_per_s": (median(self.raw("parcels_per_s")), "1/s")}
        return with_tails(out, "rtt_us", [x * 1e3 for x in self.raw("latency_ms")], "us")


WORKLOAD = ParcelsMp
