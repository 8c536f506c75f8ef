"""``heat1d-virtual``: the paper's Fig 3 futurized 1D heat stencil.

4 localities x 2 workers on the virtual-clock backend, 16 fine-grained
partitions, a seeded random initial field.  Per-task runtime overhead is
most of the self time here (threads, runtime core, futures/dataflow,
AGAS and loopback parcels), so the pool, zero-copy and countdown fast
paths all act on this workload.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.runtime import Runtime, perfcounters
from repro.stencil import DistributedHeat1D, Heat1DParams, heat1d_reference

from ..common import median
from .base import Workload, with_tails

NAME = "heat1d-virtual"
WHY = (
    "fine-grained futurized stencil on the virtual clock: per-task runtime "
    "overhead (threads, futures, dataflow, AGAS, loopback parcels) dominates"
)

LOCALITIES = 4
WORKERS = 2
PARTS_PER_LOCALITY = 4
NX = 4096
#: Steps per round, driven in CHUNK-step ``run`` calls (one latency sample each).
STEPS = 200
CHUNK = 20
#: Virtual compute seconds per partition step, as ``repro bench``'s Fig 3 driver.
COST_PER_STEP = 1e-4


def _inputs(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).random(NX)


def ready(seed: int) -> Callable[[], None]:
    rt = Runtime(n_localities=LOCALITIES, workers_per_locality=WORKERS)
    rt.start()
    solver = DistributedHeat1D(
        rt, NX, Heat1DParams(), PARTS_PER_LOCALITY, cost_per_step=COST_PER_STEP
    )
    solver.initialize(_inputs(seed))
    return rt.stop


class Heat1DVirtual(Workload):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.u0 = _inputs(self.seed)
        self.params = Heat1DParams()
        self.expected = heat1d_reference(self.u0, STEPS, self.params)

    def round(self, op: str, record: bool) -> dict[str, float]:
        spans = self.spans
        with spans.span("runtime.core.construct", op):
            rt = Runtime(n_localities=LOCALITIES, workers_per_locality=WORKERS)
        with spans.span("runtime.core.start", op):
            rt.start()
        try:
            solver = DistributedHeat1D(
                rt, NX, self.params, PARTS_PER_LOCALITY, cost_per_step=COST_PER_STEP
            )
            with spans.span("stencil.initialize", op):
                solver.initialize(self.u0)
            busy = 0.0
            out = None
            for _ in range(STEPS // CHUNK):
                t0 = time.perf_counter()
                with spans.span("runtime.core.run", op):
                    out = rt.run(lambda: solver.run(CHUNK))
                elapsed = time.perf_counter() - t0
                busy += elapsed
                if record:
                    self.record("latency_ms", elapsed * 1e3)
            self.checks.check(
                out is not None and np.array_equal(out, self.expected),
                f"{op}: heat1d field differs from heat1d_reference",
            )
            counts = {
                "runtime.threads.tasks": perfcounters.query(rt, "/threads{total}/count/cumulative"),
                "runtime.threads.steals": perfcounters.query(rt, "/threads{total}/count/stolen"),
                "runtime.parcel.sent": perfcounters.query(rt, "/parcels{total}/count/sent"),
                "runtime.parcel.bytes": perfcounters.query(rt, "/parcels{total}/data/sent"),
                "runtime.core.virtual_makespan_s": rt.makespan,
                "stencil.lups": float(NX * STEPS),
            }
        finally:
            rt.stop()
        if record:
            self.record("lups_per_s", NX * STEPS / busy)
            self.record("tasks_per_s", counts["runtime.threads.tasks"] / busy)
        return counts

    def details(self) -> dict[str, tuple[float, str]]:
        out = {"tasks_per_s": (median(self.raw("tasks_per_s")), "1/s")}
        return with_tails(out, "solve_ms", self.raw("latency_ms"), "ms")


WORKLOAD = Heat1DVirtual
