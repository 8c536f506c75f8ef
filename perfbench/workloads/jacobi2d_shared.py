"""``jacobi2d-shared``: the paper's Figs 4-8 shared-memory 2D Jacobi.

One locality, ``par`` policy, float32, long rows.  Each round runs the
fused ``auto`` kernel, then the ``simd`` Virtual Node Scheme kernel with
AVX2 lanes (8 floats), then with SVE-512 lanes (16 floats), each for
``SWEEPS`` sweeps from the same field.  The work is coarse-grained:
kernel, ``runtime.algorithms`` and ``simd`` do most of it and the task
runtime little, so runtime-overhead changes bypass this workload.

The field holds small integers (0..255).  Eight sweeps of 4-neighbour
averaging then need at most 10 integer and 14 fraction bits, which
float32 holds exactly, so every partial sum is exact whatever order the
kernels add neighbours in.  That is what lets the three kernels and
:func:`~repro.stencil.jacobi_reference_step` be compared bit for bit: a
tolerance would let an off-by-one halo slip through at the 1e-7 level.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.runtime import Runtime, par, perfcounters
from repro.simd.isa import AVX2, sve
from repro.stencil import Jacobi2D, jacobi_reference_step

from ..common import median
from .base import Workload, with_tails

NAME = "jacobi2d-shared"
WHY = (
    "coarse-grained shared-memory Jacobi alternating fused auto and SIMD VNS "
    "kernels: kernel, algorithms and simd work dominate, the task runtime is idle"
)

WORKERS = 2
NY = 66  # 64 interior rows
NX = 8194  # 8192 interior columns: divisible by the 8 and 16 lanes
#: Sweeps per kernel per round; 8 keeps float32 sums exact (see above).
SWEEPS = 8
VARIANTS = (("auto", None), ("simd-avx2", AVX2), ("simd-sve512", sve(512)))


def _inputs(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(NY, NX)).astype(np.float32)


def _solvers(field: np.ndarray) -> list[Jacobi2D]:
    solvers = []
    for _name, isa in VARIANTS:
        solver = Jacobi2D(NY, NX, np.float32, mode="auto" if isa is None else "simd", isa=isa)
        solver.initialize(field)
        solvers.append(solver)
    return solvers


def ready(seed: int) -> Callable[[], None]:
    rt = Runtime(workers_per_locality=WORKERS)
    rt.start()
    _solvers(_inputs(seed))
    return rt.stop


class Jacobi2DShared(Workload):
    BYTES_PER_LUP = 12  # float32: the paper's 12 B per LUP
    PROBES = ("numpy",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.field = _inputs(self.seed)
        expected = self.field
        for _ in range(SWEEPS):
            expected = jacobi_reference_step(expected)
        self.expected = expected
        self.lups = len(VARIANTS) * SWEEPS * (NY - 2) * (NX - 2)

    def round(self, op: str, record: bool) -> dict[str, float]:
        spans = self.spans
        with spans.span("runtime.core.construct", op):
            rt = Runtime(workers_per_locality=WORKERS)
        with spans.span("runtime.core.start", op):
            rt.start()
        try:
            with spans.span("stencil.initialize", op):
                solvers = _solvers(self.field)

            def sweep_all() -> list[np.ndarray]:
                return [solver.run(SWEEPS, par) for solver in solvers]

            t0 = time.perf_counter()
            with spans.span("runtime.core.run", op):
                outs = rt.run(sweep_all)
            elapsed = time.perf_counter() - t0
            for (name, _isa), out in zip(VARIANTS, outs):
                self.checks.check(
                    out.dtype == np.float32 and np.array_equal(out, self.expected),
                    f"{op}: {name} field differs from jacobi_reference_step",
                )
            counts = {
                "runtime.threads.tasks": perfcounters.query(rt, "/threads{total}/count/cumulative"),
                "runtime.threads.steals": perfcounters.query(rt, "/threads{total}/count/stolen"),
                "stencil.lups": float(self.lups),
            }
        finally:
            rt.stop()
        if record:
            self.record("latency_ms", elapsed * 1e3)
            self.record("lups_per_s", self.lups / elapsed)
            self.record("tasks_per_s", counts["runtime.threads.tasks"] / elapsed)
        return counts

    def details(self) -> dict[str, tuple[float, str]]:
        out = {"glups_per_s": (median(self.raw("lups_per_s")) / 1e9, "1e9/s")}
        return with_tails(out, "round_ms", self.raw("latency_ms"), "ms")


WORKLOAD = Jacobi2DShared
