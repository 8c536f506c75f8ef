"""The ``repro bench`` perf-regression harness.

Every hot-path change in the runtime must show up here before it lands:
the suite measures *real wall-clock* cost of the simulator itself (task
spawn/execute, future round-trips, parcel encode/route/decode, and the
fig3/fig4 stencil drivers) together with the *virtual-time* results each
workload produces.  The two kinds of number play different roles:

* ``wall_seconds`` (and the derived ``tasks_per_sec`` / ``parcels_per_sec``)
  is what optimisation PRs are judged by -- it may only go down;
* ``virtual_makespan`` is the model's *answer* and must stay bit-identical
  across optimisation PRs -- the determinism suite
  (``tests/runtime/test_rt_fastpath_determinism.py``) enforces the same
  invariant structurally.

The measurement protocol is the paper's best-of-N (Sec. VI, via
:func:`repro.perf.harness.run_best`): wall numbers are the minimum over
``repeats`` runs, which filters OS noise.

Results serialize to a schema-versioned JSON document (see
:data:`BENCH_SCHEMA`) so future PRs can diff against a committed
baseline -- ``repro bench --baseline BENCH_PR5.json`` fails when virtual
makespans drift at all or wall time regresses beyond
``--max-regression``.  ``docs/performance.md`` documents the workflow.

The module uses absolute imports only, so the file can be executed
against *any* checkout of the package (``PYTHONPATH=<seed>/src python
src/repro/bench.py``) -- that is how before/after numbers for a single
PR are produced from one working tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Any, Callable, Sequence

import numpy as np

from repro.config import Config
from repro.errors import ConfigError
from repro.perf.harness import run_best

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "SUITE",
    "run_suite",
    "compare_to_baseline",
    "write_bench_json",
    "main",
]

#: Schema tag stamped into every bench artifact.  Bump on shape changes.
BENCH_SCHEMA = "repro-bench-v1"

#: (full, quick) problem sizes per benchmark.
_SIZES = {
    "task_spawn": (20_000, 2_000),
    "future_roundtrip": (2_000, 300),
    "dataflow_chain": (3_000, 500),
    "channel_handoff": (4_000, 600),
    "fanout_fanin": (6_000, 800),
    "parcel_storm": (2_000, 300),
    "heat1d_steps": (40, 8),
    "jacobi2d_steps": (30, 6),
}

#: (full, quick) problem sizes for the ``scaling_cores`` workloads.  The
#: grids are deliberately much larger than the virtual-time benches so
#: that per-step NumPy compute dominates the cross-process transport.
_SCALING_SIZES = {
    # (nx, steps) -- split into _SCALING_PARTS partitions
    "heat1d": ((1 << 17, 20), (1 << 14, 5)),
    # (ny_interior_rows, nx, steps)
    "jacobi2d": ((128, 512, 20), (32, 64, 5)),
    # (n_handlers, array_size, sweeps)
    "parcel_storm": ((24, 100_000, 8), (8, 25_000, 3)),
}

#: Total partitions/handler-stride kept constant across process counts so
#: the numerics are bit-identical at every P.
_SCALING_PARTS = 4
_SCALING_PROCESSES = (1, 2, 4)

_REPEATS_FULL = 3
_REPEATS_QUICK = 2


class BenchResult(dict):
    """One benchmark's numbers (a dict with a stable key set).

    Keys: ``wall_seconds`` (best-of-N), ``samples`` (every repetition),
    ``tasks_per_sec``/``parcels_per_sec`` (throughput at the best wall
    time; ``None`` when not meaningful), ``virtual_makespan`` (``None``
    for bare-pool benches), ``n_tasks``/``n_parcels`` (work done per
    repetition).
    """


def _result(
    measurement: Any,
    n_tasks: int | None = None,
    n_parcels: int | None = None,
    virtual_makespan: float | None = None,
) -> BenchResult:
    wall = measurement.best
    return BenchResult(
        wall_seconds=wall,
        samples=list(measurement.samples),
        n_tasks=n_tasks,
        n_parcels=n_parcels,
        tasks_per_sec=(n_tasks / wall) if n_tasks and wall > 0 else None,
        parcels_per_sec=(n_parcels / wall) if n_parcels and wall > 0 else None,
        virtual_makespan=virtual_makespan,
    )


# Benchmarks ----------------------------------------------------------------


def _bench_task_spawn(n: int, repeats: int) -> BenchResult:
    """Submit + drain ``n`` empty tasks on a bare 4-worker pool."""
    from repro.runtime.threads.pool import ThreadPool

    def run() -> int:
        pool = ThreadPool(4)
        for _ in range(n):
            pool.submit(lambda: None)
        pool.run_all()
        return pool.tasks_executed

    measurement = run_best(run, repeats)
    assert measurement.result == n
    return _result(measurement, n_tasks=n)


def _bench_future_roundtrip(n: int, repeats: int) -> BenchResult:
    """``async_(...).get()`` round trips through a 2-worker runtime."""
    from repro.runtime import Runtime, async_

    def run() -> float:
        with Runtime(workers_per_locality=2) as rt:

            def main() -> int:
                total = 0
                for _ in range(n):
                    total += async_(lambda: 1).get()
                return total

            assert rt.run(main) == n
            return rt.makespan

    measurement = run_best(run, repeats)
    return _result(measurement, n_tasks=n, virtual_makespan=measurement.result)


def _bench_dataflow_chain(n: int, repeats: int) -> BenchResult:
    """A ``dataflow`` dependency chain of length ``n``."""
    from repro.runtime import Runtime, dataflow

    def run() -> float:
        with Runtime(workers_per_locality=2) as rt:

            def main() -> int:
                future = dataflow(lambda: 0)
                for _ in range(n):
                    future = dataflow(lambda x: x + 1, future)
                return future.get()

            assert rt.run(main) == n
            return rt.makespan

    measurement = run_best(run, repeats)
    return _result(measurement, n_tasks=n, virtual_makespan=measurement.result)


def _bench_channel_handoff(n: int, repeats: int) -> BenchResult:
    """Producer/consumer hand-offs through one channel."""
    from repro.runtime import Channel, Runtime, async_

    def run() -> float:
        with Runtime(workers_per_locality=2) as rt:

            def main() -> int:
                channel = Channel()

                def producer() -> None:
                    for i in range(n):
                        channel.set(i)

                async_(producer)
                total = 0
                for _ in range(n):
                    total += channel.get_sync()
                return total

            assert rt.run(main) == n * (n - 1) // 2
            return rt.makespan

    measurement = run_best(run, repeats)
    return _result(measurement, n_tasks=n, virtual_makespan=measurement.result)


def _bench_fanout_fanin(n: int, repeats: int) -> BenchResult:
    """``n``-way fan-out joined by one ``when_all``."""
    from repro.runtime import Runtime, async_, when_all

    def run() -> float:
        with Runtime(workers_per_locality=4) as rt:

            def main() -> int:
                futures = [async_(lambda i=i: i) for i in range(n)]
                return sum(f.get() for f in when_all(futures).get())

            assert rt.run(main) == n * (n - 1) // 2
            return rt.makespan

    measurement = run_best(run, repeats)
    return _result(measurement, n_tasks=n, virtual_makespan=measurement.result)


def _bench_parcel_storm(n: int, repeats: int, overload: bool = False) -> BenchResult:
    """``n`` cross-locality plain actions with list payloads (loopback).

    Every invocation serializes its arguments and ships a parcel to the
    other locality plus a reply back, so this measures the full parcel
    path: encode, route, handler spawn, decode, reply.  With
    ``overload`` the admission controller is in the send path (credit
    accounting + breaker checks per parcel), so the delta against plain
    ``parcel_storm`` is the overhead of overload protection when the
    system is healthy.
    """
    from repro.runtime import Runtime, when_all

    config = Config(overload__enabled=True) if overload else None
    payload = list(range(64))

    def run() -> tuple[float, int]:
        with Runtime(n_localities=2, workers_per_locality=2, config=config) as rt:

            def main() -> int:
                futures = [
                    rt.async_at(1, _storm_handler, payload, i) for i in range(n)
                ]
                return sum(f.get() for f in when_all(futures).get())

            expected = sum(len(payload) + i for i in range(n))
            assert rt.run(main) == expected
            return rt.makespan, rt.parcelport.parcels_sent

    measurement = run_best(run, repeats)
    makespan, parcels = measurement.result
    return _result(
        measurement, n_tasks=n, n_parcels=parcels, virtual_makespan=makespan
    )


def _storm_handler(payload: Sequence[int], i: int) -> int:
    """Module-level so the parcel layer can serialize it by reference."""
    return len(payload) + i


def _bench_heat1d(steps: int, repeats: int) -> BenchResult:
    """The fig3 driver: distributed futurized 1D heat stencil."""
    from repro.runtime import Runtime
    from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

    nx = 256

    def run() -> tuple[float, int, float]:
        with Runtime(n_localities=2, workers_per_locality=2) as rt:
            solver = DistributedHeat1D(
                rt, nx, Heat1DParams(), partitions_per_locality=2,
                cost_per_step=1e-4,
            )
            solver.initialize(analytic_heat_profile(nx))
            out = rt.run(lambda: solver.run(steps))
            tasks = sum(loc.pool.tasks_executed for loc in rt.localities)
            return rt.makespan, tasks, float(np.sum(out))

    measurement = run_best(run, repeats)
    makespan, tasks, _checksum = measurement.result
    return _result(measurement, n_tasks=tasks, virtual_makespan=makespan)


def _bench_jacobi2d(steps: int, repeats: int) -> BenchResult:
    """The fig4 driver: distributed 2D Jacobi stencil."""
    from repro.runtime import Runtime
    from repro.stencil.jacobi2d_dist import DistributedJacobi2D

    ny, nx = 34, 32

    def run() -> tuple[float, int, float]:
        with Runtime(n_localities=2, workers_per_locality=2) as rt:
            solver = DistributedJacobi2D(
                rt, ny, nx, partitions_per_locality=2, cost_per_step=1e-4
            )
            rng = np.random.default_rng(0)
            solver.initialize(rng.random((ny, nx)))
            out = rt.run(lambda: solver.run(steps))
            tasks = sum(loc.pool.tasks_executed for loc in rt.localities)
            return rt.makespan, tasks, float(np.sum(out))

    measurement = run_best(run, repeats)
    makespan, tasks, _checksum = measurement.result
    return _result(measurement, n_tasks=tasks, virtual_makespan=makespan)


def _scaling_compute_handler(seed: int, size: int, sweeps: int) -> float:
    """Module-level compute kernel for the scaling storm.

    Builds its working set locally from ``seed`` (nothing big rides the
    parcel), then runs ``sweeps`` vectorized passes -- real CPU work that
    each worker process executes outside every other process's GIL.
    """
    a = np.full(size, float(seed % 7 + 1))
    for _ in range(sweeps):
        a = np.sqrt(a * 1.0001 + float(seed % 13))
    return float(a.sum())


def _scaling_runtime(processes: int) -> "Any":
    """A multiprocess-backend runtime with one locality per process."""
    from repro.runtime import Runtime

    config = Config(
        runtime__backend="multiprocess", runtime__processes=processes
    )
    return Runtime(n_localities=processes, workers_per_locality=1, config=config)


def _scaling_heat1d(processes: int, quick: bool) -> tuple[float, float]:
    """(timed run seconds, checksum) -- spawn/teardown excluded."""
    from repro.perf.harness import time_call
    from repro.stencil import DistributedHeat1D, Heat1DParams, analytic_heat_profile

    nx, steps = _SCALING_SIZES["heat1d"][quick]
    with _scaling_runtime(processes) as rt:
        solver = DistributedHeat1D(
            rt, nx, Heat1DParams(),
            partitions_per_locality=_SCALING_PARTS // processes,
        )
        solver.initialize(analytic_heat_profile(nx))
        wall, out = time_call(lambda: solver.run(steps))
    return wall, float(np.sum(out))


def _scaling_jacobi2d(processes: int, quick: bool) -> tuple[float, float]:
    from repro.perf.harness import time_call
    from repro.stencil.jacobi2d_dist import DistributedJacobi2D

    rows, nx, steps = _SCALING_SIZES["jacobi2d"][quick]
    ny = rows + 2
    rng = np.random.default_rng(0)
    field = rng.random((ny, nx))
    with _scaling_runtime(processes) as rt:
        solver = DistributedJacobi2D(
            rt, ny, nx, partitions_per_locality=_SCALING_PARTS // processes
        )
        solver.initialize(field)
        wall, out = time_call(lambda: solver.run(steps))
    return wall, float(np.sum(out))


def _scaling_parcel_storm(processes: int, quick: bool) -> tuple[float, float]:
    from repro.perf.harness import time_call
    from repro.runtime import when_all

    n, size, sweeps = _SCALING_SIZES["parcel_storm"][quick]
    with _scaling_runtime(processes) as rt:

        def run() -> float:
            futures = [
                rt.async_at(i % processes, _scaling_compute_handler, i, size, sweeps)
                for i in range(n)
            ]
            return float(sum(f.get() for f in when_all(futures).get()))

        wall, total = time_call(run)
    return wall, total


_SCALING_WORKLOADS: dict[str, Callable[[int, bool], tuple[float, float]]] = {
    "heat1d": _scaling_heat1d,
    "jacobi2d": _scaling_jacobi2d,
    "parcel_storm": _scaling_parcel_storm,
}


def _bench_scaling_cores(quick: bool, repeats: int) -> dict[str, Any]:
    """Real multi-core scaling of the multiprocess backend.

    Runs each workload at 1, 2 and 4 OS processes with the *same total
    work* (constant partition/handler count), timing only the solve --
    process spawn and teardown are excluded.  Wall numbers are
    best-of-``repeats``; the checksums must agree across every process
    count (the backend bit-identity contract).  Speedups are only
    physically achievable when the host grants that many cores, so
    ``cpu_count`` is recorded alongside and this entry is informational:
    it carries no job-wide ``wall_seconds`` and is never gated by
    ``compare_to_baseline``.
    """
    workloads: dict[str, Any] = {}
    for name, fn in _SCALING_WORKLOADS.items():
        walls: dict[str, float] = {}
        checksums: list[float] = []
        for processes in _SCALING_PROCESSES:
            samples = []
            checksum = None
            for _ in range(repeats):
                wall, checksum = fn(processes, quick)
                samples.append(wall)
            walls[str(processes)] = min(samples)
            checksums.append(checksum)
        workloads[name] = {
            "wall_seconds": walls,
            "speedup_2x": walls["1"] / walls["2"] if walls["2"] > 0 else None,
            "speedup_4x": walls["1"] / walls["4"] if walls["4"] > 0 else None,
            "checksum_identical": len(set(checksums)) == 1,
        }
    return {
        "processes": list(_SCALING_PROCESSES),
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
        "best_speedup_4x": max(
            w["speedup_4x"] for w in workloads.values() if w["speedup_4x"]
        ),
        "checksums_identical": all(
            w["checksum_identical"] for w in workloads.values()
        ),
    }


#: name -> callable(quick, repeats) for every suite entry, in run order.
SUITE: dict[str, Callable[[bool, int], BenchResult]] = {
    "task_spawn": lambda quick, repeats: _bench_task_spawn(
        _SIZES["task_spawn"][quick], repeats
    ),
    "future_roundtrip": lambda quick, repeats: _bench_future_roundtrip(
        _SIZES["future_roundtrip"][quick], repeats
    ),
    "dataflow_chain": lambda quick, repeats: _bench_dataflow_chain(
        _SIZES["dataflow_chain"][quick], repeats
    ),
    "channel_handoff": lambda quick, repeats: _bench_channel_handoff(
        _SIZES["channel_handoff"][quick], repeats
    ),
    "fanout_fanin": lambda quick, repeats: _bench_fanout_fanin(
        _SIZES["fanout_fanin"][quick], repeats
    ),
    "parcel_storm": lambda quick, repeats: _bench_parcel_storm(
        _SIZES["parcel_storm"][quick], repeats
    ),
    "parcel_storm_overload": lambda quick, repeats: _bench_parcel_storm(
        _SIZES["parcel_storm"][quick], repeats, overload=True
    ),
    "fig3_heat1d": lambda quick, repeats: _bench_heat1d(
        _SIZES["heat1d_steps"][quick], repeats
    ),
    "fig4_jacobi2d": lambda quick, repeats: _bench_jacobi2d(
        _SIZES["jacobi2d_steps"][quick], repeats
    ),
    "scaling_cores": _bench_scaling_cores,
}

#: The composite "runtime micro" rollup is the sum of these entries --
#: the ISSUE-level speedup target is defined over this aggregate.
RUNTIME_MICRO_PARTS = (
    "task_spawn",
    "future_roundtrip",
    "dataflow_chain",
    "channel_handoff",
    "fanout_fanin",
)


def run_suite(
    quick: bool = False,
    names: Sequence[str] | None = None,
    repeats: int | None = None,
    report: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the (selected) suite; returns the schema-versioned document.

    Benchmarks whose prerequisites are missing in the running package
    (e.g. the ``parcel.zero_copy`` config key on a pre-PR5 checkout) are
    recorded as ``{"skipped": <reason>}`` instead of failing the run, so
    the same harness file produces before/after numbers for one PR.
    """
    selected = list(names) if names else list(SUITE)
    unknown = [name for name in selected if name not in SUITE]
    if unknown:
        raise ConfigError(f"unknown benchmark(s): {', '.join(sorted(unknown))}")
    n_repeats = repeats if repeats is not None else (
        _REPEATS_QUICK if quick else _REPEATS_FULL
    )
    results: dict[str, Any] = {}
    for name in selected:
        if report is not None:
            report(f"running {name} ...")
        try:
            results[name] = SUITE[name](quick, n_repeats)
        except ConfigError as exc:
            results[name] = {"skipped": str(exc)}
    micro = [
        results[name]
        for name in RUNTIME_MICRO_PARTS
        if name in results and "skipped" not in results[name]
    ]
    if micro:
        wall = sum(r["wall_seconds"] for r in micro)
        tasks = sum(r["n_tasks"] or 0 for r in micro)
        results["bench_runtime_micro"] = BenchResult(
            wall_seconds=wall,
            samples=[wall],
            n_tasks=tasks,
            n_parcels=None,
            tasks_per_sec=(tasks / wall) if wall > 0 else None,
            parcels_per_sec=None,
            virtual_makespan=None,
        )
    return {
        "schema": BENCH_SCHEMA,
        "mode": "quick" if quick else "full",
        "repeats": n_repeats,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "platform": _platform_metadata(),
        "results": results,
    }


def _platform_metadata() -> dict[str, Any]:
    """Host facts a reader needs to interpret the wall numbers."""
    config = Config()
    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": os.cpu_count(),
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "backend": config.get_str("runtime.backend"),
        "processes": config.get_int("runtime.processes"),
    }


# Baseline comparison --------------------------------------------------------


def _baseline_results(baseline: dict[str, Any], mode: str) -> dict[str, Any]:
    """Pick the comparable results out of a baseline document.

    Accepts either a plain suite document or a before/after artifact
    (``BENCH_PR5.json`` style), which carries the ``after`` numbers in
    both modes (``after`` = full, ``after_quick`` = quick).  Problem
    sizes differ between modes, so a mode mismatch is a configuration
    error, not a regression.
    """
    if "results" in baseline:
        if baseline.get("mode") != mode:
            raise ConfigError(
                f"baseline was recorded in {baseline.get('mode')!r} mode but "
                f"this run is {mode!r}; sizes are not comparable"
            )
        return baseline["results"]
    key = "after" if mode == "full" else "after_quick"
    if key in baseline and "results" in baseline[key]:
        return baseline[key]["results"]
    raise ConfigError(
        f"baseline JSON has neither 'results' nor '{key}.results'"
    )


def compare_to_baseline(
    current: dict[str, Any],
    baseline: dict[str, Any],
    max_regression: float = 0.25,
) -> list[str]:
    """Regression check; returns a list of human-readable failures.

    Two rules, matching what each number means:

    * ``virtual_makespan`` must be *bit-identical* -- any drift means the
      optimisation changed the model's answer, not just its speed;
    * ``wall_seconds`` may not exceed the baseline by more than
      ``max_regression`` (relative).  Faster is always fine.

    The name sets must reconcile, too: a baseline bench missing from the
    current run is a *failure* (a silently dropped benchmark would let a
    regression in it pass the gate forever), while benches the baseline
    has never seen are reported loudly on stderr but do not fail -- new
    benchmarks must be able to land before their baseline is recorded.
    """
    failures: list[str] = []
    base = _baseline_results(baseline, current.get("mode", "full"))
    missing = sorted(set(base) - set(current["results"]))
    if missing:
        failures.append(
            "baseline benches missing from this run (renamed or dropped "
            "without updating the baseline?): " + ", ".join(missing)
        )
    unseen = sorted(set(current["results"]) - set(base))
    if unseen:
        print(
            "bench: WARNING: benches not present in the baseline "
            "(record a fresh baseline to gate them): " + ", ".join(unseen),
            file=sys.stderr,
        )
    for name, entry in current["results"].items():
        ref = base.get(name)
        if ref is None or "skipped" in entry or "skipped" in ref:
            continue
        ref_makespan = ref.get("virtual_makespan")
        cur_makespan = entry.get("virtual_makespan")
        if ref_makespan is not None and cur_makespan != ref_makespan:
            failures.append(
                f"{name}: virtual makespan drifted "
                f"{ref_makespan!r} -> {cur_makespan!r} (must be bit-identical)"
            )
        ref_wall = ref.get("wall_seconds")
        cur_wall = entry.get("wall_seconds")
        if ref_wall and cur_wall and cur_wall > ref_wall * (1.0 + max_regression):
            failures.append(
                f"{name}: wall time regressed {cur_wall / ref_wall:.2f}x "
                f"({ref_wall:.4f}s -> {cur_wall:.4f}s, "
                f"threshold {1.0 + max_regression:.2f}x)"
            )
    return failures


def write_bench_json(path: str, document: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_results(document: dict[str, Any]) -> str:
    """One line per benchmark, aligned for terminals."""
    lines = [
        f"repro bench ({document['mode']}, best of {document['repeats']}, "
        f"python {document['python']})"
    ]
    for name, entry in document["results"].items():
        if "skipped" in entry:
            lines.append(f"  {name:<24} SKIPPED: {entry['skipped']}")
            continue
        if "workloads" in entry:
            lines.append(
                f"  {name:<24} cpu_count={entry['cpu_count']}  "
                f"best 4-process speedup {entry['best_speedup_4x']:.2f}x  "
                f"checksums {'identical' if entry['checksums_identical'] else 'DRIFTED'}"
            )
            for wname, wl in entry["workloads"].items():
                walls = "  ".join(
                    f"P={p}: {wl['wall_seconds'][p] * 1e3:8.2f} ms"
                    for p in wl["wall_seconds"]
                )
                lines.append(
                    f"    {wname:<22} {walls}  "
                    f"(4x speedup {wl['speedup_4x']:.2f})"
                )
            continue
        parts = [f"{entry['wall_seconds'] * 1e3:9.2f} ms"]
        if entry.get("tasks_per_sec"):
            parts.append(f"{entry['tasks_per_sec']:>12.0f} tasks/s")
        if entry.get("parcels_per_sec"):
            parts.append(f"{entry['parcels_per_sec']:>10.0f} parcels/s")
        if entry.get("virtual_makespan") is not None:
            parts.append(f"makespan {entry['virtual_makespan']:.6g}s")
        lines.append(f"  {name:<24} " + "  ".join(parts))
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the runtime perf-regression suite (wall clock + "
        "virtual-time determinism) and optionally diff against a baseline.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small problem sizes (CI's perf-smoke job)",
    )
    parser.add_argument(
        "--only", nargs="+", metavar="NAME", choices=sorted(SUITE),
        help="run a subset of the suite",
    )
    parser.add_argument(
        "--repeats", type=int, metavar="N",
        help="repetitions per benchmark (default: 3, quick: 2)",
    )
    parser.add_argument(
        "--output", metavar="FILE", help="write the JSON document here"
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="compare against this committed bench JSON "
        "(plain document or before/after artifact)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.25, metavar="R",
        help="allowed relative wall-time regression vs the baseline "
        "(default 0.25; virtual makespans must always match exactly)",
    )
    args = parser.parse_args(argv)
    document = run_suite(
        quick=args.quick,
        names=args.only,
        repeats=args.repeats,
        report=lambda line: print(line, file=sys.stderr),
    )
    print(format_results(document))
    if args.output:
        write_bench_json(args.output, document)
        print(f"wrote {args.output}")
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        failures = compare_to_baseline(
            document, baseline, max_regression=args.max_regression
        )
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for failure in failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.baseline}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
