"""Run the repository benchmark.

    python3 perfbench/run.py --workload heat1d-virtual --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the benchmark measures the ``repro``
package under ``src/``.  With ``--trace 0`` it prints the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see ``perfbench/README.md``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: End-to-end metrics: every workload reports every one (tracing off).
END_TO_END = (
    ("lups_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Layers whose profiled self time is reported as ``<layer>.self_s``.
SELF_LAYERS = (
    "runtime.threads", "runtime.core", "runtime.futures", "runtime.lco",
    "runtime.parcel", "runtime.agas", "runtime.backend", "runtime.algorithms",
    "simd", "stencil",
    "service.gateway", "service.jobs", "service.journal", "service.scheduler",
    "service.leases", "service.admission", "service.executor", "service.core",
    "resilience.checkpoint", "support", "bench.client", "other",
)

#: Per-layer metrics (traced run), per round; 0 where a layer is bypassed.
PER_LAYER = tuple((f"{layer}.self_s", "s") for layer in SELF_LAYERS) + (
    ("runtime.threads.tasks", "count"),
    ("runtime.threads.steals", "count"),
    ("runtime.core.construct_s", "s"),
    ("runtime.core.virtual_makespan_s", "s"),
    ("runtime.futures.get_calls", "count"),
    ("runtime.parcel.pickle_s", "s"),
    ("runtime.parcel.sent", "count"),
    ("runtime.parcel.bytes", "B"),
    ("runtime.agas.resolves", "count"),
    ("runtime.backend.wait_s", "s"),
    ("runtime.backend.messages", "count"),
    ("runtime.backend.bytes", "B"),
    ("runtime.backend.sync_rounds", "count"),
    ("runtime.backend.remote_tasks", "count"),
    ("runtime.backend.spawn_s", "s"),
    ("runtime.algorithms.chunks", "count"),
    ("stencil.numpy_s", "s"),
    ("stencil.lups", "count"),
    ("stencil.bytes_computed", "B"),
    ("service.gateway.requests", "count"),
    ("service.admission.shed", "count"),
    ("service.journal.appends", "count"),
    ("service.journal.bytes", "B"),
    ("service.journal.fsync_s", "s"),
    ("service.scheduler.queue_wait_ms_p50", "ms"),
    ("service.executor.attempt_s", "s"),
    ("service.executor.epochs", "count"),
    ("resilience.checkpoint.saved", "count"),
    ("resilience.checkpoint.bytes", "B"),
    ("resilience.checkpoint.write_s", "s"),
    ("host.ceiling_2p", "ratio"),
    ("tracing.overhead_frac", "ratio"),
    ("tracing.attributed_frac", "ratio"),
)

#: Fresh-interpreter set-ups timed per run, spread over the run between
#: rounds so they see the host as the rounds do (the median is reported).
SETUP_REPEATS = 9
#: Every run measures at least this many rounds.
MIN_ROUNDS = 3
#: Share of a traced run spent on untraced rounds (the overhead baseline).
UNTRACED_SHARE = 0.3
#: A run that has not finished by then prints every thread's stack, stops
#: every process it started and exits non-zero: a stalled transport must
#: end in a named error, not a hang.
WATCHDOG_S = 165


def _run_rounds(
    wl, probe, ledger, checks, seconds: float, spans=None, between=None
) -> list[float]:
    """Rounds until ``seconds`` have passed; returns each round's wall time.

    ``between(elapsed)``, if given, runs after every round; its own time
    does not count against ``seconds``.
    """
    walls: list[float] = []
    start = time.perf_counter()
    paused = 0.0
    while len(walls) < MIN_ROUNDS or time.perf_counter() - start - paused < seconds:
        before = probe.slowdown()
        t0 = time.perf_counter()
        if spans is None:
            counts = wl.run_round(record=True)
        else:
            with spans.profiled():
                counts = wl.run_round(record=False)
        walls.append(time.perf_counter() - t0)
        wl.slowdown[wl.rounds_run - 1] = (before + probe.slowdown()) / 2
        ledger.record(counts, checks)
        if checks.failed:
            break
        if between is not None:
            t0 = time.perf_counter()
            between(t0 - start - paused)
            paused += time.perf_counter() - t0
    return walls


def probe_setup(name: str, seed: int, probe) -> float:
    """Seconds from starting a fresh interpreter until the workload is ready,
    scaled by ``probe`` to nominal host speed like the rounds."""
    before = probe.slowdown()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise common.CheckFailed(f"set-up probe for {name} failed (exit {code})")
    return elapsed / ((before + probe.slowdown()) / 2)


def _per_layer(wl, spans, n: int, ledger, overhead: float, ceiling: float) -> dict[str, float]:
    from perfbench.tracing import CLIENT, OTHER, Rollup

    rollup = Rollup(spans.profile)
    layers = rollup.layers()
    m = {name: 0.0 for name, _unit in PER_LAYER}
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = layers.get(layer, 0.0) / n
    counts = {**ledger.as_dict()["inexact_median"], **(ledger.exact or {})}
    for name, value in counts.items():
        m[name] = float(value)
    m["stencil.bytes_computed"] = m["stencil.lups"] * wl.BYTES_PER_LUP
    m["runtime.parcel.pickle_s"] = rollup.layer_seconds("runtime.parcel", "pickle") / n
    m["runtime.backend.wait_s"] = rollup.layer_seconds("runtime.backend", "wait") / n
    m["stencil.numpy_s"] = rollup.layer_seconds("stencil", "numpy") / n
    m["service.journal.fsync_s"] = rollup.layer_seconds("service.journal", "fsync") / n
    m["runtime.futures.get_calls"] = rollup.calls("runtime/futures.py", "get") / n
    m["runtime.agas.resolves"] = rollup.calls("runtime/agas/service.py", "resolve") / n
    m["runtime.algorithms.chunks"] = rollup.edge_calls(
        ("algorithms/algorithms.py", "_submit_chunks"), ("threads/pool.py", "submit")
    ) / n
    m["service.executor.attempt_s"] = rollup.cumulative("service/executor.py", "run") / n
    m["resilience.checkpoint.write_s"] = rollup.cumulative("resilience/checkpoint.py", "write") / n
    # Runtime construction and HPX-thread executions counted inside the
    # program too: the job service builds a Runtime per distributed epoch.
    m["runtime.core.construct_s"] = rollup.cumulative("runtime/runtime.py", "__init__") / n
    if "runtime.threads.tasks" not in counts:
        m["runtime.threads.tasks"] = rollup.calls("threads/pool.py", "_execute") / n
    spawn = spans.totals().get("runtime.backend.spawn", {})
    m["runtime.backend.spawn_s"] = spawn.get("total_s", 0.0) / n
    if hasattr(wl, "queue_wait_ms_p50"):
        m["service.scheduler.queue_wait_ms_p50"] = wl.queue_wait_ms_p50()
    system = sum(v for k, v in layers.items() if k != CLIENT)
    named = sum(v for k, v in layers.items() if k not in (CLIENT, OTHER))
    m["tracing.attributed_frac"] = named / system if system else 0.0
    m["tracing.overhead_frac"] = overhead
    m["host.ceiling_2p"] = ceiling
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench import workloads
    from perfbench.tracing import Spans

    module = workloads.load(name)
    checks = common.Checks()
    spans = Spans(enabled=False)
    ledger = common.Ledger()
    units = dict(END_TO_END + PER_LAYER)
    metrics: dict[str, float] = {}
    details: dict[str, tuple[float, str]] = {}
    rounds = 0
    probe = common.HostProbe(module.WORKLOAD.PROBES, module.WORKLOAD.PROBE_POWER)
    wl = None
    try:
        # Start-up is interpreter work (imports, construction) on every workload.
        interpreter = common.HostProbe(("python",))
        setup: list[float] = []

        def set_up_when_due(elapsed: float) -> None:
            if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * seconds / SETUP_REPEATS:
                setup.append(probe_setup(name, seed, interpreter))

        wl = module.WORKLOAD(seed, spans, checks)
        ledger.record(wl.run_round(record=False), checks)  # warm-up, untimed
        if not trace:
            rounds = len(_run_rounds(wl, probe, ledger, checks, seconds, between=set_up_when_due))
            while len(setup) < SETUP_REPEATS and not checks.failed:
                setup.append(probe_setup(name, seed, interpreter))
            metrics = wl.end_to_end()
            metrics["peak_rss_mb"] = common.peak_rss_mb()
            metrics["setup_s"] = common.median(setup)
            details = wl.details()
        else:
            base = _run_rounds(wl, probe, ledger, checks, seconds * UNTRACED_SHARE)
            spans.enabled = True
            traced = _run_rounds(wl, probe, ledger, checks, seconds * (1 - UNTRACED_SHARE), spans)
            spans.enabled = False
            rounds = len(traced)
            overhead = common.median(traced) / common.median(base) - 1.0
            ceiling = 0.0
            if name == "parcels-mp":
                from perfbench.hostceiling import ceiling_2p

                ceiling = ceiling_2p()
            metrics = _per_layer(wl, spans, rounds, ledger, overhead, ceiling)
            spans.write(common.WORK / f"spans-{name}-s{seed}.json")
    except (common.CheckFailed, ValueError) as exc:
        # ValueError: too few samples for a percentile at this run length.
        checks.error(str(exc))
    finally:
        if wl is not None:
            wl.close()
        probe.close()
    common.WORK.mkdir(parents=True, exist_ok=True)
    (common.WORK / f"ledger-{name}-s{seed}.json").write_text(
        json.dumps(ledger.as_dict(), indent=1)
    )

    print(f"perfbench {name} seed={seed} trace={int(trace)} rounds={rounds}")
    for metric, value in metrics.items():
        print(f"  {metric:40s} {value:16.6g} {units[metric]}")
    for metric, (value, unit) in details.items():
        print(f"  detail {metric:33s} {value:16.6g} {unit}")
    for metric, value in ledger.as_dict()["exact"].items():
        print(f"  exact  {metric:33s} {value:16.10g}")
    failed_frac = checks.failed / max(checks.attempted, 1)
    print(f"  checks attempted={checks.attempted} failed={checks.failed} "
          f"failed_frac={failed_frac:g}")
    for message in checks.messages:
        print(f"  FAILED {message}")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed if checks.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own interpreter; one combined last line."""
    from perfbench.workloads import MODULES

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in MODULES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        common.use_checkout_sources()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from perfbench.workloads import MODULES, load

    if args.workload != "all" and args.workload not in MODULES:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(MODULES)} or 'all'")
    if args.probe_setup:
        try:
            teardown = load(args.workload).ready(args.seed)
            print("ready", flush=True)
            teardown()
        finally:
            common.stop_descendants()
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    watchdog = threading.Timer(WATCHDOG_S, _expire)
    watchdog.daemon = True
    watchdog.start()
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        watchdog.cancel()
        left = common.stop_descendants()
        if left:
            print(f"perfbench: stopped processes left running: {left}", file=sys.stderr)


def _expire() -> None:
    print(f"perfbench: no result after {WATCHDOG_S}s; stacks follow", file=sys.stderr)
    faulthandler.dump_traceback(all_threads=True)
    common.stop_descendants(grace_s=0.0)
    os._exit(3)


if __name__ == "__main__":
    sys.exit(main())
