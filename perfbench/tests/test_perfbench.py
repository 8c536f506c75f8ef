"""The benchmark's own contract: names, percentiles, the layer map, seeds, counts."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run
from perfbench.common import (
    INEXACT,
    METRIC_NAME,
    ROOT,
    SRC,
    Checks,
    min_samples_for,
    percentile,
)
from perfbench.tracing import LAYERS, Rollup, Spans, layer_of_module, module_of
from perfbench.workloads import MODULES, load

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_unique():
    names = [name for name, _unit in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names + list(MODULES):
        assert METRIC_NAME.match(name), name


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(MODULES)
    for entry in BENCHMARK["workloads"]:
        assert entry["why"] == load(entry["name"]).WHY
        assert len(entry["why"]) <= 200
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_percentile_needs_ten_samples_beyond_it():
    assert min_samples_for(50) == 20
    with pytest.raises(ValueError):
        percentile(range(19), 50)
    assert min_samples_for(90) == 100
    assert min_samples_for(99) == 1000
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == 89
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == 989


def _modules_under(*parts: str) -> list[str]:
    out = []
    for part in parts:
        base = SRC / "repro" / part
        files = [base] if base.suffix == ".py" else sorted(base.rglob("*.py"))
        out += [module_of(str(path)) for path in files]
    return out


def test_layer_map_covers_every_measured_module():
    modules = _modules_under("runtime", "stencil", "simd", "service", "resilience/checkpoint.py")
    assert len(modules) > 50
    named = {layer for _prefix, layer in LAYERS} - {"support"}
    for module in modules:
        assert layer_of_module(module) in named, module


def test_rollup_charges_numpy_time_to_the_calling_layer():
    from repro.stencil import Heat1DParams, heat1d_reference

    spans = Spans(enabled=True)
    field = np.ones(1 << 14)
    with spans.profiled():
        heat1d_reference(field, 50, Heat1DParams())
    rollup = Rollup(spans.profile)
    assert rollup.layer_seconds("stencil", "numpy") > 0
    # Only frames entered before profiling began have no caller to charge.
    assert rollup.layer_seconds("other") < 0.01 * sum(rollup.layers().values())


def _round(name: str, seed: int, perturb=None) -> tuple[dict[str, float], Checks]:
    checks = Checks()
    wl = load(name).WORKLOAD(seed, Spans(enabled=False), checks)
    try:
        if perturb is not None:
            perturb(wl)
        counts = wl.run_round(record=True)
    finally:
        wl.close()
    return counts, checks


def _inputs(name: str, seed: int):
    module = load(name)
    return module._job_specs(seed) if name == "jobs-service" else module._inputs(seed)


def _spoil_heat(wl):
    wl.expected = wl.expected.copy()
    wl.expected[0] = np.nextafter(wl.expected[0], 2.0)


def _spoil_jobs(wl):
    key = next(iter(wl.expected))
    wl.expected[key] = ("0" * 64, wl.expected[key][1])


def _spoil_storm(wl):
    wl.expected_storm += 1


SPOILERS = {
    "heat1d-virtual": _spoil_heat,
    "jacobi2d-shared": _spoil_heat,
    "parcels-mp": _spoil_storm,
    "jobs-service": _spoil_jobs,
}


@pytest.mark.parametrize("name", list(MODULES))
def test_seed_changes_inputs_not_checks_and_counts_repeat(name):
    assert repr(_inputs(name, 3)) == repr(_inputs(name, 3))
    assert repr(_inputs(name, 3)) != repr(_inputs(name, 4))

    first, checks_a = _round(name, 3)
    again, _checks = _round(name, 3)
    other, checks_b = _round(name, 4)
    assert checks_a.failed == checks_b.failed == 0
    assert checks_a.attempted == checks_b.attempted > 0
    exact = {k: v for k, v in first.items() if k not in INEXACT}
    assert exact == {k: v for k, v in again.items() if k not in INEXACT}
    assert set(other) == set(first)

    _counts, spoiled = _round(name, 3, SPOILERS[name])
    assert spoiled.failed >= 1, "a wrong reference must fail the round"


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "heat1d-virtual",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_helper_processes_end_with_the_probe():
    from perfbench.common import HostProbe, descendants

    probe = HostProbe(("pingpong",))
    assert probe.slowdown() > 0
    assert descendants()
    probe.close()
    assert descendants() == []


def test_stop_descendants_stops_what_is_left():
    from perfbench.common import descendants, stop_descendants

    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    assert stop_descendants(grace_s=0.1) == [child.pid]
    assert descendants() == []
    child.wait()  # already reaped; settles the Popen object
