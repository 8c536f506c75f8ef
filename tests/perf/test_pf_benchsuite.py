"""Unit tests for the ``repro bench`` perf-regression harness."""

import json

import pytest

from repro import bench
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def quick_doc():
    """One tiny real suite run shared by the checks below."""
    return bench.run_suite(quick=True, repeats=1)


def test_suite_registry_names():
    expected = {
        "task_spawn",
        "future_roundtrip",
        "dataflow_chain",
        "channel_handoff",
        "fanout_fanin",
        "parcel_storm",
        "parcel_storm_overload",
        "fig3_heat1d",
        "fig4_jacobi2d",
        "scaling_cores",
    }
    assert expected == set(bench.SUITE)
    assert set(bench.RUNTIME_MICRO_PARTS) < set(bench.SUITE)


def test_run_suite_document_shape(quick_doc):
    assert quick_doc["schema"] == bench.BENCH_SCHEMA
    assert quick_doc["mode"] == "quick"
    results = quick_doc["results"]
    # Every registered bench ran, plus the micro rollup.
    assert set(bench.SUITE) | {"bench_runtime_micro"} == set(results)
    for name, entry in results.items():
        if "workloads" in entry:  # scaling_cores carries per-P walls instead
            continue
        assert entry["wall_seconds"] > 0, name
        assert entry["samples"], name
    micro = results["bench_runtime_micro"]
    expected_wall = sum(
        results[name]["wall_seconds"] for name in bench.RUNTIME_MICRO_PARTS
    )
    assert micro["wall_seconds"] == pytest.approx(expected_wall)


def test_platform_metadata_recorded(quick_doc):
    plat = quick_doc["platform"]
    assert plat["cpu_count"] >= 1
    assert plat["machine"]
    assert plat["python"] == quick_doc["python"]
    assert plat["backend"] == "virtual"
    assert plat["processes"] == 0


def test_scaling_cores_shape_and_bit_identity(quick_doc):
    scaling = quick_doc["results"]["scaling_cores"]
    assert scaling["processes"] == [1, 2, 4]
    assert scaling["cpu_count"] >= 1
    assert set(scaling["workloads"]) == {"heat1d", "jacobi2d", "parcel_storm"}
    for workload in scaling["workloads"].values():
        assert set(workload["wall_seconds"]) == {"1", "2", "4"}
        assert all(wall > 0 for wall in workload["wall_seconds"].values())
        # The backend contract: the answer is bit-identical at every P.
        assert workload["checksum_identical"]
    assert scaling["checksums_identical"]
    assert scaling["best_speedup_4x"] > 0


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ConfigError, match="unknown benchmark"):
        bench.run_suite(quick=True, names=["no_such_bench"])


def test_parcel_storm_reports_parcels(quick_doc):
    storm = quick_doc["results"]["parcel_storm"]
    assert storm["n_parcels"] and storm["n_parcels"] >= storm["n_tasks"]
    assert storm["parcels_per_sec"] > 0
    assert storm["virtual_makespan"] is not None


def test_compare_to_baseline_self_is_clean(quick_doc):
    assert bench.compare_to_baseline(quick_doc, quick_doc) == []


def test_compare_to_baseline_flags_makespan_drift(quick_doc):
    drifted = json.loads(json.dumps(quick_doc))
    entry = drifted["results"]["fig3_heat1d"]
    entry["virtual_makespan"] = entry["virtual_makespan"] + 1.0
    failures = bench.compare_to_baseline(drifted, quick_doc)
    assert any("fig3_heat1d" in f and "makespan" in f for f in failures)


def test_compare_to_baseline_flags_wall_regression(quick_doc):
    slower = json.loads(json.dumps(quick_doc))
    entry = slower["results"]["task_spawn"]
    entry["wall_seconds"] = entry["wall_seconds"] * 2.0
    failures = bench.compare_to_baseline(slower, quick_doc, max_regression=0.25)
    assert any("task_spawn" in f and "regressed" in f for f in failures)
    # A generous threshold lets the same numbers pass.
    assert bench.compare_to_baseline(slower, quick_doc, max_regression=2.0) == []


def test_compare_to_baseline_mode_mismatch_is_config_error(quick_doc):
    full = json.loads(json.dumps(quick_doc))
    full["mode"] = "full"
    with pytest.raises(ConfigError, match="mode"):
        bench.compare_to_baseline(quick_doc, full)


def test_compare_to_baseline_accepts_before_after_artifact(quick_doc):
    artifact = {"before": {}, "after_quick": json.loads(json.dumps(quick_doc))}
    assert bench.compare_to_baseline(quick_doc, artifact) == []


def test_write_and_format(tmp_path, quick_doc):
    path = tmp_path / "bench.json"
    bench.write_bench_json(str(path), quick_doc)
    assert json.loads(path.read_text())["schema"] == bench.BENCH_SCHEMA
    text = bench.format_results(quick_doc)
    assert "task_spawn" in text and "ms" in text


def test_cli_bench_subcommand(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "doc.json"
    code = main(
        ["bench", "--quick", "--repeats", "1", "--only", "task_spawn",
         "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert "task_spawn" in doc["results"]
    captured = capsys.readouterr()
    assert "task_spawn" in captured.out


def test_cli_bench_baseline_gate(tmp_path):
    from repro.cli import main

    baseline = tmp_path / "base.json"
    doc = bench.run_suite(quick=True, names=["task_spawn"], repeats=1)
    # An impossible baseline (everything instant) must fail the gate ...
    impossible = json.loads(json.dumps(doc))
    impossible["results"]["task_spawn"]["wall_seconds"] = 1e-9
    bench.write_bench_json(str(baseline), impossible)
    code = main(
        ["bench", "--quick", "--repeats", "1", "--only", "task_spawn",
         "--baseline", str(baseline)]
    )
    assert code == 1
    # ... and a self-consistent one must pass.
    bench.write_bench_json(str(baseline), doc)
    code = main(
        ["bench", "--quick", "--repeats", "1", "--only", "task_spawn",
         "--baseline", str(baseline), "--max-regression", "10.0"]
    )
    assert code == 0


def test_compare_to_baseline_fails_on_bench_missing_from_run(quick_doc):
    """A bench present in the baseline but absent from the run is a hard
    failure -- a renamed or dropped bench must not silently pass the gate."""
    pruned = json.loads(json.dumps(quick_doc))
    del pruned["results"]["fanout_fanin"]
    failures = bench.compare_to_baseline(pruned, quick_doc)
    assert any("fanout_fanin" in f and "missing" in f for f in failures)


def test_compare_to_baseline_warns_on_bench_not_in_baseline(quick_doc, capsys):
    """A brand-new bench is not gated yet: loud stderr warning, no failure."""
    extra = json.loads(json.dumps(quick_doc))
    extra["results"]["brand_new_bench"] = dict(extra["results"]["task_spawn"])
    failures = bench.compare_to_baseline(extra, quick_doc)
    assert failures == []
    err = capsys.readouterr().err
    assert "WARNING" in err and "brand_new_bench" in err
