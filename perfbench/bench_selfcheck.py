"""The benchmark's own tests (kept out of the package's test suite).

    python3 -m pytest perfbench/bench_selfcheck.py

Tiny-size runs of every workload, metric names against BENCHMARK.json, the
tracer's clean removal and self-time accounting, and the output checks
rejecting broken reports. About half a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# the traced CLI calls may take this much longer than the spans they contain
# (the loop between calls in the pass), as a share of the wall time plus a floor
SELF_TIME_SLACK = (0.01, 0.005)


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(scope="module", autouse=True)
def built():
    run.build()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_names_end_to_end_metrics(workload):
    out = run.measure(workload, seed=3, seconds=0, trace=False, tiny=True)
    result = out["result"]
    assert result["correct"], out["lines"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_names_every_layer_metric_and_cleans_up():
    out = run.measure("selftest", seed=3, seconds=0, trace=True, tiny=True)
    result = out["result"]
    assert result["correct"], out["lines"]  # a leftover wrapper counts as a failure
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["open_system.master_fringe.calls"] == 2
    assert metrics["open_system.state_bytes"] == 9 * 66 ** 2 * 16  # L = 33 at nbar 0.7
    assert metrics["summation.CompensatedSum.add.calls"] > 0


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _bindings():
    """Every attribute of the package's modules and classes, by identity."""
    out = {}
    for module in tracer.package_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for k, v in vars(value).items():
                    out[(module.__name__, attr, k)] = v
    return out


def _traced_fig4(tmp_path):
    import cavity_ramsey.cli as cli
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.leftover_wrappers()
        argv = ["fig4", "--t-grid", "0:0.04:0.02", "--out", str(tmp_path / "r.csv")]
        start = time.perf_counter()
        assert cli.main(argv) == 0
        wall = time.perf_counter() - start
    finally:
        tr.uninstall()
    return tr, wall


def test_wrappers_are_fully_removed(tmp_path):
    import cavity_ramsey.cli  # noqa: F401  (loads every package module)
    before = _bindings()
    _traced_fig4(tmp_path)
    after = _bindings()
    assert tracer.leftover_wrappers() == []
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_times_sum_to_traced_wall(tmp_path):
    tr, wall = _traced_fig4(tmp_path)
    own = tracer.self_times(tr.spans)
    assert min(own) >= -1e-9
    share, floor = SELF_TIME_SLACK
    assert 0 <= wall - sum(own) <= share * wall + floor
    metrics = tracer.layer_metrics(tr.dump(), wall)
    assert metrics["thermal.pg_constant.calls"] == 3
    assert metrics["summation.CompensatedSum.add.calls"] > 0


@pytest.mark.parametrize("workload", ("fig4", "nbar-sweep", "setup1-scan"))
def test_inputs_follow_the_seed(workload):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)


def test_fig4_grid_is_the_requested_points():
    from cavity_ramsey.cli import _parse_grid
    for seed in range(300):
        (inv,) = workloads.generate("fig4", seed)
        assert _parse_grid(inv["argv"][2]) == inv["expect"]["T"]
        assert len(inv["expect"]["T"]) == workloads.FIG4_POINTS


def test_references_cover_the_recorded_seeds():
    for workload in workloads.WORKLOADS:
        table = checks.load_reference(workload)
        for seed in range(1, 11):
            assert workloads.input_key(workloads.generate(workload, seed)) in table


def _report(columns, rows, **meta):
    return {"columns": columns, "rows": rows, "meta": meta}


def test_checks_reject_broken_reports():
    (fig4,) = workloads.generate("fig4", 1, tiny=True)
    good = [[T, checks._closed_form(T), checks._derived_form(T), 0.9 - T]
            for T in fig4["expect"]["T"]]
    cols = ["T", "v_zero_temp", "v_zero_temp_oracle", "v_thermal"]
    assert checks.problems(fig4, _report(cols, good)) == []
    rising = [row[:3] + [0.5 + row[0]] for row in good]
    assert checks.problems(fig4, _report(cols, rising))
    wrong_cf = [[row[0], row[1] + 1e-6, *row[2:]] for row in good]
    assert checks.problems(fig4, _report(cols, wrong_cf))

    (selftest,) = workloads.generate("selftest", 1)
    cols = ["check", "value", "reference", "tol", "status"]
    rows = [["a", 0.0, 0.0, 1e-8, "pass"]]
    assert checks.problems(selftest, _report(cols, rows, all_pass=True,
                                             series_variant="A")) == []
    assert checks.problems(selftest, _report(cols, rows, all_pass=True,
                                             series_variant="B"))
    assert checks.problems(selftest, _report(cols, [["a", 1.0, 0.0, 1e-8, "FAIL"]],
                                             all_pass=False, series_variant="A"))


def test_deviation():
    assert checks.deviation([[1.0, "x"]], [[1.0, "x"]]) == 0.0
    assert checks.deviation([[1.5, "x"]], [[1.0, "x"]]) == 0.5
    assert checks.deviation([[1.0, "x"]], [[1.0, "y"]]) == float("inf")
    assert checks.deviation([[1.0]], [[1.0], [2.0]]) == float("inf")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
