import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from cavity_ramsey import cli, experiments, jc, open_system
from cavity_ramsey.cli import _parse_grid, main
from cavity_ramsey.errors import CavityRamseyError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridParsing:
    def test_inclusive_endpoints(self):
        grid = _parse_grid("0:1:0.02")
        assert len(grid) == 51
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(1.0)

    def test_single_point(self):
        assert _parse_grid("0.5:0.5:0.1") == [0.5]

    @pytest.mark.parametrize("text", ["0:1", "1:0:0.1", "0:1:0", "a:b:c"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            _parse_grid(text)

    def test_largest_grid(self):
        assert len(_parse_grid("0:1:1e-4")) == cli.MAX_POINTS

    @pytest.mark.parametrize("text", ["0:1:9.99e-5", "0:1e-300:1e-310",
                                      "0:1:1e-320", "-1e308:1e308:1"])
    def test_rejects_oversized_grid_before_building_it(self, text, monkeypatch):
        # 1e10 points, and spans whose point count overflows to inf; a
        # missing bound fails here instead of filling memory
        monkeypatch.setattr(cli, "range", lambda *a: pytest.fail("grid built"),
                            raising=False)
        with pytest.raises(ValueError, match="more than 10001 points"):
            _parse_grid(text)


class TestSubcommands:
    def test_velocity_scan_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "velocity-scan", "--velocities", "500")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "v_mps,T,v_model,v_predicted"
        assert row.split(",")[-1] == "0.69"

    def test_setup2_json_carries_visibilities(self, capsys):
        code, out, _ = run_cli(capsys, "setup2", "--format", "json",
                               "--phi-points", "17")
        assert code == 0
        data = json.loads(out)
        meta = data["meta"]
        assert 0.0 < meta["visibility_thermal"] <= 1.0
        assert meta["visibility_thermal_eta"] == pytest.approx(
            0.75 * meta["visibility_thermal"], abs=1e-9)

    def test_fig4_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "fig4", "--t-grid", "0:0.4:0.1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "T,v_zero_temp,v_zero_temp_oracle,v_thermal"
        assert len(lines) == 6

    def test_setup1_csv(self, capsys):
        code, out, _ = run_cli(capsys, "setup1", "--n-values", "0,1,5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        assert lines[1].startswith("0,")

    @pytest.mark.parametrize("n", ["24", "200"])
    def test_setup1_widens_truncation_for_large_n(self, capsys, n):
        # the configured n_max=60 discards 1.9e-10 of a mean of 24 photons
        # and nearly all of a mean of 200
        code, out, _ = run_cli(capsys, "setup1", "--n-values", n,
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"][0][0] == float(n)

    @pytest.mark.parametrize("n_values", ["nan", "1,nan"])
    def test_setup1_nan_is_a_usage_error(self, capsys, n_values):
        code, _, err = run_cli(capsys, "setup1", "--n-values", n_values)
        assert code == 1
        assert ">= 0" in err

    def test_setup1_large_n_at_its_tightest_cutoff(self, capsys, tmp_path):
        # the log-domain amplitudes of 2e4 photons have squared norm
        # 1 + 2.0e-11, which a fixed 1 + 1e-12 bound refused
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 21036}))
        code, _, err = run_cli(capsys, "setup1", "--n-values", "20000",
                               "--config", str(path))
        assert code == 0, err

    @pytest.mark.parametrize("argv", [
        ("velocity-scan", "--velocities", "50,nan"),
        ("velocity-scan", "--velocities", "inf"),
        ("fig4", "--t-grid", "0:1:inf"),
        ("fig4", "--t-grid", "0:inf:0.1"),
    ])
    def test_non_finite_input_is_a_usage_error(self, capsys, argv):
        # these exited 0 with NaN in the report, or died on an OverflowError
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("velocities", ["1e-310", "50,1e-310"])
    def test_overflowing_velocity_wait_is_a_usage_error(self, capsys, velocities):
        # T = T_ref v_ref / v overflows to inf, which used to reach the series
        # and write Infinity and NaN into the report
        code, out, err = run_cli(capsys, "velocity-scan", "--velocities", velocities,
                                 "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "T must be finite" in err

    @pytest.mark.parametrize("tau_s", [2, 1.45])
    def test_underflowing_reference_visibility_is_a_usage_error(self, capsys, tmp_path,
                                                                tau_s):
        # at T_ref = 1000 the model visibility is 0.0 (a ZeroDivisionError
        # escaped); at T_ref = 725 it is subnormal, r was inf and the report
        # held NaN
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau_s": tau_s}))
        code, out, err = run_cli(capsys, "velocity-scan", "--config", str(path),
                                 "--format", "json")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "T_ref" in err
        assert len(err.splitlines()) == 1

    def test_reference_visibility_below_the_observed_is_a_usage_error(self, capsys,
                                                                       tmp_path):
        # at T_ref = 1 the model visibility is 0.156 < 0.69, so r = 4.4 was a
        # gain, and the faster beams were predicted contrasts of 3.23 and 4.26
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau_s": 0.002}))
        code, out, err = run_cli(capsys, "velocity-scan", "--config", str(path),
                                 "--velocities", "500,5000,50000")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "T_ref = 1 " in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("variant", [[], ["--variant", "B"]])
    def test_selftest_nbar_past_the_series_domain_is_a_usage_error(self, capsys, tmp_path,
                                                                   variant):
        # the series refuses nbar >= 1 before the oracle waits at it, however
        # large nbar is (at 1e6 the oracle's Poisson cutoff failed first)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nbar": 1e6}))
        code, out, err = run_cli(capsys, "selftest", "--config", str(path), *variant)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "nbar must lie in (0, 1)" in err

    @pytest.mark.parametrize("command", ["setup2", "selftest", "velocity-scan"])
    def test_non_finite_wait_is_a_usage_error(self, capsys, tmp_path, command):
        # both inputs are finite, but T = tau / (2 t_cav) overflows to inf
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau_s": 1e300, "t_cav_s": 1e-300}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "T = tau_s" in err

    def test_setup1_at_the_widening_cap(self, capsys, tmp_path):
        # a floor at MAX_WIDENED_N_MAX is a cutoff the widening keeps
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 100000}))
        code, out, err = run_cli(capsys, "setup1", "--n-values", "1", "--format", "json",
                                 "--config", str(path))
        assert code == 0, err
        assert json.loads(out)["meta"]["n_max"] == 100000

    def test_setup1_past_the_widening_cap_is_a_usage_error(self, capsys, tmp_path):
        # a configured n_max skipped the cap the widening keeps: 100001 ran,
        # and a typo such as 1e9 asked for a 16 GB row
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 100001}))
        code, out, err = run_cli(capsys, "setup1", "--n-values", "1", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "n_max must be in [1, 100000]" in err

    def test_subnormal_term_tol_is_a_usage_error(self, capsys, tmp_path):
        # there the tails lose their tightness: fig4 ran all 256 ladder
        # terms and exited 2
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"term_tol": 5e-324}))
        code, out, err = run_cli(capsys, "fig4", "--t-grid", "0:0.2:0.1",
                                 "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "term_tol must be a normal float" in err

    @pytest.mark.parametrize("flag, command", [("--n-values", "setup1"),
                                               ("--velocities", "velocity-scan")])
    @pytest.mark.parametrize("text", ["", ",", " "])
    def test_list_with_no_number_is_a_usage_error(self, capsys, flag, command, text):
        # an empty list ran the defaults, and "," or " " wrote a header-only report
        code, out, err = run_cli(capsys, command, flag, text)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and f"{flag} expects at least one number" in err

    def test_setup1_short_truncated_state_has_no_pulse_root(self, capsys, tmp_path):
        # a tail_tol above 1/2 leaves the truncated state with squared norm
        # 0.41 < 1/2, so no pulse splits it evenly: refused by its alpha
        # before any step takes the square root of a negative number
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tail_tol": 0.6, "n_max": 1}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "setup1", "--n-values", "100",
                                     "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "alpha=10.0" in err

    @pytest.mark.parametrize("command", ["setup1", "setup2"])
    @pytest.mark.parametrize("points", ["-5", "3", "15"])
    def test_short_fringe_grid_is_a_usage_error(self, capsys, command, points):
        # setup1 used to attach an 8-point fringe instead
        code, out, err = run_cli(capsys, command, "--phi-points", points)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "phi_points must be in [16, 10001]" in err

    def test_setup1_fringe_has_the_grid_asked_for(self, capsys):
        code, out, _ = run_cli(capsys, "setup1", "--n-values", "1", "--phi-points", "16",
                               "--format", "json")
        assert code == 0
        assert len(json.loads(out)["meta"]["fringe"]["phi"]) == 16

    @pytest.mark.parametrize("argv", [("selftest", "--phi-points", "3"),
                                      ("fig4", "--phi-points", "-5"),
                                      ("velocity-scan", "--phi-points", "65")])
    def test_phi_points_only_where_a_fringe_is_sampled(self, capsys, argv):
        # these ignored the flag, whatever its value
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        assert "unrecognized arguments: --phi-points" in capsys.readouterr().err

    def test_selftest_passes(self, capsys):
        code, out, err = run_cli(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in err
        assert out.startswith("check,value,reference,tol,status\n")

    def test_selftest_widens_a_small_n_max_as_setup1_does(self, capsys, tmp_path):
        # n_max is a floor: the pi/2 row (N = 10) widens past n_max = 5, as
        # setup1 does, rather than refusing its coherent tail
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 5}))
        assert run_cli(capsys, "setup1", "--config", str(path))[0] == 0
        code, out, err = run_cli(capsys, "selftest", "--config", str(path))
        assert code == 0, err
        assert "pi_half_residual," in out and ",FAIL" not in out

    def test_selftest_report_follows_format(self, capsys, tmp_path):
        # the report goes to stdout like every other subcommand's, the same
        # text --out writes; the verdict goes to stderr
        code, out, err = run_cli(capsys, "selftest", "--format", "json")
        assert code == 0
        assert err == "selftest: all checks passed\n"
        path = tmp_path / "selftest.json"
        assert run_cli(capsys, "selftest", "--format", "json", "--out", str(path))[:2] == (0, "")
        assert path.read_text() == out
        assert json.loads(out)["scenario"] == "selftest"

    def test_failing_selftest_still_reports(self, capsys):
        # variant B misses the oracle: the report names the failing row
        code, out, err = run_cli(capsys, "selftest", "--variant", "B")
        assert code == 2
        assert err == "selftest: FAILED\n"
        assert "thermal_series_vs_oracle" in out and ",FAIL" in out

    def test_variant_auto_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--variant", "auto"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "invalid choice: 'auto'" in errors[0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"variant": "auto"}))
        code, out, err = run_cli(capsys, "selftest", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "variant must be 'A' or 'B'" in err
        assert len(err.splitlines()) == 1

    def test_selftest_oracle_follows_configured_second_pulse(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega_chi_rad": 0.6}))
        path = tmp_path / "selftest.json"
        code, _, _ = run_cli(capsys, "selftest", "--config", str(cfg),
                             "--format", "json", "--out", str(path))
        assert code == 0
        rows = {row[0]: row for row in json.loads(path.read_text())["rows"]}
        _, series, oracle, _, _ = rows["thermal_series_vs_oracle"]
        assert abs(series - oracle) <= 1e-9

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "velocity-scan", "--velocities", "500",
                               "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("v_mps,")

    def test_config_file_respected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nbar": 0.3}))
        code, out, _ = run_cli(capsys, "velocity-scan", "--velocities", "500",
                               "--config", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["config"]["nbar"] == 0.3

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "fig4", "--t-grid", "0:0.2:0.1")
        _, out2, _ = run_cli(capsys, "fig4", "--t-grid", "0:0.2:0.1")
        assert out1 == out2

    def test_successive_calls_are_independent(self, capsys, tmp_path):
        # the parser is built once per process; a flag given to one call
        # must not leak into the next
        code, _, _ = run_cli(capsys, "selftest", "--variant", "B")
        assert code == 2  # variant B misses the oracle
        path = tmp_path / "selftest.json"
        code, _, err = run_cli(capsys, "selftest", "--format", "json", "--out", str(path))
        assert code == 0
        assert "all checks passed" in err
        assert json.loads(path.read_text())["meta"]["series_variant"] == "A"
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--variant", "C"])
        assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ("fig4", "--t-grid", "0:1e-300:1e-310"),
    ("setup2", "--phi-points", "10002"),
    ("setup1", "--phi-points", "100000000000"),
])
def test_oversized_grid_is_a_usage_error(capsys, monkeypatch, argv):
    # refused before any grid is built or any scenario runs: the t-grid by
    # the CLI, the phi grids first thing in run_setup1 and run_setup2
    monkeypatch.setattr(cli, "range", lambda *a: pytest.fail("grid built"),
                        raising=False)
    monkeypatch.setattr(cli, "run_fig4", lambda *a, **k: pytest.fail("ran"))
    for name in ("widened_truncation", "master_fringe"):
        monkeypatch.setattr(experiments, name, lambda *a, **k: pytest.fail("ran"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "10001" in err


@pytest.mark.parametrize("argv", [
    ("setup1",), ("setup2",), ("fig4",), ("velocity-scan",), ("selftest",),
])
def test_no_scenario_propagates_a_dense_density(capsys, monkeypatch, argv):
    # the oracle waits and pulses only the chain of entries P_g reads
    def dense(*args, **kwargs):
        raise AssertionError("dense density propagated")

    monkeypatch.setattr(open_system, "evolve_master", dense)
    monkeypatch.setattr(jc, "jc_evolve", dense)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err


class TestExitCodes:
    def test_bad_config_key_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau_us": 16}))
        code, _, err = run_cli(capsys, "setup2", "--config", str(path))
        assert code == 1
        assert "unknown config keys" in err

    def test_missing_config_file(self, capsys):
        code, _, _ = run_cli(capsys, "setup2", "--config", "/nonexistent.json")
        assert code == 1

    def test_malformed_grid(self, capsys):
        code, _, _ = run_cli(capsys, "fig4", "--t-grid", "nope")
        assert code == 1

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig4", "--format", "xml"])
        assert exc.value.code == 1

    def test_truncation_failure_exits_two(self, capsys, tmp_path):
        # n_max is only a floor for setup1, but no permitted cutoff holds a
        # mean of 2e5 photons
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 10}))
        code, _, err = run_cli(capsys, "setup1", "--n-values", "200000",
                               "--config", str(path))
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("error", CavityRamseyError.__subclasses__(),
                         ids=lambda e: e.__name__)
def test_package_errors_exit_two(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("raised inside main")

    monkeypatch.setattr(cli, "run_setup2", fail)
    code, _, err = run_cli(capsys, "setup2")
    assert code == 2
    assert "raised inside main" in err


ROOT = Path(__file__).resolve().parent.parent


def _package_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


def test_import_leaves_scipy_out():
    # the package needs numpy only; scipy must not creep back into start-up
    code = ("import sys, cavity_ramsey.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_binds_only_its_submodules():
    # the API is the modules; the package namespace re-exports nothing
    import cavity_ramsey
    import cavity_ramsey.cli  # noqa: F401  (loads every package module)
    public = {name: value for name, value in vars(cavity_ramsey).items()
              if not (name.startswith("__") and name.endswith("__"))}
    assert public
    for name, value in public.items():
        assert getattr(value, "__name__", None) == f"cavity_ramsey.{name}", name


def test_run_all_scenarios_script(tmp_path):
    # every scenario at the default configuration, on a coarse fig4 grid
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_scenarios.py"),
         "--out-dir", str(tmp_path), "--fig4-step", "0.2"],
        env=_package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "fig4.csv", "selftest.csv", "setup1.csv", "setup2.json",
        "velocity_scan.csv"]
    assert "selftest: all checks passed" in done.stdout.splitlines()


def test_layer_times_script():
    # one timed run of every call the script times
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "layer_times.py"), "--repeats", "1"],
        env=_package_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 19
    assert all(float(line.split()[0]) >= 0.0 for line in lines)
    assert any(line.endswith("to_json(1601 N)") for line in lines)
    assert any(line.endswith("solve_pi_half_time(1601 N)") for line in lines)
