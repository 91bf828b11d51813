import json

import pytest

from cavity_ramsey.cli import _parse_grid, main


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

    def test_selftest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "all checks passed" in out

    def test_selftest_auto_variant_arbitrates_to_a(self, capsys, tmp_path):
        path = tmp_path / "selftest.json"
        code, out, _ = run_cli(capsys, "selftest", "--variant", "auto",
                               "--format", "json", "--out", str(path))
        assert code == 0
        assert "all checks passed" in out
        assert json.loads(path.read_text())["meta"]["series_variant"] == "A"

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
