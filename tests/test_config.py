import json
import math

import pytest

from cavity_ramsey.config import (
    CONFIG_KEYS,
    PhysicalConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from cavity_ramsey.fock import TruncationConfig
from cavity_ramsey.thermal import SeriesConfig


class TestPhysicalConfig:
    def test_defaults(self):
        cfg = PhysicalConfig()
        assert cfg.T == pytest.approx(0.008)
        assert cfg.nbar == 0.7
        assert cfg.eta == 0.75
        assert cfg.omega_chi_rad == pytest.approx(math.pi / 4.0)

    def test_derived_wait_tracks_inputs(self):
        cfg = PhysicalConfig(t_cav_s=2e-3, tau_s=8e-5)
        assert cfg.T == pytest.approx(0.02)

    @pytest.mark.parametrize("kwargs", [
        {"t_cav_s": 0.0},
        {"tau_s": -1e-6},
        {"eta": 0.0},
        {"eta": 1.5},
        {"nbar": -0.1},
        {"v_ref_mps": math.inf},
        {"tau_s": 1e300, "t_cav_s": 1e-300},  # T = tau / (2 t_cav) overflows
        {"omega_chi_rad": math.nan},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalConfig(**kwargs)

    def test_resolved_series_explicit_variant(self):
        cfg = PhysicalConfig(series=SeriesConfig(variant="B"))
        assert cfg.resolved_series() is cfg.series
        assert cfg.resolved_series().variant == "B"

    @pytest.mark.parametrize("variant", ["Z", "auto"])
    def test_rejects_an_unknown_variant(self, variant):
        with pytest.raises(ValueError, match="variant must be 'A' or 'B'"):
            config_from_dict({"variant": variant})


class TestRoundTrip:
    def test_parse_emit_identity(self):
        cfg = PhysicalConfig(tau_s=3.2e-5, nbar=0.4,
                             trunc=TruncationConfig(n_max=30, tail_tol=1e-9),
                             series=SeriesConfig(term_tol=1e-10, variant="B"))
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_variant_key_sets_the_series_variant(self):
        # one setting, in the series part; the keys keep their order
        cfg = config_from_dict({"variant": "B"})
        assert cfg.series.variant == "B" and config_to_dict(cfg)["variant"] == "B"
        assert CONFIG_KEYS == ("t_cav_s", "tau_s", "nbar", "eta", "v_ref_mps",
                               "omega_chi_rad", "n_max", "tail_tol", "term_tol",
                               "variant")

    def test_dump_is_valid_json(self):
        data = json.loads(dump_config(PhysicalConfig()))
        assert data["t_cav_s"] == 1e-3
        assert data["variant"] == "A"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"tau_us": 16.0})

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"nbar": 0.5})
        assert cfg.nbar == 0.5
        assert cfg.t_cav_s == 1e-3

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tau_s": 4e-5, "n_max": 20}))
        cfg = load_config(str(path))
        assert cfg.T == pytest.approx(0.02)
        assert cfg.trunc.n_max == 20

    def test_load_config_rejects_non_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            load_config(str(path))

    @pytest.mark.parametrize("data", [
        {"n_max": 12.9},
        {"n_max": True},
        {"n_max": float("inf")},
        {"nbar": True},
        {"term_tol": False},
        {"variant": True},
    ])
    def test_rejects_booleans_and_fractional_n_max(self, data):
        with pytest.raises(ValueError, match=repr(next(iter(data)))):
            config_from_dict(data)

    def test_integral_float_n_max_is_accepted(self):
        n_max = config_from_dict({"n_max": 12.0}).trunc.n_max
        assert n_max == 12 and type(n_max) is int

    def test_cli_refuses_fractional_n_max(self, tmp_path, capsys):
        from cavity_ramsey.cli import main

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_max": 12.9}))
        assert main(["setup2", "--config", str(path)]) == 1
        assert "n_max" in capsys.readouterr().err
