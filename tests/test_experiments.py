import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey import experiments
from cavity_ramsey.config import PhysicalConfig
from cavity_ramsey.experiments import (
    OBSERVED_REFERENCE_VISIBILITY,
    SETUP1_BLOCK,
    ScanReport,
    run_fig4,
    run_selftest,
    run_setup1,
    run_setup2,
    run_velocity_scan,
)
from cavity_ramsey.fock import poisson_tail, widened_truncation
from cavity_ramsey.interferometry import (
    apply_detection,
    branch_overlap,
    fringe_scan_setup1,
    plus_minus_decomposition,
)
from cavity_ramsey.jc import PI_HALF_RESIDUAL_TOL, branch_states, solve_pi_half_time
from cavity_ramsey.open_system import (
    _chain,
    _chain_spectrum,
    _wait_chain,
    evolve_master,
    zero_temp_wait,
)
from cavity_ramsey.thermal import thermal_visibility
from conftest import column
from dense_reference import (
    assert_physical_density,
    density_from_chain,
    hermiticity_defect,
    min_eigenvalue,
)

CFG = PhysicalConfig()


def setup1_rows_one_n_at_a_time(n_values, cfg):
    """run_setup1's rows computed one N at a time through the scalar API."""
    trunc = widened_truncation(max(n_values), cfg.trunc)
    rows = []
    for n_mean in n_values:
        alpha = math.sqrt(n_mean)
        t = solve_pi_half_time(alpha, trunc)
        a_e, a_g = branch_states(alpha, t, trunc)
        v = 2.0 * abs(branch_overlap(a_e, a_g))
        n_plus, n_minus, _ = plus_minus_decomposition(a_e, a_g)
        rows.append((n_mean, t, v, apply_detection(min(v, 1.0), cfg.eta),
                     n_plus, n_minus))
    return rows


@pytest.fixture(scope="module")
def setup1_report():
    return run_setup1(config=CFG)


@pytest.fixture(scope="module")
def setup2_report():
    return run_setup2(CFG)


@pytest.fixture(scope="module")
def velocity_report():
    return run_velocity_scan(config=CFG)


def json_via_encoder(report):
    """The renderer to_json replaced: json's indented encoder over _round12."""
    payload = {"scenario": report.scenario, "columns": list(report.columns),
               "rows": [list(r) for r in report.rows], "meta": report.meta}
    return json.dumps(experiments._round12(payload), indent=2, sort_keys=True) + "\n"


# row cells of every kind to_json writes itself or hands to json
ROW_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     sys.float_info.min, 1e11, 1e12, 1e16, 1e17]),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),
    st.integers(min_value=-10 ** 15, max_value=10 ** 15).map(float),
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(min_value=-1e17, max_value=-1e11),
    st.text(max_size=8),
    st.integers(),
    st.booleans(),
)


def setup1_scan_report():
    """run_setup1 over the benchmark's setup1-scan input for seed 1."""
    rng = random.Random(1)
    return run_setup1(sorted(rng.uniform(0.0, 20.0) for _ in range(1601)))


class TestJsonRenderer:
    @pytest.mark.parametrize("build", [
        lambda: run_setup1(config=CFG),
        setup1_scan_report,
        lambda: run_setup2(CFG),
        lambda: run_fig4([0.02 * i for i in range(51)], CFG),
        lambda: run_velocity_scan(config=CFG),
        lambda: run_selftest(CFG),
        lambda: run_setup1([], CFG),
        lambda: ScanReport("demo", ("a",), ()),
    ], ids=["setup1", "setup1-scan", "setup2", "fig4", "velocity-scan", "selftest",
            "setup1-empty", "no-rows"])
    def test_reports_match_the_encoder(self, build):
        report = build()
        assert report.to_json() == json_via_encoder(report)

    @given(st.lists(st.lists(ROW_CELLS, max_size=4).map(tuple), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_cells_match_the_encoder(self, rows):
        report = ScanReport("demo", ("a", "b"), tuple(rows), {"k": 1.5, "s": "x"})
        assert report.to_json() == json_via_encoder(report)


class TestScanReport:
    def test_csv_has_header_and_fixed_formatting(self):
        report = ScanReport("demo", ("a", "b"), ((1.0, 1.0 / 3.0),))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.333333333333"

    def test_json_roundtrip(self):
        report = ScanReport("demo", ("a",), ((0.5,),), {"k": 2.0})
        data = json.loads(report.to_json())
        assert data["scenario"] == "demo"
        assert data["rows"] == [[0.5]]
        assert data["meta"]["k"] == 2.0

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            ScanReport("demo", ("a",), ()).render("xml")

    def test_column_accessor(self):
        report = ScanReport("demo", ("a", "b"), ((1.0, 2.0), (3.0, 4.0)))
        assert column(report, "b") == [2.0, 4.0]


class TestSetup1:
    def test_vacuum_visibility_exactly_zero(self, setup1_report):
        report = setup1_report
        assert report.rows[0][0] == 0.0
        assert report.rows[0][2] == 0.0

    def test_visibility_non_decreasing(self, setup1_report):
        report = setup1_report
        vs = column(report, "visibility")
        assert vs == sorted(vs)

    def test_eta_column_is_scaled_raw(self, setup1_report):
        report = setup1_report
        for row in report.rows:
            assert row[3] == pytest.approx(CFG.eta * row[2], abs=1e-12)

    def test_fringe_attached_for_largest_n(self, setup1_report):
        report = setup1_report
        fringe = report.meta["fringe"]
        assert fringe["n_mean"] == 20.0
        assert abs(fringe["visibility"] - report.rows[-1][2]) < 1e-8

    def test_fringe_visibility_is_the_largest_n_row(self):
        # both are 2|<alpha_e|alpha_g>| at the same area, the fringe's as
        # |c1| / c0 with c0 = 1/2: equal to the bit
        scans = [[20000.0, 20050.0, 20127.0], [0.0, 1e-200, 3.7], None]
        for seed in range(1, 6):
            rng = random.Random(seed)
            scans.append(sorted(rng.uniform(0.0, 20.0) for _ in range(1601)))
        for n_values in scans:
            report = run_setup1(n_values, CFG, phi_points=16)
            largest = max(report.rows, key=lambda row: row[0])
            assert report.meta["fringe"]["visibility"] == largest[2]

    def test_fringe_is_the_separate_solves(self):
        # the max-N row's overlap gives the fringe fringe_scan_setup1 gives
        # after solving the pulse and forming the branches again
        rng = random.Random(1)
        scans = [None, sorted(rng.uniform(0.0, 20.0) for _ in range(1601)),
                 [float(n) for n in range(20000, 20128)], [0.0, 1e-200, 3.7],
                 [3.0, 12.5, 0.4, 7.0]]
        for n_values in scans:
            for phi_points in (16, 65):
                fringe = run_setup1(n_values, CFG, phi_points).meta["fringe"]
                max_n = fringe["n_mean"]
                pattern = fringe_scan_setup1(
                    math.sqrt(max_n), widened_truncation(max_n, CFG.trunc),
                    np.linspace(0.0, 2.0 * math.pi, phi_points))
                assert fringe["phi"] == pattern.phis.tolist()
                assert fringe["p_g"] == pattern.p_g.tolist()
                assert fringe["visibility"] == pattern.visibility

    def test_meta_reports_the_cutoff_used(self, setup1_report):
        assert setup1_report.meta["n_max"] == CFG.trunc.n_max
        # the configured n_max=60 discards 1.9e-10 of a mean of 24 photons
        report = run_setup1([24.0], CFG, phi_points=16)
        assert report.meta["n_max"] == widened_truncation(24.0, CFG.trunc).n_max > 60

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            run_setup1([-1.0], CFG)

    def test_rejects_nan_n(self):
        with pytest.raises(ValueError):
            run_setup1([1.0, math.nan], CFG)

    def test_blocks_match_one_n_at_a_time(self):
        # two full blocks and a partial one, with a repeat across a block edge
        n_values = np.linspace(0.0, 20.0, 2 * SETUP1_BLOCK + 3).tolist()
        n_values[SETUP1_BLOCK] = n_values[SETUP1_BLOCK - 1]
        report = run_setup1(n_values, CFG, phi_points=16)
        expected = setup1_rows_one_n_at_a_time(n_values, CFG)
        assert len(report.rows) == len(expected)
        for row, ref in zip(report.rows, expected):
            assert np.max(np.abs(np.subtract(row, ref))) <= 1e-13
        # each area is its own scalar solve, whatever block it sits in
        assert column(report, "pulse_time") == [ref[1] for ref in expected]

    def test_diagnostics(self, setup1_report):
        diag = setup1_report.meta["diagnostics"]
        assert set(diag) == {"pulse_solver_evaluations", "max_pi_half_residual",
                             "coherent_tail"}
        # each N costs f(0) and a few curvature steps
        assert diag["pulse_solver_evaluations"] > 3 * len(setup1_report.rows)
        assert 0.0 <= diag["max_pi_half_residual"] < PI_HALF_RESIDUAL_TOL
        assert diag["coherent_tail"] == poisson_tail(20.0, setup1_report.meta["n_max"])
        assert diag["coherent_tail"] < CFG.trunc.tail_tol

    def test_report_is_byte_identical_across_runs(self):
        n_values = [0.0, 0.7, 3.0, 12.5, 20.0]
        first = run_setup1(n_values, CFG).to_json()
        assert "pulse_solver_evaluations" in first
        assert run_setup1(n_values, CFG).to_json() == first


class TestSetup2:
    def test_meta_carries_raw_and_eta_pairs(self, setup2_report):
        report = setup2_report
        m = report.meta
        for key in ("visibility_fringe", "visibility_closed_form",
                    "visibility_thermal", "visibility_zero_temp_oracle"):
            assert key in m and key + "_eta" in m
            assert m[key + "_eta"] == pytest.approx(CFG.eta * m[key], abs=1e-12)

    def test_fringe_probabilities_physical(self, setup2_report):
        report = setup2_report
        p = column(report, "p_g")
        assert min(p) >= 0.0 and max(p) <= 1.0

    def test_undamped_limit_is_cos_squared(self):
        cfg = PhysicalConfig(tau_s=1e-12)
        report = run_setup2(cfg, phi_points=17)
        for phi, p in report.rows:
            assert p == pytest.approx(math.cos(phi / 2.0) ** 2, abs=1e-6)

    def test_phi_points_floor(self):
        with pytest.raises(ValueError):
            run_setup2(CFG, phi_points=8)

    @pytest.mark.parametrize("phi_points", [8, 15, 10_002])
    def test_both_fringe_runners_bound_the_grid(self, phi_points):
        # setup1 used to attach an 8-point fringe for any smaller request
        for run in (lambda: run_setup1([1.0], CFG, phi_points=phi_points),
                    lambda: run_setup2(CFG, phi_points=phi_points)):
            with pytest.raises(ValueError, match="phi_points must be in"):
                run()


class TestFig4:
    def test_columns_and_determinism(self):
        grid = [0.0, 0.25, 0.5]
        r1 = run_fig4(grid, CFG)
        r2 = run_fig4(grid, CFG)
        assert r1.columns == ("T", "v_zero_temp", "v_zero_temp_oracle", "v_thermal")
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()

    def test_thermal_column_equals_scalar_calls(self):
        grid = [0.0, 0.3, 0.9]
        series = CFG.resolved_series()
        expected = [thermal_visibility(T, CFG.nbar, series,
                                       omega_chi=CFG.omega_chi_rad) for T in grid]
        assert column(run_fig4(grid, CFG), "v_thermal") == expected

    def test_zero_temp_above_thermal(self):
        report = run_fig4([0.1, 0.5, 1.0], CFG)
        for _, v_zero, v_oracle, v_thermal in report.rows:
            assert v_zero > v_thermal
            assert v_oracle > v_thermal

    def test_rejects_negative_wait(self):
        with pytest.raises(ValueError):
            run_fig4([-0.1], CFG)


class TestVelocityScan:
    def test_reference_fixed_point_exact(self, velocity_report):
        report = velocity_report
        row = next(r for r in report.rows if r[0] == CFG.v_ref_mps)
        assert row[3] == OBSERVED_REFERENCE_VISIBILITY

    def test_wait_scales_inversely(self, velocity_report):
        report = velocity_report
        for v, T, *_ in report.rows:
            assert T == pytest.approx(CFG.T * CFG.v_ref_mps / v, abs=1e-15)

    def test_predictions_monotone_in_velocity(self, velocity_report):
        report = velocity_report
        rows = sorted(report.rows, key=lambda r: r[0])
        preds = [r[3] for r in rows]
        assert preds == sorted(preds)

    def test_renormalization_factor_reported(self, velocity_report):
        report = velocity_report
        r = report.meta["renormalization_r"]
        assert r == pytest.approx(
            OBSERVED_REFERENCE_VISIBILITY / report.rows[0][2], abs=1e-12)

    def test_predictions_never_exceed_one(self):
        # r = 0.69 / V_model(T_ref) <= 1 is a loss, so no beam, however
        # fast, is predicted a contrast above 1
        report = run_velocity_scan([500.0, 5000.0, 50000.0], CFG)
        assert report.meta["renormalization_r"] <= 1.0
        assert all(0.0 <= v_pred <= 1.0 for v_pred in column(report, "v_predicted"))

    def test_rejects_a_model_visibility_below_the_observed(self):
        # at T_ref = 1 the model visibility is 0.156 < 0.69: r would be 4.4
        with pytest.raises(ValueError, match="T_ref = 1 "):
            run_velocity_scan([500.0, 5000.0], PhysicalConfig(tau_s=0.002))

    def test_rejects_nonpositive_velocity(self):
        with pytest.raises(ValueError):
            run_velocity_scan([0.0], CFG)


class TestSelftest:
    def test_all_checks_pass(self):
        report = run_selftest(CFG)
        assert report.meta["all_pass"]
        assert all(row[-1] == "pass" for row in report.rows)
        assert len(report.rows) >= 5


@pytest.mark.parametrize("T", [0.01, 0.1, 0.3, 1.0])
@pytest.mark.parametrize("nbar", [0.0, 0.3, 0.7, 0.95])
def test_chain_check_is_the_dense_check(T, nbar):
    # the selftest's start state waited densely: nothing leaves the chain,
    # so the block-form trace and spectrum are the whole matrix's
    start = zero_temp_wait(0.7, 0.0)
    dense = evolve_master(density_from_chain(start), T, nbar)
    L = dense.shape[0] // 2
    on_chain = np.eye(2 * L) + np.eye(2 * L, k=L - 1) + np.eye(2 * L, k=1 - L)
    assert not np.any(dense[on_chain == 0])
    assert hermiticity_defect(dense) == 0.0
    assert_physical_density(dense)
    [chain] = _wait_chain(start, nbar, [T])
    assert np.array_equal(chain, _chain(dense))
    assert chain[2 * L] == chain[3 * L] == 0.0
    trace, low = _chain_spectrum(chain)
    assert abs(trace - np.trace(dense).real) <= 1e-15
    assert abs(low - min_eigenvalue(dense)) <= 1e-15


def _physicality_row(monkeypatch, mutate):
    """The thermal_evolution_physical row with mutate(chain, L) applied to
    every waited chain the selftest reads."""
    def mutated(chain, nbar, ts):
        out = _wait_chain(chain, nbar, ts)
        for c in out:
            mutate(c, (c.size - 1) // 3)
        return out

    monkeypatch.setattr(experiments, "_wait_chain", mutated)
    rows = {row[0]: row for row in run_selftest(CFG).rows}
    return rows["thermal_evolution_physical"]


def _coherence_above_populations(c, L):
    # |rho_ge[1,0]|^2 = rho_gg[1] rho_ee[0] + 1e-6: doublet 0 is not PSD
    c[2 * L + 1] = math.sqrt(c[1].real * c[L].real + 1e-6)


def _negative_population(c, L):
    # rho_ee[L-1] = -1e-7, its mass moved to rho_gg[0]: the trace holds
    c[0] += c[2 * L - 1].real + 1e-7
    c[2 * L - 1] = -1e-7


def _trace_off(c, L):
    c[0] += 2e-9


@pytest.mark.parametrize("mutate", [
    _coherence_above_populations,
    _negative_population,
    _trace_off,
    lambda c, L: c.__setitem__(2 * L, 1e-15),
    lambda c, L: c.__setitem__(3 * L, 1e-15),
    lambda c, L: c.__setitem__(0, c[0] + 1e-3j),
], ids=["coherence", "population", "trace", "gg_corner", "ee_corner", "not_hermitian"])
def test_physicality_row_fails_an_unphysical_chain(monkeypatch, mutate):
    assert _physicality_row(monkeypatch, lambda c, L: None)[-1] == "pass"
    assert _physicality_row(monkeypatch, mutate)[1:] == (1.0, 0.0, 0.0, "FAIL")
