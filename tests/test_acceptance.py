"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with -s or in failure output). Criterion 3 is marked as a strict
expected failure: the reference visibility value it encodes is inconsistent
with both the series solution and the integrator oracle, and the package
reports the model-consistent value instead of fitting to the reference
(see the criterion's docstring for the numbers).
"""

import math

import numpy as np
import pytest

from cavity_ramsey.config import PhysicalConfig
from cavity_ramsey.experiments import (
    OBSERVED_REFERENCE_VISIBILITY,
    run_fig4,
    run_setup1,
    run_velocity_scan,
)
from cavity_ramsey.fock import TruncationConfig, assert_physical_density
from cavity_ramsey.interferometry import (
    DetectionModel,
    apply_detection,
    branch_overlap,
    fringe_scan_setup1,
)
from cavity_ramsey.jc import branch_states, excited_branch_norm, solve_pi_half_time
from cavity_ramsey.open_system import (
    evolve_master,
    master_fringe,
    master_visibility,
    split_vacuum_state,
    zero_temp_visibility_closed_form,
    zero_temp_wait,
)
from cavity_ramsey.thermal import (
    SELECTION_GRID,
    select_variant,
    thermal_visibility,
)

CFG = PhysicalConfig()
DET = DetectionModel(eta=0.75)


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_zero_temperature_closed_form():
    v = zero_temp_visibility_closed_form(0.008)
    v_eta = apply_detection(v, DET)
    ok = abs(v - 0.9881) <= 0.0005 and abs(v_eta - 0.7411) <= 0.0005
    report(1, ok, f"closed form V(0.008)={v:.5f}, eta-scaled {v_eta:.5f}")


def test_criterion_2_oracle_vs_analytic():
    worst = 0.0
    for T in (0.001, 0.008, 0.1, 0.4, 1.0):
        phi = 0.7
        rho = evolve_master(split_vacuum_state(phi).to_density(), T, 0.0)
        diff = float(np.max(np.abs(rho.mat - zero_temp_wait(phi, T).mat)))
        worst = max(worst, diff)
    v_fringe = master_fringe(0.008, 0.0).visibility
    v_closed = zero_temp_visibility_closed_form(0.008)
    ok = worst < 1e-8 and abs(v_fringe - v_closed) < 0.005
    report(2, ok, f"entrywise worst {worst:.2e}; fringe V {v_fringe:.5f} vs "
                  f"closed form {v_closed:.5f}")


@pytest.mark.xfail(
    strict=True,
    reason="the reference visibility 0.983 at (T=0.008, nbar=0.7) equals "
           "0.69/0.702 rather than a prediction of the stated model; the "
           "series and the integrator both give 0.9727 (they agree to 1e-10 "
           "with each other), which would need nbar ~ 0.07 or T ~ 0.005 to "
           "reach 0.983. The package reports the model-consistent value.",
)
def test_criterion_3_thermal_visibility():
    winner = select_variant().winner
    cfg = PhysicalConfig(variant=winner)
    v = thermal_visibility(0.008, 0.7, cfg.resolved_series())
    v_eta = apply_detection(v, DET)
    r = OBSERVED_REFERENCE_VISIBILITY / v
    ok = (abs(v - 0.983) <= 0.004 and abs(v_eta - 0.737) <= 0.004
          and abs(r - 0.702) <= 0.004)
    report(3, ok, f"thermal V={v:.4f} (want 0.983+-0.004), eta-scaled "
                  f"{v_eta:.4f} (want 0.737+-0.004), r={r:.4f} (want 0.702+-0.004)")


def test_criterion_4_velocity_scan():
    targets = {200.0: (0.67, 0.02), 50.0: (0.59, 0.02), 10.0: (0.31, 0.03)}
    scan = run_velocity_scan([200.0, 50.0, 10.0], CFG)
    preds = {row[0]: row[3] for row in scan.rows}
    primary = all(abs(preds[v] - ref) <= tol for v, (ref, tol) in targets.items())
    if primary:
        report(4, True, "primary tolerances met: " +
               ", ".join(f"v={v:g}: {preds[v]:.3f}" for v in targets))
        return
    # degraded clause: integrator visibilities at the same waits, renormalized
    # by r, must be monotone decreasing and within 0.05 of the references
    r = scan.meta["renormalization_r"]
    t_of_v = {row[0]: row[1] for row in scan.rows}
    oracle_preds = {v: r * master_visibility(t_of_v[v], CFG.nbar)
                    for v in targets}
    ordered = [oracle_preds[v] for v in (200.0, 50.0, 10.0)]
    monotone = all(a > b for a, b in zip(ordered, ordered[1:]))
    within = all(abs(oracle_preds[v] - ref) <= 0.05
                 for v, (ref, tol) in targets.items())
    detail = ("degraded clause: " +
              ", ".join(f"v={v:g}: {oracle_preds[v]:.3f} (ref {ref})"
                        for v, (ref, _) in targets.items()) +
              f"; monotone={monotone}")
    report(4, monotone and within, detail)


def test_criterion_5_series_vs_oracle():
    winner = select_variant().winner
    series = PhysicalConfig(variant=winner).resolved_series()
    worst = 0.0
    for (T, nbar) in SELECTION_GRID:
        v_series = thermal_visibility(T, nbar, series)
        worst = max(worst, abs(v_series - master_visibility(T, nbar)))
    report(5, worst < 0.01,
           f"variant {winner}; worst |series - oracle| = {worst:.2e}")


def test_criterion_6_setup1_properties():
    n_grid = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    trunc = TruncationConfig(n_max=80)
    vs, residual_worst, route_worst = [], 0.0, 0.0
    for n_mean in n_grid:
        alpha = math.sqrt(n_mean)
        t = solve_pi_half_time(alpha, trunc)
        residual_worst = max(residual_worst,
                             abs(excited_branch_norm(alpha, t, trunc) - 0.5))
        a_e, a_g = branch_states(alpha, t, trunc)
        v = 2.0 * abs(branch_overlap(a_e, a_g))
        vs.append(v)
        v_fringe = fringe_scan_setup1(alpha, trunc).visibility
        route_worst = max(route_worst, abs(v - v_fringe))
    ok = (vs[0] == 0.0 and vs == sorted(vs)
          and route_worst < 1e-8 and residual_worst < 1e-9)
    report(6, ok, f"V(0)={vs[0]}, non-decreasing={vs == sorted(vs)}, "
                  f"route diff {route_worst:.1e}, pulse residual {residual_worst:.1e}")


def test_criterion_7_physicality_suite():
    rng = np.random.default_rng(12345)
    worst_trace, worst_herm, worst_eig = 0.0, 0.0, 0.0
    for _ in range(100):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        T = rng.uniform(1e-3, 1.0)
        nbar = rng.uniform(0.0, 0.9)
        rho = evolve_master(split_vacuum_state(phi).to_density(), T, nbar)
        worst_trace = max(worst_trace, abs(rho.trace() - 1.0))
        worst_herm = max(worst_herm,
                         float(np.max(np.abs(rho.mat - rho.mat.conj().T))))
        worst_eig = min(worst_eig,
                        float(np.linalg.eigvalsh(rho.mat)[0]))
        assert_physical_density(rho.mat)
    # the split vacuum state cannot gain excitations over a cold bath
    rho = evolve_master(split_vacuum_state(0.4).to_density(), 0.7, 0.0)
    L = rho.n_levels
    keep = {0, 1, L}
    leak = sum(rho.mat[i, i].real for i in range(2 * L) if i not in keep)
    ok = (worst_trace < 1e-9 and worst_herm < 1e-10
          and worst_eig > -1e-8 and leak < 1e-10)
    report(7, ok, f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, "
                  f"min eig {worst_eig:.1e}, cold-bath leak {leak:.1e}")


def test_criterion_8_fig4_reproduction():
    grid = [0.0] + list(np.linspace(0.02, 1.0, 50))
    rep = run_fig4(grid, CFG)
    t = rep.column("T")
    v_zero = rep.column("v_zero_temp")
    v_thermal = rep.column("v_thermal")
    above = all(z > th for T, z, th in zip(t[1:], v_zero[1:], v_thermal[1:]))
    dec_zero = all(a > b for a, b in zip(v_zero[1:], v_zero[2:]))
    dec_thermal = all(a > b for a, b in zip(v_thermal[1:], v_thermal[2:]))
    at_zero = abs(v_zero[0] - 1.0) < 1e-3 and abs(v_thermal[0] - 1.0) < 1e-3
    ok = above and dec_zero and dec_thermal and at_zero
    report(8, ok, f"zero-T above thermal: {above}; strictly decreasing: "
                  f"{dec_zero and dec_thermal}; V(0)=({v_zero[0]:.4f}, "
                  f"{v_thermal[0]:.4f})")
