"""Scenario runners: parameter scans over the two interferometer setups.

Every runner returns a ScanReport whose CSV/JSON serialization is
deterministic: fixed column order, fixed row order, every float rendered with
12 significant digits, '.' decimal separator regardless of locale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import PhysicalConfig, config_to_dict
from .fock import widened_truncation
from .interferometry import (
    DetectionModel,
    apply_detection,
    branch_overlap,
    fringe_scan_setup1,
    plus_minus_decomposition,
)
from .jc import branch_states, excited_branch_norm, solve_pi_half_time
from .open_system import (
    master_fringe,
    zero_temp_visibility_closed_form,
    zero_temp_visibility_derived,
)
from .thermal import thermal_visibility

# Fitted fringe contrast of the reference run; anchors the renormalization
# factor r that maps model visibilities onto detected ones.
OBSERVED_REFERENCE_VISIBILITY = 0.69

DEFAULT_N_VALUES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
DEFAULT_VELOCITIES = (500.0, 200.0, 50.0, 10.0)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _round12(obj):
    """Recursively clamp floats to 12 significant digits for stable JSON."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


@dataclass(frozen=True)
class ScanReport:
    """Tabular scenario output plus a provenance block."""

    scenario: str
    columns: tuple
    rows: tuple
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "columns": list(self.columns),
            "rows": _round12([list(r) for r in self.rows]),
            "meta": _round12(self.meta),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]


def _provenance(cfg: PhysicalConfig, series_variant: str) -> dict:
    return {
        "config": config_to_dict(cfg),
        "T": cfg.T,
        "series_variant": series_variant,
        "term_tol": cfg.series.term_tol,
        "tail_tol": cfg.trunc.tail_tol,
    }


def run_setup1(n_values=None, config: PhysicalConfig | None = None,
               phi_points: int = 65) -> ScanReport:
    """Single-quantized-zone scan over mean photon number N = |alpha|^2.

    For each N the pulse area (pulse_time, in units with Omega = 1) is solved
    for the equal-branch condition, the visibility is 2|<alpha_e|alpha_g>|,
    and the which-path weights n_+/- come from the gauge-aligned
    decomposition. The full fringe for the largest N is attached to the meta
    block. One truncation serves every row: the configured one, widened until
    the largest N's Poisson tail is below tail_tol.
    """
    cfg = config or PhysicalConfig()
    if n_values is None:
        n_values = DEFAULT_N_VALUES
    n_values = [float(n) for n in n_values]
    if any(n < 0 for n in n_values):
        raise ValueError("mean photon numbers must be >= 0")
    trunc = widened_truncation(max(n_values, default=0.0), cfg.trunc)
    det = DetectionModel(eta=cfg.eta)
    rows = []
    for n_mean in n_values:
        alpha = math.sqrt(n_mean)
        t = solve_pi_half_time(alpha, trunc)
        a_e, a_g = branch_states(alpha, t, trunc)
        v = 2.0 * abs(branch_overlap(a_e, a_g))
        _, _, n_plus, n_minus = plus_minus_decomposition(a_e, a_g)
        rows.append((n_mean, t, v, apply_detection(min(v, 1.0), det),
                     n_plus, n_minus))
    meta = _provenance(cfg, cfg.variant)
    meta["n_max"] = trunc.n_max
    if n_values:
        show_n = max(n_values)
        pattern = fringe_scan_setup1(
            math.sqrt(show_n), trunc,
            np.linspace(0.0, 2.0 * math.pi, max(8, phi_points)))
        meta["fringe"] = {
            "n_mean": show_n,
            "phi": pattern.phis.tolist(),
            "p_g": pattern.p_g.tolist(),
            "visibility": pattern.visibility,
            "visibility_eta": apply_detection(min(pattern.visibility, 1.0), det),
        }
    return ScanReport(
        scenario="setup1",
        columns=("n_mean", "pulse_time", "visibility", "visibility_eta",
                 "n_plus", "n_minus"),
        rows=tuple(rows),
        meta=meta,
    )


def run_setup2(config: PhysicalConfig | None = None,
               phi_points: int = 65) -> ScanReport:
    """Shared-mode interferometer fringe plus the thermal visibility summary.

    Rows carry the phi-fringe from the nbar = 0 integrator chain at the
    configured T; the meta block carries the visibilities (fringe-extracted,
    closed-form, and the thermal series at the configured (T, nbar)), each
    both raw and eta-scaled.
    """
    cfg = config or PhysicalConfig()
    if phi_points < 16:
        raise ValueError(f"phi_points must be >= 16, got {phi_points}")
    det = DetectionModel(eta=cfg.eta)
    series = cfg.resolved_series()
    grid = np.linspace(0.0, 2.0 * math.pi, phi_points)
    pattern = master_fringe(cfg.T, 0.0, phi_grid=grid)
    v_fringe = pattern.visibility
    v_closed = zero_temp_visibility_closed_form(cfg.T)
    v_derived = zero_temp_visibility_derived(cfg.T)
    v_thermal = thermal_visibility(cfg.T, cfg.nbar, series,
                                   omega_chi=cfg.omega_chi_rad)
    rows = tuple((float(phi), float(pg))
                 for phi, pg in zip(pattern.phis, pattern.p_g))
    meta = _provenance(cfg, series.variant)
    meta.update({
        "visibility_fringe": v_fringe,
        "visibility_fringe_eta": apply_detection(min(v_fringe, 1.0), det),
        "visibility_closed_form": v_closed,
        "visibility_closed_form_eta": apply_detection(min(v_closed, 1.0), det),
        "visibility_zero_temp_oracle": v_derived,
        "visibility_zero_temp_oracle_eta": apply_detection(min(v_derived, 1.0), det),
        "visibility_thermal": v_thermal,
        "visibility_thermal_eta": apply_detection(v_thermal, det),
    })
    return ScanReport(
        scenario="setup2",
        columns=("phi", "p_g"),
        rows=rows,
        meta=meta,
    )


def run_fig4(t_grid, config: PhysicalConfig | None = None) -> ScanReport:
    """Visibility-vs-wait curves: compact closed form, derived oracle form,
    and the thermal series at the configured nbar.

    The compact closed form and the integrator-consistent form are both
    emitted so their documented discrepancy stays visible in the output.
    Columns are raw model visibilities; eta scaling is reported in meta only.
    """
    cfg = config or PhysicalConfig()
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid):
        raise ValueError("t_grid values must be >= 0")
    series = cfg.resolved_series()
    v_thermal = thermal_visibility(np.array(t_grid), cfg.nbar, series,
                                   omega_chi=cfg.omega_chi_rad).tolist()
    rows = [(T, zero_temp_visibility_closed_form(T),
             zero_temp_visibility_derived(T), v)
            for T, v in zip(t_grid, v_thermal)]
    meta = _provenance(cfg, series.variant)
    meta["eta"] = cfg.eta
    meta["note"] = ("columns are raw model visibilities; multiply by eta "
                    "for detected values")
    return ScanReport(
        scenario="fig4",
        columns=("T", "v_zero_temp", "v_zero_temp_oracle", "v_thermal"),
        rows=tuple(rows),
        meta=meta,
    )


def run_velocity_scan(velocities=None, config: PhysicalConfig | None = None
                      ) -> ScanReport:
    """Predicted fringe contrast for slower beams.

    Interaction and wait times scale as 1/v with all other error sources
    frozen, so T(v) = T_ref * v_ref / v and the prediction is
    r * thermal_visibility(T(v), nbar) with the single renormalization factor
    r = V_observed / thermal_visibility(T_ref, nbar). At v = v_ref the
    prediction is the observed reference exactly, by construction.
    """
    cfg = config or PhysicalConfig()
    if velocities is None:
        velocities = DEFAULT_VELOCITIES
    velocities = [float(v) for v in velocities]
    if any(v <= 0 for v in velocities):
        raise ValueError("velocities must be > 0")
    series = cfg.resolved_series()
    t_ref = cfg.T
    waits = [t_ref * cfg.v_ref_mps / v for v in velocities]
    v_model_ref, *v_models = thermal_visibility(
        np.array([t_ref, *waits]), cfg.nbar, series,
        omega_chi=cfg.omega_chi_rad).tolist()
    r = OBSERVED_REFERENCE_VISIBILITY / v_model_ref
    rows = []
    for v, T, v_model in zip(velocities, waits, v_models):
        if v == cfg.v_ref_mps:
            v_model, v_pred = v_model_ref, OBSERVED_REFERENCE_VISIBILITY
        else:
            v_pred = r * v_model
        rows.append((v, T, v_model, v_pred))
    meta = _provenance(cfg, series.variant)
    meta.update({
        "renormalization_r": r,
        "reference_visibility": OBSERVED_REFERENCE_VISIBILITY,
        "T_ref": t_ref,
    })
    return ScanReport(
        scenario="velocity-scan",
        columns=("v_mps", "T", "v_model", "v_predicted"),
        rows=tuple(rows),
        meta=meta,
    )


def run_selftest(config: PhysicalConfig | None = None) -> ScanReport:
    """Cross-check suite: closed forms and the series against the integrator.

    Each row is (check, value, reference, tol, status). A report with any
    failing row signals an internal inconsistency, not a user error.
    """
    from .fock import assert_physical_density
    from .open_system import evolve_master, zero_temp_wait
    cfg = config or PhysicalConfig()
    series = cfg.resolved_series()
    rows = []

    def check(name, value, reference, tol):
        ok = abs(value - reference) <= tol
        rows.append((name, float(value), float(reference), float(tol),
                     "pass" if ok else "FAIL"))

    # closed-form wait state vs integrator, entrywise
    T = 0.1
    rho0 = zero_temp_wait(0.7, 0.0)
    rho_num = evolve_master(rho0, T, 0.0)
    rho_cf = zero_temp_wait(0.7, T)
    check("wait_state_entrywise", float(np.max(np.abs(rho_num.mat - rho_cf.mat))),
          0.0, 1e-8)

    # physicality of a thermal evolution
    rho_th = evolve_master(rho0, 0.3, cfg.nbar)
    try:
        assert_physical_density(rho_th.mat)
        rows.append(("thermal_evolution_physical", 0.0, 0.0, 0.0, "pass"))
    except AssertionError:
        rows.append(("thermal_evolution_physical", 1.0, 0.0, 0.0, "FAIL"))

    # fringe visibility: derived closed form vs integrator at nbar = 0
    check("zero_temp_visibility",
          master_fringe(cfg.T, 0.0).visibility,
          zero_temp_visibility_derived(cfg.T), 1e-6)

    # thermal series vs integrator at the configured point and second pulse
    check("thermal_series_vs_oracle",
          thermal_visibility(cfg.T, cfg.nbar, series, omega_chi=cfg.omega_chi_rad),
          master_fringe(cfg.T, cfg.nbar, omega_chi=cfg.omega_chi_rad).visibility,
          0.01)

    # pulse-area solver residual at N = 10
    t10 = solve_pi_half_time(math.sqrt(10.0), cfg.trunc)
    check("pi_half_residual",
          excited_branch_norm(math.sqrt(10.0), t10, cfg.trunc), 0.5, 1e-9)

    meta = _provenance(cfg, series.variant)
    meta["all_pass"] = all(r[-1] == "pass" for r in rows)
    return ScanReport(
        scenario="selftest",
        columns=("check", "value", "reference", "tol", "status"),
        rows=tuple(rows),
        meta=meta,
    )
