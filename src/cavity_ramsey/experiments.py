"""Scenario runners: parameter scans over the two interferometer setups.

Every runner returns a ScanReport whose CSV/JSON serialization is
deterministic: fixed column order, fixed row order, every float rendered with
12 significant digits, '.' decimal separator regardless of locale.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import PhysicalConfig, config_to_dict
from .fock import TruncationConfig, poisson_tail, squared_norms, widened_truncation
from .interferometry import (
    apply_detection,
    plus_minus_decomposition,
    sinusoid_fringe,
)
from .jc import _pi_half_solve, branch_states, solve_pi_half_time
from .open_system import (
    _chain_spectrum,
    _wait_chain,
    master_fringe,
    zero_temp_visibility_closed_form,
    zero_temp_visibility_derived,
    zero_temp_wait,
)
from .thermal import thermal_visibility

# Fitted fringe contrast of the reference run; anchors the renormalization
# factor r that maps model visibilities onto detected ones.
OBSERVED_REFERENCE_VISIBILITY = 0.69

DEFAULT_N_VALUES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
DEFAULT_VELOCITIES = (500.0, 200.0, 50.0, 10.0)
# photon numbers run_setup1 solves together: enough for numpy, not the
# interpreter, to do the work, and few enough that the block's matrices leave
# peak memory alone (a 1601-N scan in one block raised a setup1 call's peak
# RSS from 58.8 to 64.8 MB; in blocks of 128 it stays within 0.2 MB)
SETUP1_BLOCK = 128
# most points a grid may ask for, a 1e-4 step over [0, 1]: fig4 holds two
# (waits x ladder <= thermal.J_MAX) float arrays, 20 MB each at this size,
# so a grid without a bound exhausts memory instead of failing
MAX_POINTS = 10_001


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


def _json_cell(x) -> str:
    """json.dumps(_round12(x)), without the encoder for the common floats.

    A zero or normal float below 1e11 in magnitude prints as its %.12g text
    with ".0" added where that has no "." and no "e": for these the text is
    repr(float(f"{x:.12g}")). Anything else (strings, NaN, infinities,
    subnormals, whose repr is shorter, and |x| >= 1e11, where %.12g switches
    to an exponent before repr does) goes through json.
    """
    if type(x) is float and (x == 0.0 or sys.float_info.min <= abs(x) < 1e11):
        text = f"{x:.12g}"
        return text if "." in text or "e" in text else text + ".0"
    return json.dumps(_round12(x))


def _json_row(row) -> str:
    if not row:
        return "[]"
    return "[\n      " + ",\n      ".join(map(_json_cell, row)) + "\n    ]"


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
        """json.dumps of the report with indent 2 and sorted keys, floats
        rounded to 12 significant digits; the rows are written cell by cell
        (`_json_cell`), the other keys by json one level deeper."""
        def nested(value) -> str:
            return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")

        rows = "[]"
        if self.rows:
            rows = "[\n    " + ",\n    ".join(map(_json_row, self.rows)) + "\n  ]"
        return (f'{{\n  "columns": {nested(list(self.columns))},\n'
                f'  "meta": {nested(_round12(self.meta))},\n'
                f'  "rows": {rows},\n'
                f'  "scenario": {json.dumps(self.scenario)}\n}}\n')

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")


def _check_phi_points(phi_points: int) -> None:
    """Refuse a fringe grid of fewer than 16 or more than MAX_POINTS points."""
    if not 16 <= phi_points <= MAX_POINTS:
        raise ValueError(f"phi_points must be in [16, {MAX_POINTS}], got {phi_points}")


def _provenance(cfg: PhysicalConfig) -> dict:
    return {
        "config": config_to_dict(cfg),
        "T": cfg.T,
        "series_variant": cfg.series.variant,
        "term_tol": cfg.series.term_tol,
        "tail_tol": cfg.trunc.tail_tol,
    }


def _setup1_block(n_values: list, trunc: TruncationConfig, eta: float,
                  diagnostics: dict) -> tuple[list, np.ndarray]:
    """run_setup1's rows for one block of N, and each row's real overlap
    <alpha_e|i alpha_g>, which is i <alpha_e|alpha_g>; the pulse solver adds
    its work to `diagnostics`. eta is not checked here: run_setup1's fringe
    checks it once per call (`apply_detection`), and PhysicalConfig bounds
    it.

    The block's coherent magnitude rows are built once, inside the pulse
    solver (`jc._pi_half_solve`): the alphas are real and >= 0, so these
    are the coherent rows, and the solver's accepting evaluations give the
    branches as real rows alpha_e and i alpha_g. The factor i is a fixed
    phase on alpha_g, the gauge `plus_minus_decomposition` removes, so
    n_+/- and |overlap| are those of the complex branches, and no
    trigonometry runs after the solver. A block's rows are freed when this
    returns, before the next block's are built, so only one block is ever
    held.
    """
    alphas = np.sqrt(n_values)
    areas, evaluations, residual, (a_e, a_g) = _pi_half_solve(alphas, trunc)
    diagnostics["pulse_solver_evaluations"] += evaluations
    diagnostics["max_pi_half_residual"] = max(diagnostics["max_pi_half_residual"],
                                              residual)
    n_plus, n_minus, overlaps = plus_minus_decomposition(a_e, a_g)
    vs = 2.0 * np.abs(overlaps)
    return list(zip(n_values, areas.tolist(), vs.tolist(),
                    (eta * np.minimum(vs, 1.0)).tolist(), n_plus.tolist(),
                    n_minus.tolist())), overlaps


def run_setup1(n_values=None, config: PhysicalConfig | None = None,
               phi_points: int = 65) -> ScanReport:
    """Single-quantized-zone scan over mean photon number N = |alpha|^2.

    For each N the pulse area (pulse_time, in units with Omega = 1) is the
    first root of the equal-branch condition, reached by steps that cannot
    pass it (`solve_pi_half_time`), the visibility is 2|<alpha_e|alpha_g>|,
    and the which-path weights n_+/- come from the gauge-aligned
    decomposition. The full fringe for the largest N is attached to the meta
    block, read from that row's overlap (`interferometry.sinusoid_fringe`),
    as `fringe_scan_setup1` would give it without a second solve. One
    truncation serves every row: the configured one, widened until
    the largest N's Poisson tail is below tail_tol.

    N is taken SETUP1_BLOCK values at a time: one block of real coherent
    magnitude rows serves the array pulse solver (`jc._pi_half_solve`),
    which checks their squared norms and returns the
    branches as real rows from the evaluation that accepts each area. The
    overlaps and n_+/- are then taken row by row over those rows, each
    overlap once (`plus_minus_decomposition`). meta["diagnostics"] records the
    pulse solver's evaluations of <alpha_e|alpha_e> - 1/2, the largest
    |<alpha_e|alpha_e> - 1/2| at a solved area, and the Poisson tail the
    cutoff discards at the largest N. N must be >= 0; NaN is refused with
    the negative values, and phi_points must be in [16, MAX_POINTS].
    """
    _check_phi_points(phi_points)
    cfg = config or PhysicalConfig()
    if n_values is None:
        n_values = DEFAULT_N_VALUES
    n_values = [float(n) for n in n_values]
    if not all(n >= 0 for n in n_values):  # also refuses NaN
        raise ValueError("mean photon numbers must be >= 0")
    max_n = max(n_values, default=0.0)
    trunc = widened_truncation(max_n, cfg.trunc)
    diagnostics = {"pulse_solver_evaluations": 0, "max_pi_half_residual": 0.0}
    rows, overlaps = [], []
    for start in range(0, len(n_values), SETUP1_BLOCK):
        block_rows, block_overlaps = _setup1_block(
            n_values[start:start + SETUP1_BLOCK], trunc, cfg.eta, diagnostics)
        rows += block_rows
        overlaps += block_overlaps.tolist()
    diagnostics["coherent_tail"] = poisson_tail(max_n, trunc.n_max)
    meta = _provenance(cfg)
    meta["n_max"] = trunc.n_max
    meta["diagnostics"] = diagnostics
    if n_values:
        # the largest N's row has solved its pulse and formed its branches:
        # the fringe is 1/2 + Re(e^{i phi} <alpha_e|alpha_g>) from its overlap
        pattern = sinusoid_fringe(np.linspace(0.0, 2.0 * math.pi, phi_points), 0.5,
                                  -1j * overlaps[n_values.index(max_n)])
        meta["fringe"] = {
            "n_mean": max_n,
            "phi": pattern.phis.tolist(),
            "p_g": pattern.p_g.tolist(),
            "visibility": pattern.visibility,
            "visibility_eta": apply_detection(min(pattern.visibility, 1.0), cfg.eta),
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
    both raw and eta-scaled. phi_points must be in [16, MAX_POINTS].
    """
    _check_phi_points(phi_points)
    cfg = config or PhysicalConfig()
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
    meta = _provenance(cfg)
    meta.update({
        "visibility_fringe": v_fringe,
        "visibility_fringe_eta": apply_detection(min(v_fringe, 1.0), cfg.eta),
        "visibility_closed_form": v_closed,
        "visibility_closed_form_eta": apply_detection(min(v_closed, 1.0), cfg.eta),
        "visibility_zero_temp_oracle": v_derived,
        "visibility_zero_temp_oracle_eta": apply_detection(min(v_derived, 1.0), cfg.eta),
        "visibility_thermal": v_thermal,
        "visibility_thermal_eta": apply_detection(v_thermal, cfg.eta),
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
    meta = _provenance(cfg)
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
    prediction is the observed reference exactly, by construction. r is the
    loss factor of the error sources the model leaves out, so a
    thermal_visibility(T_ref, nbar) below V_observed (r > 1, a gain no
    imperfection supplies) raises ValueError; this covers one that
    underflows at long waits.
    """
    cfg = config or PhysicalConfig()
    if velocities is None:
        velocities = DEFAULT_VELOCITIES
    velocities = [float(v) for v in velocities]
    if not all(0 < v < math.inf for v in velocities):  # also refuses NaN
        raise ValueError("velocities must be finite and > 0")
    series = cfg.resolved_series()
    t_ref = cfg.T
    waits = [t_ref * cfg.v_ref_mps / v for v in velocities]
    v_model_ref, *v_models = thermal_visibility(
        np.array([t_ref, *waits]), cfg.nbar, series,
        omega_chi=cfg.omega_chi_rad).tolist()
    # r is the loss factor of every error source the model leaves out, so it
    # cannot exceed 1; this also refuses a model visibility that underflows
    if not v_model_ref >= OBSERVED_REFERENCE_VISIBILITY:
        raise ValueError(f"the model visibility {v_model_ref:.3g} at T_ref = {t_ref:g} "
                         f"is below the observed {OBSERVED_REFERENCE_VISIBILITY}: "
                         "no renormalization r <= 1 reaches it")
    r = OBSERVED_REFERENCE_VISIBILITY / v_model_ref
    rows = []
    for v, T, v_model in zip(velocities, waits, v_models):
        if v == cfg.v_ref_mps:
            v_model, v_pred = v_model_ref, OBSERVED_REFERENCE_VISIBILITY
        else:
            v_pred = r * v_model
        rows.append((v, T, v_model, v_pred))
    meta = _provenance(cfg)
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
    failing row signals an internal inconsistency, not a user error. The two
    wait rows propagate the chain of entries the oracle fringe propagates
    (`open_system._wait_chain`); the wait keeps every entry off it at zero.
    """
    cfg = config or PhysicalConfig()
    series = cfg.resolved_series()
    # before any oracle row, so the series refuses an nbar outside its domain
    # before the oracle waits at it
    v_series = thermal_visibility(cfg.T, cfg.nbar, series, omega_chi=cfg.omega_chi_rad)
    rows = []

    def check(name, value, reference, tol):
        ok = abs(value - reference) <= tol
        rows.append((name, float(value), float(reference), float(tol),
                     "pass" if ok else "FAIL"))

    # closed-form wait state vs integrator, entrywise
    start = zero_temp_wait(0.7, 0.0)
    [waited] = _wait_chain(start, 0.0, [0.1])
    check("wait_state_entrywise",
          float(np.max(np.abs(waited - zero_temp_wait(0.7, 0.1)))), 0.0, 1e-8)

    # physicality of a thermal evolution: Hermitian, trace within 1e-9 of 1
    # and no eigenvalue below -1e-8
    [waited] = _wait_chain(start, cfg.nbar, [0.3])
    try:
        trace, low = _chain_spectrum(waited)
        ok = abs(trace - 1.0) < 1e-9 and low > -1e-8
    except ValueError:  # not a Hermitian sum of doublet blocks
        ok = False
    rows.append(("thermal_evolution_physical", 0.0 if ok else 1.0, 0.0, 0.0,
                 "pass" if ok else "FAIL"))

    # fringe visibility: derived closed form vs integrator at nbar = 0
    check("zero_temp_visibility",
          master_fringe(cfg.T, 0.0).visibility,
          zero_temp_visibility_derived(cfg.T), 1e-6)

    # thermal series vs integrator at the configured point and second pulse
    check("thermal_series_vs_oracle", v_series,
          master_fringe(cfg.T, cfg.nbar, omega_chi=cfg.omega_chi_rad).visibility,
          0.01)

    # pulse-area solver residual at N = 10, on n_max widened as setup 1 does
    trunc10 = widened_truncation(10.0, cfg.trunc)
    t10 = solve_pi_half_time(math.sqrt(10.0), trunc10)
    check("pi_half_residual",
          squared_norms(branch_states(math.sqrt(10.0), t10, trunc10)[0]), 0.5, 1e-9)

    meta = _provenance(cfg)
    meta["all_pass"] = all(r[-1] == "pass" for r in rows)
    return ScanReport(
        scenario="selftest",
        columns=("check", "value", "reference", "tol", "status"),
        rows=tuple(rows),
        meta=meta,
    )
