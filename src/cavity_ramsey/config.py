"""Physical configuration and its JSON round-trip.

Field names carry explicit SI units (t_cav_s, tau_s, v_ref_mps, omega_chi_rad)
because mixed ms/us inputs are the likeliest failure mode for this kind of
model. The dimensionless wait used everywhere downstream is the derived,
read-only T = tau / (2 * t_cav).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

from .fock import TruncationConfig
from .thermal import SeriesConfig

CONFIG_KEYS = ("t_cav_s", "tau_s", "nbar", "eta", "v_ref_mps",
               "omega_chi_rad", "n_max", "tail_tol", "term_tol", "variant")


@dataclass(frozen=True)
class PhysicalConfig:
    """Experiment-scale parameters plus numerical policies.

    `variant` may be "A", "B" or "auto"; "auto" defers the choice of the
    thermal-series transcription to `thermal.select_variant` (arbitrated
    against the integrator oracle) the first time a series value is needed.
    """

    t_cav_s: float = 1e-3
    tau_s: float = 16e-6
    nbar: float = 0.7
    eta: float = 0.75
    v_ref_mps: float = 500.0
    omega_chi_rad: float = math.pi / 4.0
    variant: str = "A"
    trunc: TruncationConfig = field(default_factory=TruncationConfig)
    series: SeriesConfig = field(default_factory=SeriesConfig)

    def __post_init__(self):
        for name in ("t_cav_s", "tau_s", "nbar", "eta", "v_ref_mps", "omega_chi_rad"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if not math.isfinite(self.T):
            raise ValueError(f"T = tau_s / (2 t_cav_s) must be finite, got {self.T} "
                             f"(tau_s={self.tau_s!r}, t_cav_s={self.t_cav_s!r})")
        if not self.eta <= 1.0:
            raise ValueError(f"eta must be <= 1, got {self.eta}")
        if self.variant not in ("A", "B", "auto"):
            raise ValueError(f"variant must be 'A', 'B' or 'auto', got {self.variant!r}")

    @property
    def T(self) -> float:
        """Dimensionless wait duration k*tau = tau / (2 * t_cav)."""
        return self.tau_s / (2.0 * self.t_cav_s)

    def resolved_series(self) -> SeriesConfig:
        """SeriesConfig with the variant made concrete (running selection if 'auto')."""
        if self.variant in ("A", "B"):
            return replace(self.series, variant=self.variant)
        from .thermal import select_variant
        winner = select_variant(self.series).winner
        return replace(self.series, variant=winner)


def config_to_dict(cfg: PhysicalConfig) -> dict:
    return {
        "t_cav_s": cfg.t_cav_s,
        "tau_s": cfg.tau_s,
        "nbar": cfg.nbar,
        "eta": cfg.eta,
        "v_ref_mps": cfg.v_ref_mps,
        "omega_chi_rad": cfg.omega_chi_rad,
        "n_max": cfg.trunc.n_max,
        "tail_tol": cfg.trunc.tail_tol,
        "term_tol": cfg.series.term_tol,
        "variant": cfg.variant,
    }


def config_from_dict(data: dict) -> PhysicalConfig:
    unknown = set(data) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}; "
                         f"allowed keys are {list(CONFIG_KEYS)}")
    base = PhysicalConfig()
    trunc = TruncationConfig(
        n_max=int(data.get("n_max", base.trunc.n_max)),
        tail_tol=float(data.get("tail_tol", base.trunc.tail_tol)),
    )
    series = SeriesConfig(term_tol=float(data.get("term_tol", base.series.term_tol)))
    return PhysicalConfig(
        t_cav_s=float(data.get("t_cav_s", base.t_cav_s)),
        tau_s=float(data.get("tau_s", base.tau_s)),
        nbar=float(data.get("nbar", base.nbar)),
        eta=float(data.get("eta", base.eta)),
        v_ref_mps=float(data.get("v_ref_mps", base.v_ref_mps)),
        omega_chi_rad=float(data.get("omega_chi_rad", base.omega_chi_rad)),
        variant=str(data.get("variant", base.variant)),
        trunc=trunc,
        series=series,
    )


def load_config(path: str) -> PhysicalConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return config_from_dict(data)


def dump_config(cfg: PhysicalConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
