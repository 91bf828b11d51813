"""Physical configuration and its JSON round-trip.

Field names carry explicit SI units (t_cav_s, tau_s, v_ref_mps, omega_chi_rad)
because mixed ms/us inputs are the likeliest failure mode for this kind of
model. The dimensionless wait used everywhere downstream is the derived,
read-only T = tau / (2 * t_cav).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .fock import TruncationConfig
from .thermal import SeriesConfig

# the six settings that must be positive finite numbers
_POSITIVE = ("t_cav_s", "tau_s", "nbar", "eta", "v_ref_mps", "omega_chi_rad")
# config key -> (the PhysicalConfig part that holds it, its type); every key
# is the attribute name in its part
_FIELDS = {**dict.fromkeys(_POSITIVE, (None, float)),
           "n_max": ("trunc", int), "tail_tol": ("trunc", float),
           "term_tol": ("series", float), "variant": ("series", str)}
CONFIG_KEYS = tuple(_FIELDS)


@dataclass(frozen=True)
class PhysicalConfig:
    """Experiment-scale parameters plus numerical policies.

    `series.variant` is the thermal-series transcription, "A" (the default,
    the reading the integrator oracle confirms) or "B" (see `thermal`); the
    config key "variant" sets it.
    """

    t_cav_s: float = 1e-3
    tau_s: float = 16e-6
    nbar: float = 0.7
    eta: float = 0.75
    v_ref_mps: float = 500.0
    omega_chi_rad: float = math.pi / 4.0
    trunc: TruncationConfig = field(default_factory=TruncationConfig)
    series: SeriesConfig = field(default_factory=SeriesConfig)

    def __post_init__(self):
        for name in _POSITIVE:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        if not math.isfinite(self.T):
            raise ValueError(f"T = tau_s / (2 t_cav_s) must be finite, got {self.T} "
                             f"(tau_s={self.tau_s!r}, t_cav_s={self.t_cav_s!r})")
        if not self.eta <= 1.0:
            raise ValueError(f"eta must be <= 1, got {self.eta}")

    @property
    def T(self) -> float:
        """Dimensionless wait duration k*tau = tau / (2 * t_cav)."""
        return self.tau_s / (2.0 * self.t_cav_s)

    def resolved_series(self) -> SeriesConfig:
        """The thermal-series settings, variant included (`series` itself)."""
        return self.series


def config_to_dict(cfg: PhysicalConfig) -> dict:
    return {key: getattr(getattr(cfg, part) if part else cfg, key)
            for key, (part, _) in _FIELDS.items()}


def _convert(key: str, value, kind: type):
    """value as kind, refusing a boolean and an n_max that is not a whole number."""
    if isinstance(value, bool):
        raise ValueError(f"config key {key!r} must be a {kind.__name__}, got {value!r}")
    if kind is int:
        number = float(value)
        if not number.is_integer():
            raise ValueError(f"config key {key!r} must be a whole number, got {value!r}")
        return int(number)
    return kind(value)


def config_from_dict(data: dict) -> PhysicalConfig:
    unknown = set(data) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}; "
                         f"allowed keys are {list(CONFIG_KEYS)}")
    parts = {None: {}, "trunc": {}, "series": {}}
    for key, value in data.items():
        part, kind = _FIELDS[key]
        parts[part][key] = _convert(key, value, kind)
    return PhysicalConfig(**parts[None], trunc=TruncationConfig(**parts["trunc"]),
                          series=SeriesConfig(**parts["series"]))


def load_config(path: str) -> PhysicalConfig:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must contain a JSON object")
    return config_from_dict(data)


def dump_config(cfg: PhysicalConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
