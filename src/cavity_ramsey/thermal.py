"""Finite-temperature series for the shared-mode interferometer.

The dissipative wait over a warm bath admits a series solution in the doublet
ladder: the detection probability splits as P_g(phi) = P_c + P_o * sin(phi),
where the constant part P_c is a sum of four nested series and the oscillatory
amplitude P_o is a fifth. Visibility is |P_o| / P_c.

omega_chi (config key omega_chi_rad) is the area Omega*chi of setup 2's
second, recombining pulse; the split pulse stays at pi/4. The oracle
`open_system.master_fringe` takes the same omega_chi, so the series and the
oracle are compared at the same pulse.

T enters only through e^{-2jT} on the j-th ladder term (and e^{-T} on P_o),
so each call builds the ladder coefficients (the terms at T = 0) once for its
nbar and serves a whole array of waits. The inner m-sums depend only on
(nbar, l) and are computed once per build, each stopped at the smallest
support whose negative-binomial tail certifies the discarded mass below
term_tol. That tail is a direct sum of the discarded probabilities plus a
geometric bound on the rest, raised by a bound on its own rounding, so it is
never below the exact tail (see `fock.tail_cutoff`). The ladder stops after 3
consecutive coefficients below term_tol.

Two transcription ambiguities in the oscillatory series are handled
explicitly rather than guessed:

* the per-term factor is either (j+1)*sqrt(m+1)/(l+1) (variant A) or
  sqrt((j+1)*(m+1))/(l+1) (variant B) depending on how far the square root
  extends; both are implemented and `select_variant` picks the one agreeing
  with the master-equation oracle;
* the inner sign factor is transcribed as (-nbar)^{+l}, whereas the constant
  parts carry (-nbar)^{-l}. Both readings are available (`printed_osc_sign`);
  the default follows the constant parts' convention, which the oracle
  confirms to machine precision (variant A with that sign reproduces the
  integrator to ~1e-12, so the +l exponent is a transcription slip).

All inner sums are folded so nbar^{-l} never appears on its own: the m-sum
starts at m = l and nbar^{m-l} stays bounded, which keeps small nbar
well-conditioned. nbar < 1 is required for convergence.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceFailure, InconclusiveSelection
from .fock import bd0, stirlerr, tail_cutoff
from .jc import DEFAULT_OMEGA_CHI
from .summation import exact_sum

# (T, nbar) points used to arbitrate the variant against the oracle
SELECTION_GRID = (
    (0.008, 0.3), (0.008, 0.7),
    (0.1, 0.3), (0.1, 0.7),
    (0.4, 0.3), (0.4, 0.7),
)
# caps on the ladder length and on an inner sum's support
J_MAX = 256
M_MAX = 4096


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation threshold and the transcription choices."""

    term_tol: float = 1e-12
    variant: str = "A"
    printed_osc_sign: bool = False

    def __post_init__(self):
        # below the smallest normal float the tails lose their tightness, and
        # the ladder cannot reach term_tol
        if not sys.float_info.min <= self.term_tol <= 1e-6:
            raise ValueError(f"term_tol must be a normal float <= 1e-6, got {self.term_tol}")
        if self.variant not in ("A", "B"):
            raise ValueError(f"variant must be 'A' or 'B', got {self.variant!r}")


def _waits(T, nbar: float, omega_chi: float) -> np.ndarray:
    """The waits as a flat float array, after checking the domain of T, nbar
    and the pulse area omega_chi."""
    ts = np.asarray(T, dtype=float).reshape(-1)
    if not np.all((ts >= 0) & (ts < math.inf)):  # also refuses NaN
        raise ValueError(f"T must be finite and >= 0, got {T}")
    if not 0.0 < nbar < 1.0:
        raise ValueError(f"nbar must lie in (0, 1) for convergence, got {nbar}")
    if not math.isfinite(omega_chi):
        raise ValueError(f"omega_chi must be finite, got {omega_chi}")
    return ts


def _shaped(values: np.ndarray, T):
    """values in the shape of T; a float for a scalar T."""
    return float(values[0]) if np.ndim(T) == 0 else values.reshape(np.shape(T))


def gammaln(x: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """ln Gamma(x) = ln (x-1)! at integers x >= 1, read from log_fact[k] = ln k!.

    No package code calls it: the series weights come from their own ratio
    (`_binomial_weights`). It is kept because the benchmark's per-layer
    counters (`perfbench/tracer.py`) look it up.
    """
    return log_fact[x - 1]


def _binomial_weights(l: int, nbar: float, size: int) -> np.ndarray:
    """C(m, l) nbar^{m-l} / (1+nbar)^m = (1+nbar) NegBinom(m-l; l+1, 1/(1+nbar))
    for m = l, ..., l + size - 1.

    One cumulative product: the first weight is (1+nbar)^{-l} and each next
    one is the last times m/(m-l) * nbar/(1+nbar). For l < J_MAX the first is
    at least 2^-256 and the weights sum to 1+nbar, so no partial product
    under- or overflows before the tail.
    """
    k = np.arange(1, size)
    ratios = (l + k) / k * (nbar / (1.0 + nbar))
    return np.cumprod(np.concatenate(([(1.0 + nbar) ** -l], ratios)))


def _negbin_log_pmf(x: int, successes: int, nbar: float) -> tuple[float, float]:
    """ln P[NegBinom(successes, 1/(1+nbar)) = x], and the size of its inputs.

    Written as successes/(x+successes) times a binomial probability in the
    saddle-point form of `fock.bd0`, so no large terms cancel; the size is
    what `fock.rounding_bound` needs.
    """
    if x == 0:
        y = -successes * math.log1p(nbar)
        return y, abs(y) + successes
    n = x + successes
    y = (stirlerr(n) - stirlerr(successes) - stirlerr(x)
         - bd0(successes, n / (1.0 + nbar)) - bd0(x, n * nbar / (1.0 + nbar))
         - 0.5 * math.log(2.0 * math.pi * successes * x / n) + math.log(successes / n))
    return y, 2.0 * n + abs(y) + 16.0


def _support(successes: int, scale: float, nbar: float, start: int,
             cfg: SeriesConfig) -> int:
    """Smallest K >= start with scale * P[NegBinom(successes, 1/(1+nbar)) > K] <= tol.

    tol is cfg.term_tol. An inner sum whose terms at m = l + k are bounded by
    scale times that mass at k discards at most tol when it stops at m = l + K.
    The tail grows with the successes, so the support of l is a valid start
    for l + 1, which is seldom more than a few terms further. K is
    `fock.tail_cutoff`'s certified cutoff, with the term ratio
    q (x + successes) / (x + 1), q = nbar/(1+nbar); it is K < M_MAX or
    ConvergenceFailure. Raises ValueError unless nbar is finite and > 0.
    """
    if not 0.0 < nbar < math.inf:
        raise ValueError(f"negative-binomial nbar must be finite and > 0, got {nbar}")
    q = nbar / (1.0 + nbar)
    K = tail_cutoff(lambda x: _negbin_log_pmf(x, successes, nbar), q, q * successes,
                    start, cfg.term_tol / scale, M_MAX)
    if K >= M_MAX:
        raise ConvergenceFailure(f"inner sum needs more than M_MAX={M_MAX} terms "
                                 f"to reach {cfg.term_tol:.1e}")
    return K


def _ladder(coefficient, cfg: SeriesConfig, label: str) -> np.ndarray:
    """coefficient(0), coefficient(1), ... until 3 in a row fall below term_tol.

    The coefficients are the ladder terms at T = 0; e^{-2jT} <= 1 only shrinks
    them, so this is the longest ladder any wait needs.
    """
    out, below = [], 0
    for j in range(J_MAX):
        out.append(coefficient(j))
        below = below + 1 if abs(out[-1]) < cfg.term_tol else 0
        if below == 3:
            return np.array(out)
    raise ConvergenceFailure(f"{label} ladder hit its cap before reaching "
                             f"{cfg.term_tol:.1e}")


def _over_waits(coefficients: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_j e^{-2jT} coefficients[j] for every T, each sum exactly rounded."""
    decay = np.exp(np.multiply.outer(ts, -2.0 * np.arange(coefficients.size)))
    return np.array([exact_sum(row) for row in decay * coefficients])


def _ladder_weight(j: int, nbar: float) -> float:
    """(nbar^j - j nbar^{j-1}) / (1+nbar)^{j+1}, with the j=0 derivative term zero."""
    lead = nbar ** j
    deriv = j * nbar ** (j - 1) if j > 0 else 0.0
    return (lead - deriv) / (1.0 + nbar) ** (j + 1)


def pg_constant(T, nbar: float, omega_chi: float = DEFAULT_OMEGA_CHI,
                cfg: SeriesConfig | None = None):
    """Constant (phi-independent) part of the detection probability.

    Sum of four nested series over the doublet ladder, built once as
    coefficients a_j with P_c(T) = sum_j e^{-2jT} a_j. T may be a scalar or
    an array; the result has T's shape (a float for a scalar).
    """
    ts = _waits(T, nbar, omega_chi)
    cfg = cfg or SeriesConfig()
    c3, c4, support = [], [], 0

    def coefficient(j: int) -> float:
        nonlocal support
        # inner sums for l = j; each term is <= (1+nbar) NegBinom(m-l; l+1)
        support = _support(j + 1, 1.0 + nbar, nbar, support, cfg)
        ms = np.arange(j, j + support + 2)
        w = _binomial_weights(j, nbar, ms.size)
        angle = omega_chi * np.sqrt(ms[:-1] + 1.0)
        c3.append(exact_sum(w[:-1] * np.sin(angle) ** 2))
        c4.append(exact_sum(w[1:] * np.cos(angle) ** 2))

        g = _ladder_weight(j, nbar)
        h = nbar ** j / (1.0 + nbar) ** (j + 1)
        mixers = exact_sum((-(1.0 + nbar)) ** (-i) * math.comb(j, i)
                           * math.cos(omega_chi * math.sqrt(i)) ** 2
                           for i in range(1, j + 1))
        alt3 = exact_sum((-1.0) ** l * math.comb(j, l) * c3[l] for l in range(j + 1))
        alt4 = exact_sum((-1.0) ** l * math.comb(j, l) * c4[l] for l in range(j + 1))
        return exact_sum((0.5 * g, 0.5 * g * mixers, 0.5 * h * alt3, 0.5 * g * alt4))

    return _shaped(_over_waits(_ladder(coefficient, cfg, "constant"), ts), T)


def pg_oscillatory(T, nbar: float, omega_chi: float = DEFAULT_OMEGA_CHI,
                   cfg: SeriesConfig | None = None):
    """Oscillatory amplitude of the detection probability.

    Built once as coefficients b_j with P_o(T) = e^{-T} sum_j e^{-2jT} b_j;
    T may be a scalar or an array, as for `pg_constant`. The ambiguous
    per-term factor follows cfg.variant; the inner sign exponent follows
    cfg.printed_osc_sign (see the module docstring).
    """
    ts = _waits(T, nbar, omega_chi)
    cfg = cfg or SeriesConfig()
    # the printed reading's inner sum is nbar^l times the folded one, and it
    # carries (-nbar)^l outside in place of (-1)^l
    sign = -nbar * nbar if cfg.printed_osc_sign else -1.0
    inner, support = [], 0

    def coefficient(j: int) -> float:
        nonlocal support
        # inner sum for l = j; as sqrt(m+1) <= m+1 and (m+1) C(m,l) = (l+1)
        # C(m+1,l+1), each term is <= (1+nbar)^2 NegBinom(m-l; l+2)
        support = _support(j + 2, (1.0 + nbar) ** 2, nbar, support, cfg)
        ms = np.arange(j, j + support + 1)
        root = np.sqrt(ms + 1.0)
        inner.append(exact_sum(_binomial_weights(j, nbar, ms.size) * root / (j + 1)
                               * np.sin(2.0 * omega_chi * root)))

        h = nbar ** j / (1.0 + nbar) ** (j + 2)
        factor = j + 1 if cfg.variant == "A" else math.sqrt(j + 1)
        alt = exact_sum(sign ** l * math.comb(j, l) * inner[l] for l in range(j + 1))
        return 0.5 * h * factor * alt

    coefficients = _ladder(coefficient, cfg, "oscillatory")
    return _shaped(np.exp(-ts) * _over_waits(coefficients, ts), T)


def thermal_visibility(T, nbar: float, cfg: SeriesConfig | None = None,
                       omega_chi: float = DEFAULT_OMEGA_CHI):
    """Fringe visibility |P_o| / P_c at wait T and bath occupation nbar.

    A negative P_o is a pi-shifted fringe, whose contrast is still |P_o| / P_c
    (as `visibility_from_pattern` reads it off a sampled fringe). T may be a
    scalar or an array of waits, all served by one series build; the result
    has T's shape (a float for a scalar).
    """
    cfg = cfg or SeriesConfig()
    pc = pg_constant(T, nbar, omega_chi, cfg)
    v = np.abs(np.asarray(pg_oscillatory(T, nbar, omega_chi, cfg) / pc))
    above = v[v > 1.0 + 1e-6]
    if above.size:
        warnings.warn(f"visibility {above[0]:.6g} clipped to 1", stacklevel=2)
    return _shaped(np.minimum(v, 1.0).reshape(-1), T)


@dataclass(frozen=True)
class VariantSelection:
    """Outcome of arbitrating the series variants against the oracle."""

    winner: str
    deviations: dict  # variant -> tuple of (T, nbar, series_v, oracle_v)

    def total_deviation(self, variant: str) -> float:
        return sum(abs(s - o) for (_, _, s, o) in self.deviations[variant])


def select_variant(cfg: SeriesConfig | None = None,
                   oracle=None) -> VariantSelection:
    """Pick the oscillatory-factor variant that tracks the integrator oracle.

    Evaluates the visibility under both variants across SELECTION_GRID and
    returns the one with the smaller total absolute deviation. Each nbar of
    the grid costs one oracle call and one series build per variant, each
    serving all of that nbar's waits; `oracle(ts, nbar)` takes an array of
    waits, as `open_system.master_visibility` does. Raises
    InconclusiveSelection when both variants miss by more than 0.05 at every
    grid point, which would signal a transcription problem deeper than the
    factor ambiguity. The losing variant stays available through SeriesConfig.
    """
    cfg = cfg or SeriesConfig()
    if oracle is None:
        from .open_system import master_visibility
        oracle = master_visibility
    points = {}
    for nbar in dict.fromkeys(nb for _, nb in SELECTION_GRID):
        ts = np.array([T for T, nb in SELECTION_GRID if nb == nbar])
        oracle_vals = np.asarray(oracle(ts, nbar)).tolist()
        for variant in ("A", "B"):
            series = thermal_visibility(ts, nbar, replace(cfg, variant=variant))
            for T, v, o in zip(ts.tolist(), series.tolist(), oracle_vals):
                points[variant, T, nbar] = (T, nbar, v, o)
    deviations = {variant: tuple(points[variant, T, nb] for T, nb in SELECTION_GRID)
                  for variant in ("A", "B")}
    if all(abs(s - o) > 0.05 for rows in deviations.values() for (_, _, s, o) in rows):
        raise InconclusiveSelection(
            "both oscillatory variants deviate from the oracle by > 0.05 at "
            "every grid point; check the transcription before trusting either"
        )
    winner = min(("A", "B"), key=VariantSelection("", deviations).total_deviation)
    return VariantSelection(winner=winner, deviations=deviations)
