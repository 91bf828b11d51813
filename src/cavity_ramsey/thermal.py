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
nbar and serves a whole array of waits; one loop builds both parts'
coefficients (`_ladders`). The inner m-sums depend only on (nbar, l) and are
computed once per build, each stopped at the smallest support whose
negative-binomial tail certifies the discarded mass below term_tol. The
tails of rung l have l+1 successes (constant ladder) or l+2 (oscillatory),
success probability 1/(1+nbar), and the binomial form of the
negative-binomial cdf ties each to the last:

    P[NB(s+1) > K] = P[NB(s) > K] + nbar P[NB(s+1) = K].

So each ladder carries its tail from rung to rung (`_carry`) in a few float
steps, one per term its support moves, every step rounded up, so the carried
tail is never below the exact one; over 60 rungs it stays within 1e-11 of it
for nbar in [0.01, 0.95] and term_tol down to 1e-300. The first rung is the
geometric law, whose tail above K is q^{K+1}, q = nbar/(1+nbar), in closed
form: `_first_rung` steps K up from 0 until that tail, as a carried tail,
holds the certificate `_carry` checks, so one test finds every support.
Each ladder stops after 3 consecutive coefficients below term_tol. Every sum
is an exactly rounded `math.fsum` (or `summation.exact_sum`) of a plain list,
so no sum makes a numpy scalar per term.

Two transcription ambiguities in the oscillatory series are handled
explicitly rather than guessed:

* the per-term factor is either (j+1)*sqrt(m+1)/(l+1) (variant A) or
  sqrt((j+1)*(m+1))/(l+1) (variant B) depending on how far the square root
  extends; both are implemented, SeriesConfig.variant picks one, and A is
  the default because it is the one the master-equation oracle confirms;
* the inner sign factor is transcribed as (-nbar)^{+l}, whereas the constant
  parts carry (-nbar)^{-l}. The package follows the constant parts'
  convention, which the oracle confirms to machine precision (variant A with
  that sign reproduces the integrator to ~1e-12, so the +l exponent is a
  transcription slip); the tests keep the printed reading, to show that it
  misses the oracle.

All inner sums are folded so nbar^{-l} never appears on its own: the m-sum
starts at m = l and nbar^{m-l} stays bounded, which keeps small nbar
well-conditioned. nbar < 1 is required for convergence.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure
from .fock import rounding_bound
from .jc import DEFAULT_OMEGA_CHI
from .summation import exact_sum

# caps on the ladder length and on an inner sum's support
J_MAX = 256
M_MAX = 4096
# raises a result past six units of rounding (u = eps / 2) in it and its
# operands, and past its own: (1 - u)^7 (1 + 8u) > 1
_UP = 1.0 + 4.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation threshold and the oscillatory-factor variant."""

    term_tol: float = 1e-12
    variant: str = "A"

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


def _tail(p: float, ratio: float, size: float) -> float:
    """Certified tail above K, over tol, of a carried tail (K, p, ratio, size)."""
    return p * (1.0 + ratio) * (1.0 + rounding_bound(size, 1))


def _first_rung(scale: float, nbar: float, cfg: SeriesConfig
                ) -> tuple[int, float, float, float]:
    """The carried tail of the geometric law NegBinom(1, 1/(1+nbar)) at its support.

    A carried tail is (K, p, R, size), for the tolerance tol = cfg.term_tol /
    scale: K is the support, p is P[NegBinom = K+1] / tol, within
    `fock.rounding_bound`(size, 0) of it, and R >= P[NegBinom > K+1] /
    P[NegBinom = K+1], so the tail above K is at most tol p (1 + R) (`_tail`).
    Kept in units of tol, p stays in the normal range for every term_tol.
    The geometric law has R = nbar exactly and p = q^{K+1} / (1+nbar) / tol,
    q = nbar/(1+nbar), taken here in two halves so that no factor leaves the
    normal range; q's rounding counts as one step per power. K is the
    smallest support >= 0 whose certified tail holds tol, the certificate
    `_carry` uses on every later rung; ConvergenceFailure once K reaches M_MAX,
    and ValueError for an nbar that is not finite and > 0.
    """
    if not 0.0 < nbar < math.inf:
        raise ValueError(f"negative-binomial nbar must be finite and > 0, got {nbar}")
    q, tol, K = nbar / (1.0 + nbar), cfg.term_tol / scale, 0
    while True:
        half = (K + 1) // 2
        p = q ** half / tol * q ** (K + 1 - half) / (1.0 + nbar)
        if _tail(p, nbar, K + 5.0) <= 1.0:
            return K, p, nbar, K + 5.0
        K += 1
        if K >= M_MAX:
            raise ConvergenceFailure(f"inner sum needs more than M_MAX={M_MAX} terms "
                                     f"to reach {cfg.term_tol:.1e}")


def _carry(successes: int, nbar: float, last: tuple[int, float, float, float],
           cfg: SeriesConfig) -> tuple[int, float, float, float]:
    """The carried tail of NegBinom(successes), moved from last, that of successes - 1.

    With s = successes - 1 and x = K + 1, the binomial form of the
    negative-binomial cdf gives

        P[NB(s+1) = x] = P[NB(s) = x] (x+s) / (s (1+nbar)),
        P[NB(s+1) > x] = P[NB(s) > x] + nbar P[NB(s+1) = x],

    so p' = p / f and R' = R f + nbar with f = s (1+nbar) / (x+s). Then,
    while the certified tail (`_tail`) is above tol, K moves up by one:
    P[NB = x+1] = rho P[NB = x] with rho = q (x + successes) / (x + 1), and
    P[NB > x+1] = P[NB > x] - P[NB = x+1], so p' = rho p and R' = R / rho - 1.
    That step cancels: R' keeps only rho times R's relative accuracy. But R
    enters the tail above K only through 1 + R, in which its share is about
    rho, so the tail keeps its accuracy; that is why the state is kept one
    term past K. Each new R is raised by _UP past its roundings, so it stays
    an upper bound, and each product adds one step to p's bound. Returns the
    smallest K >= last's support whose certified tail holds tol;
    ConvergenceFailure once K reaches M_MAX.
    """
    K, p, ratio, size = last
    K, s = float(K), successes - 1.0
    f = s * (1.0 + nbar) / (K + 1.0 + s)
    p /= f
    ratio = (ratio * f + nbar) * _UP
    size += 1.0
    q = nbar / (1.0 + nbar)
    while _tail(p, ratio, size) > 1.0:
        rho = q * (K + 1.0 + successes) / (K + 2.0)
        p *= rho
        ratio = (ratio / rho * _UP - 1.0) * _UP
        size += 1.0
        K += 1.0
        if K >= M_MAX:
            raise ConvergenceFailure(f"inner sum needs more than M_MAX={M_MAX} terms "
                                     f"to reach {cfg.term_tol:.1e}")
    return int(K), p, ratio, size


def _over_waits(coefficients: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """sum_j e^{-2jT} coefficients[j] for every T, each sum exactly rounded."""
    decay = np.exp(np.multiply.outer(ts, -2.0 * np.arange(coefficients.size)))
    return np.array([exact_sum(row) for row in (decay * coefficients).tolist()])


def _ladders(nbar: float, omega_chi: float, cfg: SeriesConfig) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients a_j of P_c and b_j of P_o, both built in one loop over j.

    They are the ladder terms at T = 0; e^{-2jT} <= 1 only shrinks them, so
    these are the longest ladders any wait needs. Each ladder runs until 3 of
    its coefficients in a row fall below term_tol, and ConvergenceFailure,
    naming the constant ladder if both are still running, is raised when
    J_MAX are not enough; a caller that wants one part still builds both, and
    can meet the other's error. At each j every running ladder stops its
    inner sums over m at its own support, the constant ladder's first: each
    carries its certified tail from the last rung (`_carry`, by
    P[NB(s+1) > K] = P[NB(s) > K] + nbar P[NB(s+1) = K]), from the geometric
    law's at j = 0 (`_first_rung`). One weights array of the longer length
    serves both: a cumulative product's prefix has the same bits at any
    length. sqrt(m+1) and its trigonometry come from arrays built once per
    call, grown as j moves up. The ambiguous per-term factor of b_j follows
    cfg.variant, and its alternating sum carries the constant parts' (-1)^l
    (see the module docstring).
    """
    a, b, c3, c4, inner = [], [], [], [], []
    # per i: (-(1+nbar))^{-i} and cos^2(omega_chi sqrt(i))
    mixer_powers, mixer_cos2 = [], []
    below_a = below_b = 0
    binom, roots = [], np.empty(0)
    # the inner sums for l = j: each term of the constant ladder's is <=
    # (1+nbar) NegBinom(m-l; l+1), and as sqrt(m+1) <= m+1 and (m+1) C(m,l)
    # = (l+1) C(m+1,l+1), each of the oscillatory's is <= (1+nbar)^2
    # NegBinom(m-l; l+2). Both tails start from the geometric law
    tail_a = _first_rung(1.0 + nbar, nbar, cfg)
    tail_b = _carry(2, nbar, _first_rung((1.0 + nbar) ** 2, nbar, cfg), cfg)
    for j in range(J_MAX):
        if below_a == 3 and below_b == 3:
            break
        binom = [1, *[x + y for x, y in zip(binom, binom[1:])], 1] if j else [1]
        row = [float(c) for c in binom]  # C(j, l), each rounded once
        signed = [-c if l & 1 else c for l, c in enumerate(row)]  # (-1)^l C(j, l)
        if j and below_a < 3:
            tail_a = _carry(j + 1, nbar, tail_a, cfg)
        if j and below_b < 3:
            tail_b = _carry(j + 2, nbar, tail_b, cfg)
        size = max(tail_a[0] + 2, tail_b[0] + 1)
        w = _binomial_weights(j, nbar, size)
        if roots.size < j + size:
            roots = np.sqrt(np.arange(1.0, 2.0 * (j + size) + 1.0))  # sqrt(m+1)
            sin2, cos2 = np.sin(omega_chi * roots) ** 2, np.cos(omega_chi * roots) ** 2
            sin_twice = np.sin(2.0 * omega_chi * roots)

        if below_a < 3:
            n = tail_a[0] + 1
            c3.append(math.fsum((w[:n] * sin2[j:j + n]).tolist()))
            c4.append(math.fsum((w[1:n + 1] * cos2[j:j + n]).tolist()))
            mixer_powers.append((-(1.0 + nbar)) ** (-j))
            mixer_cos2.append(math.cos(omega_chi * math.sqrt(j)) ** 2)
            # (nbar^j - j nbar^{j-1}) / (1+nbar)^{j+1}, the j = 0 derivative zero
            g = (nbar ** j - (j * nbar ** (j - 1) if j else 0.0)) / (1.0 + nbar) ** (j + 1)
            h = nbar ** j / (1.0 + nbar) ** (j + 1)
            mixers = math.fsum([p * c * m for p, c, m in zip(
                mixer_powers[1:], row[1:], mixer_cos2[1:])])  # i = 1, ..., j
            alt3 = math.fsum([s * c for s, c in zip(signed, c3)])
            alt4 = math.fsum([s * c for s, c in zip(signed, c4)])
            a.append(math.fsum((0.5 * g, 0.5 * g * mixers, 0.5 * h * alt3,
                                0.5 * g * alt4)))
            below_a = below_a + 1 if abs(a[-1]) < cfg.term_tol else 0

        if below_b < 3:
            n = tail_b[0] + 1
            inner.append(math.fsum((w[:n] * roots[j:j + n] / (j + 1)
                                    * sin_twice[j:j + n]).tolist()))
            h = nbar ** j / (1.0 + nbar) ** (j + 2)
            alt = math.fsum([s * x for s, x in zip(signed, inner)])
            b.append(0.5 * h * (j + 1 if cfg.variant == "A" else math.sqrt(j + 1)) * alt)
            below_b = below_b + 1 if abs(b[-1]) < cfg.term_tol else 0
    if below_a < 3 or below_b < 3:
        raise ConvergenceFailure(f"{'constant' if below_a < 3 else 'oscillatory'} ladder "
                                 f"hit its cap before reaching {cfg.term_tol:.1e}")
    return np.array(a), np.array(b)


def pg_constant(T, nbar: float, omega_chi: float = DEFAULT_OMEGA_CHI,
                cfg: SeriesConfig | None = None):
    """Constant (phi-independent) part of the detection probability.

    Sum of four nested series over the doublet ladder, built once as
    coefficients a_j with P_c(T) = sum_j e^{-2jT} a_j (`_ladders`, which
    builds b_j alongside and can raise ConvergenceFailure for either). T
    may be a scalar or an array; the result has T's shape (a float for a
    scalar).
    """
    ts = _waits(T, nbar, omega_chi)
    a = _ladders(nbar, omega_chi, cfg or SeriesConfig())[0]
    return _shaped(_over_waits(a, ts), T)


def pg_oscillatory(T, nbar: float, omega_chi: float = DEFAULT_OMEGA_CHI,
                   cfg: SeriesConfig | None = None):
    """Oscillatory amplitude of the detection probability.

    Built once as coefficients b_j with P_o(T) = e^{-T} sum_j e^{-2jT} b_j
    (`_ladders`, alongside a_j, as for `pg_constant`); T may be a scalar or
    an array.
    """
    ts = _waits(T, nbar, omega_chi)
    b = _ladders(nbar, omega_chi, cfg or SeriesConfig())[1]
    return _shaped(np.exp(-ts) * _over_waits(b, ts), T)


def thermal_visibility(T, nbar: float, cfg: SeriesConfig | None = None,
                       omega_chi: float = DEFAULT_OMEGA_CHI):
    """Fringe visibility |P_o| / P_c at wait T and bath occupation nbar.

    The fringe is P_c + P_o sin(phi), so this is the |c1| / c0 of every
    fringe (`interferometry.sinusoid_fringe`); a negative P_o is a
    pi-shifted fringe of the same contrast. T may be a scalar or an array of
    waits, all served by one series build of both parts; the result has T's
    shape (a float for a scalar).
    """
    ts = _waits(T, nbar, omega_chi)
    a, b = _ladders(nbar, omega_chi, cfg or SeriesConfig())
    v = np.abs(np.exp(-ts) * _over_waits(b, ts) / _over_waits(a, ts))
    above = v[v > 1.0 + 1e-6]
    if above.size:
        warnings.warn(f"visibility {above[0]:.6g} clipped to 1", stacklevel=2)
    return _shaped(np.minimum(v, 1.0), T)
