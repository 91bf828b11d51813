"""Truncated Fock-space linear algebra for a two-level atom coupled to one cavity mode.

Conventions used everywhere in this package:

* atomic basis order is (g, e), i.e. index 0 = ground, 1 = excited, so a 2x2
  atomic density array has the ground-state population in the top-left entry;
* a pure joint state is a (2, n_levels) amplitude array, atom on axis 0; its
  atom-major flattening puts |a, n> at a*(n_max+1) + n, which keeps each
  doublet {|g, n+1>, |e, n>} at a fixed stride;
* a joint density is a (2L, 2L) complex array, L = n_levels, in the same
  atom-major order, so rho[:L, :L] is its |g><g| block; the package defines
  no state class;
* a pure field state is an amplitude array, photon number on the last axis.

All operations are pure functions on arrays and immutable value objects;
nothing in this module holds shared mutable state.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import TailTooLarge

G, E = 0, 1

DEFAULT_N_MAX = 60
DEFAULT_TAIL_TOL = 1e-10
# widening never goes past this cutoff; a mean that needs more is refused
MAX_WIDENED_N_MAX = 100_000
# a tail's direct sum stops once its geometric remainder is this share of it
TAIL_SUM_TOL = 1e-17
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class TruncationConfig:
    """Highest retained Fock level and the admissible discarded probability."""

    n_max: int = DEFAULT_N_MAX
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        # a larger cutoff is never widened to, and its rows would fill memory
        if not 1 <= self.n_max <= MAX_WIDENED_N_MAX:
            raise ValueError(f"n_max must be in [1, {MAX_WIDENED_N_MAX}], got {self.n_max}")
        # below the smallest normal float a tail's terms keep only a few bits,
        # and `poisson_cutoff`'s walk and `poisson_tail` part ways
        if not sys.float_info.min <= self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must be a normal float below 1, got {self.tail_tol}")

    @property
    def n_levels(self) -> int:
        return self.n_max + 1


def default_truncation(alpha: complex = 0.0,
                       tail_tol: float = DEFAULT_TAIL_TOL) -> TruncationConfig:
    """Default truncation, widened automatically for large coherent amplitudes.

    Where the stock n_max=60 would clip the Poissonian tail of |alpha|^2, the
    cutoff is raised (with a warning) by `widened_truncation`.
    """
    mean = abs(alpha) ** 2
    trunc = widened_truncation(mean, TruncationConfig(tail_tol=tail_tol))
    if trunc.n_max > DEFAULT_N_MAX:
        warnings.warn(
            f"mean photon number {mean:.3g}: raising n_max to {trunc.n_max}",
            stacklevel=2,
        )
    return trunc


def widened_truncation(mean: float, trunc: TruncationConfig) -> TruncationConfig:
    """trunc with the smallest n_max >= trunc.n_max whose Poisson(mean) tail < tail_tol.

    Raises TailTooLarge when even MAX_WIDENED_N_MAX levels would discard
    tail_tol (see `poisson_cutoff`).
    """
    return replace(trunc, n_max=poisson_cutoff(mean, trunc.tail_tol, trunc.n_max))


def poisson_cutoff(mean: float, tol: float, lo: int = 0) -> int:
    """Smallest n >= lo whose Poisson(mean) tail above n is below tol.

    Found by `tail_cutoff`'s walk. Raises TailTooLarge when even
    max(lo, MAX_WIDENED_N_MAX) would discard tol or more.
    """
    hi = max(lo, MAX_WIDENED_N_MAX)
    if poisson_tail(mean, hi) >= tol:
        raise TailTooLarge(
            f"Poisson mean {mean:.4g} needs a cutoff above {hi} to discard "
            f"less than {tol:.3e}"
        )
    if mean == 0.0:
        return lo
    # the tail is below tol where it is at most the float just below tol
    return tail_cutoff(lambda k: _poisson_log_pmf(k, mean), 0.0, mean, lo,
                       math.nextafter(tol, 0.0), hi)


# --- Poisson tails ------------------------------------------------------------

def stirlerr(n: int) -> float:
    """ln n! - ln(sqrt(2 pi n) (n/e)^n), the error of Stirling's formula, n >= 1.

    From the asymptotic series past n = 15, where five terms reach rounding;
    below, from math.lgamma, where the values are small enough that the
    cancellation costs under 1e-14 in absolute terms.
    """
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _HALF_LOG_2PI
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn)
                      / nn) / nn) / n


def bd0(x: float, m: float) -> float:
    """x ln(x/m) + m - x (>= 0), by a series near x = m where it would cancel.

    Together with `stirlerr`, this is the saddle-point form of the Poisson
    and binomial probabilities (Loader 2000): ln P[Poisson(m) = k] =
    -stirlerr(k) - bd0(k, m) - ln(2 pi k)/2, with no large terms cancelling.
    """
    if abs(x - m) < 0.1 * (x + m):
        v = (x - m) / (x + m)
        s, term, v2, j = (x - m) * v, 2.0 * x * v, v * v, 1
        while True:
            term *= v2
            j += 2
            nxt = s + term / j
            if nxt == s:
                return s
            s = nxt
    return x * math.log(x / m) + m - x


def _poisson_log_pmf(k: int, mean: float) -> tuple[float, float]:
    """ln P[Poisson(mean) = k], and the size of its inputs for `rounding_bound`."""
    if k == 0:
        return -mean, mean
    y = -stirlerr(k) - bd0(k, mean) - 0.5 * math.log(2.0 * math.pi * k)
    return y, k + mean + abs(y) + 16.0


def rounding_bound(size: float, steps: int) -> float:
    """Bound on the relative rounding error of a tail summed from one log-pmf.

    The log-pmf is off by a few units in the last place of `size`, the sum of
    the magnitudes that enter it, and each of the `steps` recurrence steps
    and additions after it adds at most two more; eight units per unit of
    size and step leave a factor of two or more to spare.
    """
    return 8.0 * sys.float_info.epsilon * (size + steps)


def upper_tail(log_pmf, x: int, a: float, b: float) -> tuple[float, float]:
    """Upper bounds on sum_{i >= x} p_i and on p_x, for ln p_i = log_pmf(i)[0].

    log_pmf(i) returns ln p_i and the size of its inputs for `rounding_bound`.
    The terms follow p_{i+1} = p_i (a i + b) / (i + 1), whose ratio must be
    below 1 at i = x and fall from there, as it does past the mode of a
    Poisson (a = 0, b = mean) or a negative binomial (a = q, b = q *
    successes). From p_x, in whatever saddle-point form log_pmf uses, the
    terms are added until the geometric bound on the rest, which every later
    ratio keeps, is at most TAIL_SUM_TOL of the sum; the bound is added too,
    and both results are raised by their `rounding_bound`, so neither is
    below the exact value. A tail whose first term underflows comes back as 0.
    """
    y, size = log_pmf(x)
    first = math.exp(y)
    if first == 0.0:  # the tail underflows
        return 0.0, 0.0
    term, total, i = first, 0.0, x
    while True:
        total += term
        ratio = (a * i + b) / (i + 1)  # above every later ratio
        i += 1
        term *= ratio
        rest = term / (1.0 - ratio)
        if not rest > TAIL_SUM_TOL * total:  # NaN stops too
            up = 1.0 + rounding_bound(size, i - x)
            return (total + rest) * up, first * up


def tail_cutoff(log_pmf, a: float, b: float, start: int, tol: float, cap: int) -> int:
    """Smallest K >= start whose certified tail sum_{x > K} p_x is at most tol.

    p, log_pmf, a and b are as for `upper_tail`; a < 1, and the ratio
    (a x + b) / (x + 1) is below 1 past the mode floor((b - a) / (1 - a)).
    The search walks up from past the mode, term by term, to the first x
    whose one-term geometric bound already holds the tail below tol / 2, or
    to x = cap + 1; there `upper_tail` gives the tail itself, which then
    grows by one term per step back down, tail(K - 1) = tail(K) + p_K, to
    the smallest K that still holds it. Every tail compared is an upper
    bound, so the cutoff is certified, except that a K >= cap left where
    the walk stopped may not hold tol: callers refuse it or have checked
    the tail at cap first.
    """
    x = max(start, math.floor((b - a) / (1.0 - a))) + 1
    term = math.exp(log_pmf(x)[0])
    while x <= cap:
        ratio = (a * x + b) / (x + 1)
        if term / (1.0 - ratio) <= 0.5 * tol:  # bounds the tail above x - 1
            break
        term *= ratio
        x += 1
    K = x - 1
    tail, term = upper_tail(log_pmf, x, a, b)
    slack = 1.0 + rounding_bound(0.0, K - start)
    while K > start and term > 0.0:  # an underflowed p_{K+1} gives no p_K
        term *= (K + 1) / (a * K + b)  # p_K from p_{K+1}
        if (tail + term) * slack > tol:
            break
        tail += term
        K -= 1
    return K


def poisson_tail(mean: float, n_max: int) -> float:
    """Probability mass of a Poisson(mean) above n_max, as a certified upper bound.

    Past the mode (n_max + 1 > mean) it is the `upper_tail` of the
    discarded terms, from a first term in the saddle-point form of `bd0`.
    Below the mode the tail is at least about 1/2 and is 1 - head, the head
    summed downward from n_max and lowered by its rounding bound. Raises
    ValueError for a NaN, infinite or negative mean.
    """
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"Poisson mean must be finite and >= 0, got {mean}")
    mean = float(mean)  # Python floats overflow to inf without a warning
    if n_max < 0:
        return 1.0
    if mean == 0.0:
        return 0.0
    if n_max + 1 <= mean:
        y, size = _poisson_log_pmf(n_max, mean)
        term, head, k = math.exp(y), 0.0, n_max
        if term == 0.0:  # the head underflows
            return 1.0
        while k >= 0 and term > TAIL_SUM_TOL * head:
            head += term
            term *= k / mean
            k -= 1
        return 1.0 - head * (1.0 - rounding_bound(size, n_max - k))
    return upper_tail(lambda k: _poisson_log_pmf(k, mean), n_max + 1, 0.0, mean)[0]


# --- state constructors -------------------------------------------------------

def coherent_amplitudes(alphas: np.ndarray, trunc: TruncationConfig) -> np.ndarray:
    """Truncated coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!), one row per alpha.

    `alphas` is a 1-d array of K amplitudes; the result has shape
    (K, n_levels). Factorials are evaluated in the log domain so the
    construction stays stable well past n ~ 170. Raises TailTooLarge, naming
    the first offending alpha, when any row would discard tail_tol or more,
    and ValueError, naming it, for a non-finite alpha.
    """
    alphas = np.asarray(alphas)
    if alphas.ndim != 1:
        raise ValueError("coherent_amplitudes takes a 1-d array of alphas")
    # Python's abs and ** one entry at a time: numpy's complex abs and x*x
    # differ from them in the last bit for some alpha, and every pulse area
    # is pinned to these bits
    mags = [abs(a) for a in alphas.tolist()]
    mean = np.array([m ** 2 for m in mags], dtype=float)
    top = float(mean.max(initial=0.0))
    if not math.isfinite(top):
        k = np.flatnonzero(~np.isfinite(mean))[0]
        raise ValueError(f"coherent amplitudes need a finite alpha, got alpha={alphas[k]}")
    # the tail rises with the mean, so the largest mean clears every row;
    # the rows are checked one by one only to name the first that fails
    if poisson_tail(top, trunc.n_max) >= trunc.tail_tol:
        for m in mean.tolist():
            tail = poisson_tail(m, trunc.n_max)
            if tail >= trunc.tail_tol:
                raise TailTooLarge(
                    f"coherent state |alpha|^2={m:.4g} discards {tail:.3e} >= "
                    f"tail_tol={trunc.tail_tol:.3e} at n_max={trunc.n_max}"
                )
    n = np.arange(trunc.n_levels)
    # math.log, like abs and ** above, keeps each row's last bits fixed; the
    # vacuum rows get a placeholder and are overwritten below
    log_abs = np.array([math.log(m) if m else 0.0 for m in mags])
    log_mag = -0.5 * mean[:, None] + n * log_abs[:, None] - 0.5 * np.array(
        [math.lgamma(k + 1) for k in range(trunc.n_levels)]
    )
    # the phases, then the magnitudes multiplied in, both in place; the
    # magnitudes stay the left operand, which fixes the sign of each zero
    # that underflows
    amps = 1j * n * np.angle(alphas)[:, None]
    np.exp(amps, out=amps)
    np.multiply(np.exp(log_mag, out=log_mag), amps, out=amps)
    vacuum = np.array(mags) == 0
    amps[vacuum] = 0.0
    amps[vacuum, 0] = 1.0
    return amps


def coherent_state(alpha: complex, trunc: TruncationConfig | None = None) -> np.ndarray:
    """Coherent state |alpha>, truncated: the one-row case of coherent_amplitudes."""
    if trunc is None:
        trunc = default_truncation(alpha)
    return coherent_amplitudes(np.array([alpha]), trunc)[0]


def squared_norms(amps: np.ndarray) -> np.ndarray:
    """<c|c> of each row of amps, from views of its real and imaginary parts."""
    return (np.einsum("...n,...n->...", amps.real, amps.real)
            + np.einsum("...n,...n->...", amps.imag, amps.imag))


def _joint_density(rho) -> np.ndarray:
    """rho as a complex (2L, 2L) joint density array.

    Raises ValueError, before any work, unless rho is square with an even
    dimension >= 4 (L >= 2 field levels per atom block).
    """
    shape = np.shape(rho)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2 or shape[0] < 4:
        raise ValueError("a joint density must be a square array with an even "
                         f"dimension >= 4, got shape {shape}")
    return np.asarray(rho, dtype=complex)
