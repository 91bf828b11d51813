"""Truncated Fock-space linear algebra for a two-level atom coupled to one cavity mode.

Conventions used everywhere in this package:

* atomic basis order is (g, e), i.e. index 0 = ground, 1 = excited, so a 2x2
  atomic density array has the ground-state population in the top-left entry;
* a pure joint state is a (2, n_levels) amplitude array, atom on axis 0; its
  atom-major flattening puts |a, n> at a*(n_max+1) + n, which keeps each
  doublet {|g, n+1>, |e, n>} at a fixed stride;
* a pure field state is an amplitude array, photon number on the last axis,
  and a field density an (n_levels, n_levels) array.

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
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must be in (0, 1), got {self.tail_tol}")

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

    The tail falls with n, so the cutoff is found by bisection. Raises
    TailTooLarge when even MAX_WIDENED_N_MAX would discard tol or more.
    """
    hi = max(lo, MAX_WIDENED_N_MAX)
    if poisson_tail(mean, hi) >= tol:
        raise TailTooLarge(
            f"Poisson mean {mean:.4g} needs a cutoff above {hi} to discard "
            f"less than {tol:.3e}"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if poisson_tail(mean, mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


@dataclass(frozen=True)
class JointDensity:
    """Density operator of atom (x) field, atom-major index order."""

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        d = mat.shape[0]
        if mat.ndim != 2 or mat.shape != (d, d) or d % 2 != 0 or d < 4:
            raise ValueError("JointDensity must be square with even dimension >= 4")

    @property
    def n_levels(self) -> int:
        return self.mat.shape[0] // 2

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def blocks(self) -> np.ndarray:
        """View as (2, n_levels, 2, n_levels) for (atom, photon) indexing."""
        L = self.n_levels
        return self.mat.reshape(2, L, 2, L)


# --- diagnostics used by tests and by the self-check CLI ---------------------

def hermiticity_defect(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat - mat.conj().T)))


def min_eigenvalue(mat: np.ndarray) -> float:
    h = 0.5 * (mat + mat.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def assert_physical_density(mat: np.ndarray, *, herm_tol: float = 1e-10,
                            trace_tol: float = 1e-9, eig_floor: float = -1e-8) -> None:
    """Raise AssertionError unless mat is Hermitian, unit-trace and PSD within tolerance."""
    assert hermiticity_defect(mat) < herm_tol, "density not Hermitian"
    assert abs(np.trace(mat).real - 1.0) < trace_tol, "density trace != 1"
    assert min_eigenvalue(mat) > eig_floor, "density not positive semidefinite"


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


def upper_tail_sum(first: float, x: int, a: float, b: float) -> tuple[float, int]:
    """sum_{i >= x} t_i for t_x = first and t_{i+1} = t_i (a i + b) / (i + 1).

    The ratio (a i + b) / (i + 1) must be below 1 at i = x and fall from
    there, as it does past the mode of a Poisson (a = 0, b = mean) or a
    negative binomial (a = q, b = q * successes). The terms are added until
    the geometric bound on the rest, which every later ratio keeps, is at
    most TAIL_SUM_TOL of the sum; the bound is added too, so up to rounding
    the result is never below the exact tail. Returns it and the number of
    terms added.
    """
    term, total, i = first, 0.0, x
    while True:
        total += term
        ratio = (a * i + b) / (i + 1)  # above every later ratio
        i += 1
        term *= ratio
        rest = term / (1.0 - ratio)
        if not rest > TAIL_SUM_TOL * total:  # NaN stops too
            return total + rest, i - x


def poisson_tail(mean: float, n_max: int) -> float:
    """Probability mass of a Poisson(mean) above n_max, as a certified upper bound.

    Past the mode (n_max + 1 > mean) the discarded terms are summed directly
    by `upper_tail_sum`, from a first term in the saddle-point form of
    `bd0`, and the sum is raised by its `rounding_bound`, so it never falls
    below the exact tail. Below the mode the tail is at least about 1/2 and
    is 1 - head, the head summed downward from n_max and lowered by its
    rounding bound. A tail whose first term underflows comes back as 0.
    Raises ValueError for a NaN, infinite or negative mean.
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
    y, size = _poisson_log_pmf(n_max + 1, mean)
    first = math.exp(y)
    if first == 0.0:  # the tail underflows
        return 0.0
    tail, steps = upper_tail_sum(first, n_max + 1, 0.0, mean)
    return tail * (1.0 + rounding_bound(size, steps))


# --- state constructors -------------------------------------------------------

def photon_means(alphas: np.ndarray) -> np.ndarray:
    """|alpha|^2 for each entry of a 1-d array.

    Python's abs and ** are used, one entry at a time: numpy's complex
    absolute value and its x*x square round differently in the last bit for
    some alpha, and every pulse area and amplitude is pinned to these means.
    """
    return np.array([abs(a) ** 2 for a in alphas.tolist()], dtype=float)


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
    mags = [abs(a) for a in alphas.tolist()]
    mean = np.array([m ** 2 for m in mags], dtype=float)  # photon_means' bits
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
    # math.log, like photon_means, keeps each row's last bits fixed; the
    # vacuum rows get a placeholder and are overwritten below
    log_abs = np.array([math.log(m) if m else 0.0 for m in mags])
    log_mag = -0.5 * mean[:, None] + n * log_abs[:, None] - 0.5 * np.array(
        [math.lgamma(k + 1) for k in range(trunc.n_levels)]
    )
    phase = np.exp(1j * n * np.angle(alphas)[:, None])
    amps = np.exp(log_mag) * phase
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


def thermal_density(nbar: float, trunc: TruncationConfig | None = None) -> np.ndarray:
    """Thermal (geometric) field density p_n = nbar^n / (1+nbar)^(n+1), renormalized.

    The geometric tail beyond n_max must stay below tail_tol; the kept weights
    are rescaled to unit trace.
    """
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    if trunc is None:
        trunc = TruncationConfig()
    L = trunc.n_levels
    if nbar == 0.0:
        mat = np.zeros((L, L), dtype=complex)
        mat[0, 0] = 1.0
        return mat
    x = nbar / (1.0 + nbar)
    tail = x ** L  # exact geometric remainder
    if tail >= trunc.tail_tol:
        raise TailTooLarge(
            f"thermal state nbar={nbar} discards {tail:.3e} >= tail_tol at n_max={trunc.n_max}"
        )
    p = x ** np.arange(L) / (1.0 + nbar)
    p = p / p.sum()
    return np.diag(p).astype(complex)


def tensor(atom: np.ndarray, fld: np.ndarray) -> np.ndarray:
    """Product state (atom 2-vector, basis order (g, e)) (x) field amplitudes.

    Returns the (2, n_levels) joint amplitude array.
    """
    atom = np.asarray(atom, dtype=complex).reshape(2)
    if not np.all(np.isfinite(atom)) or not np.all(np.isfinite(fld)):
        raise ValueError("tensor inputs must be finite")
    return np.outer(atom, fld)


def pure_density(amps: np.ndarray) -> JointDensity:
    """|psi><psi| of a (2, n_levels) joint amplitude array, atom-major."""
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[0] != 2:
        raise ValueError("joint amplitudes must have shape (2, n_levels)")
    v = amps.reshape(-1)
    return JointDensity(np.outer(v, v.conj()))


def partial_trace_field(rho: JointDensity) -> np.ndarray:
    """Trace out the field: the 2x2 atomic density sum_n <a, n| rho |a', n>.

    The atomic trace equals the joint trace exactly (it is the same sum of
    diagonal entries, just regrouped).
    """
    return np.einsum("anbn->ab", rho.blocks())
