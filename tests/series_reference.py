"""The finite-temperature series as two separate ladders, for the tests only.

Verbatim copies of an earlier `thermal` and `fock`: each part built its own
ladder (`_ladder`, one `coefficient` closure per part), every inner sum went
through `exact_sum` on a numpy array, and the tail walks counted with ints.
`thermal._ladders` builds both parts in one loop and must give the same bits;
the tests compare the two. `_negbin_log_pmf`, `_poisson_log_pmf`, `_support`,
`_over_waits` and `_ladder_weight` are copied as well, so that no call below
reaches the package's tail walks or a helper that has changed since; the
helpers imported from the package are unchanged. `_support` and the generic
`upper_tail` / `tail_cutoff` are also the fresh negative-binomial walk that
the package's certified inner supports are checked against.

The oscillatory part also keeps the printed reading of its inner sign,
(-nbar)^{+l} (`printed=True`), which the package does not offer: the tests
use it to show that this reading misses the oracle.
"""

import math
import warnings

import numpy as np

from cavity_ramsey.errors import ConvergenceFailure
from cavity_ramsey.fock import TAIL_SUM_TOL, rounding_bound, stirlerr
from cavity_ramsey.jc import DEFAULT_OMEGA_CHI
from cavity_ramsey.summation import exact_sum
from cavity_ramsey.thermal import (
    J_MAX,
    M_MAX,
    SeriesConfig,
    _binomial_weights,
    _shaped,
    _waits,
)


# --- fock ---------------------------------------------------------------------

def bd0(x: float, m: float) -> float:
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
    if k == 0:
        return -mean, mean
    y = -stirlerr(k) - bd0(k, mean) - 0.5 * math.log(2.0 * math.pi * k)
    return y, k + mean + abs(y) + 16.0


def upper_tail(log_pmf, x: int, a: float, b: float) -> tuple[float, float]:
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


# --- thermal ------------------------------------------------------------------

def _negbin_log_pmf(x: int, successes: int, nbar: float) -> tuple[float, float]:
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
    out, below = [], 0
    for j in range(J_MAX):
        out.append(coefficient(j))
        below = below + 1 if abs(out[-1]) < cfg.term_tol else 0
        if below == 3:
            return np.array(out)
    raise ConvergenceFailure(f"{label} ladder hit its cap before reaching "
                             f"{cfg.term_tol:.1e}")


def _over_waits(coefficients: np.ndarray, ts: np.ndarray) -> np.ndarray:
    decay = np.exp(np.multiply.outer(ts, -2.0 * np.arange(coefficients.size)))
    return np.array([exact_sum(row) for row in decay * coefficients])


def _ladder_weight(j: int, nbar: float) -> float:
    lead = nbar ** j
    deriv = j * nbar ** (j - 1) if j > 0 else 0.0
    return (lead - deriv) / (1.0 + nbar) ** (j + 1)


def pg_constant(T, nbar: float, omega_chi: float = DEFAULT_OMEGA_CHI,
                cfg: SeriesConfig | None = None):
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
                   cfg: SeriesConfig | None = None, printed: bool = False):
    ts = _waits(T, nbar, omega_chi)
    cfg = cfg or SeriesConfig()
    # the printed reading's inner sum is nbar^l times the folded one, and it
    # carries (-nbar)^l outside in place of (-1)^l
    sign = -nbar * nbar if printed else -1.0
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
                       omega_chi: float = DEFAULT_OMEGA_CHI, printed: bool = False):
    cfg = cfg or SeriesConfig()
    pc = pg_constant(T, nbar, omega_chi, cfg)
    v = np.abs(np.asarray(pg_oscillatory(T, nbar, omega_chi, cfg, printed) / pc))
    above = v[v > 1.0 + 1e-6]
    if above.size:
        warnings.warn(f"visibility {above[0]:.6g} clipped to 1", stacklevel=2)
    return _shaped(np.minimum(v, 1.0).reshape(-1), T)
