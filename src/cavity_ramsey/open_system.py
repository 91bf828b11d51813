"""Cavity dissipation: Lindblad generator, exact propagator, closed forms.

The propagator here is the project's ground truth. Everything analytic (the
zero-temperature wait state, the closed-form visibilities, the thermal series
in `thermal`) is checked against it rather than trusted.

Waits are dimensionless, T = k*tau with k = 1/(2 T_cav) the field damping
constant (units with k = 1), and the bath holds nbar thermal photons. During
the wait the atom is Stark-detuned and idle, so only the field factor
dissipates. The coherent part -i[H_f, rho] is dropped (rotating frame): it
commutes with photon loss, and its sole observable effect is a fringe
translation already parametrized by phi.

Every oracle wait starts from the split vacuum state, whose chain
`zero_temp_wait` writes in closed form (its T = 0 case); the tests check it
against the pulse and Stark-phase pipeline that makes the state.

The wait is one three-point stencil (`_stencil`, `_apply`, `_evolve`): it
keeps the photon-number offset m - n and the atom block fixed, so an entry
only meets its (m+1, n+1) and (m-1, n-1) neighbours. The oracle fringe and
the selftest's wait rows run it on the 3L + 1 entries the second pulse reads
(`_chain`, `_wait_chain`); `evolve_master` runs it on a whole flattened
density, to the same bits, and no package path calls it. One
uniformization sweep serves every wait up to the longest, each with its own
Poisson weights, so `master_visibility` takes an array of waits at the cost
of its longest one.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import TruncationConfig, _joint_density, _poisson_log_pmf, poisson_cutoff
from .interferometry import FringePattern, sinusoid_fringe
from .jc import DEFAULT_OMEGA_CHI, check_pulse


# Poisson mass of the uniformization terms a wait drops
SERIES_TAIL_TOL = 1e-16


def _check_nbar(nbar: float) -> None:
    if not 0.0 <= nbar < math.inf:  # also refuses NaN
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")


def _check_wait(T: float) -> None:
    if not 0.0 <= T < math.inf:  # also refuses NaN
        raise ValueError(f"T must be finite and >= 0, got {T}")


def _stencil(n_levels: int, nbar: float):
    """Generator weights (loss, down, up) on one (2L, 2L) joint density.

        D(rho)[m,n] = -loss[m,n] rho[m,n] + down[m,n] rho[m+1,n+1]
                      + up[m,n] rho[m-1,n-1]

    on the field indices (m, n) of every atom block alike, with
    loss = (nbar+1)(m + n) + nbar(aa+[m] + aa+[n]),
    down = 2(nbar+1) sqrt(aa+[m] aa+[n]) and up = 2 nbar sqrt(mn), all per
    unit of T, where the a+a and aa+ diagonals are those of the truncated
    operators (aa+ = 0 on the top level). So down is zero on a block's last
    row and column and up on its first: exactly where a neighbour would
    cross a block edge. Photon-number offsets m - n never mix, and the
    weights are the same in every atom block.
    """
    n = np.arange(n_levels, dtype=float)
    aad = np.append(n[1:], 0.0)
    loss = ((nbar + 1.0) * (n[:, None] + n[None, :])
            + nbar * (aad[:, None] + aad[None, :]))
    down = 2.0 * (nbar + 1.0) * np.sqrt(np.outer(aad, aad))
    up = 2.0 * nbar * np.sqrt(np.outer(n, n))
    return tuple(np.tile(w, (2, 2)) for w in (loss, down, up))


def _apply(x: np.ndarray, diag, down, up, s: int) -> np.ndarray:
    """diag*x plus both hops on a flat x whose (m+1, n+1) neighbour is s entries on."""
    out = diag * x
    out[:-s] += down[:-s] * x[s:]
    out[s:] += up[s:] * x[:-s]
    return out


def _chain(mat: np.ndarray) -> np.ndarray:
    """The 3L + 1 entries of a (2L, 2L) array that the second pulse reads.

    Its diagonal, rho_gg[n,n] then rho_ee[n,n], then its (L-1)-th
    superdiagonal, rho_gg[0,L-1], rho_ge[n+1,n] for n < L-1 and
    rho_ee[0,L-1]. Along it every (m+1, n+1) neighbour is the next entry,
    and the stencil weights between entries of different blocks are zero.
    """
    L = mat.shape[0] // 2
    return np.concatenate([np.diagonal(mat), np.diagonal(mat, L - 1)])


def _poisson_weights(mean: float, terms: int) -> list[float]:
    """Poisson(j; mean) for j = 0 .. terms, none of which can underflow early.

    Anchored at the mode, in the saddle-point form of `fock._poisson_log_pmf`
    (no large terms cancel, where j log(mean) - mean - lgamma(j+1) loses
    5e-13 in l1 at mean 1000), and reached from it by the ratios j/mean going
    down and mean/j going up, so every weight is exact to a few units in the
    last place or is below the smallest float. `mean` is a Python float.
    """
    mode = int(mean)  # at most terms: the cutoff lies past the mode
    w = [0.0] * (terms + 1)
    w[mode] = math.exp(_poisson_log_pmf(mode, mean)[0])
    for j in range(mode, 0, -1):
        w[j - 1] = w[j] * j / mean
    for j in range(mode + 1, terms + 1):
        w[j] = w[j - 1] * mean / j
    return w


def _evolve(x: np.ndarray, weights, s: int, ts) -> list[np.ndarray]:
    """e^{T D} x for every wait T in ts, one row each, by uniformization.

    x is flat with neighbour stride s: a whole flattened density (s = 2L + 1)
    or its `_chain` (s = 1), read alike with its `_stencil` weights, which
    must include the density's diagonal, where the largest loss lies. With
    q = max(loss), P = I + D/q is entrywise non-negative and, since
    2 sqrt(mn) <= m + n, never increases the entrywise l1 norm, and
        e^{T D} x = sum_j Poisson(j; qT) P^j x.
    One sweep applies P once per j and adds P^j x into every wait's row with
    its own weight (`_poisson_weights`), for j = 0 .. J, where J is the
    smallest j whose Poisson(q max(ts)) tail above j is below
    SERIES_TAIL_TOL (`fock.poisson_cutoff`). That tail grows with the mean,
    so J certifies every smaller wait too, and it is a direct sum plus a
    geometric bound on the rest, never below the exact mass dropped. Every
    entry is computed alike whatever else x holds, so a chain propagates to
    the same bits as the same entries of the whole density.
    """
    loss, down, up = weights
    q = float(loss.max())
    means = [q * float(T) for T in ts]
    terms = poisson_cutoff(max(means, default=0.0), SERIES_TAIL_TOL)
    poisson = [_poisson_weights(mean, terms) for mean in means]
    keep, down, up = 1.0 - loss / q, down / q, up / q
    term = x
    rows = [(w[0] * term, w) for w in poisson]
    for j in range(1, terms + 1):
        term = _apply(term, keep, down, up, s)
        for row, w in rows:
            row += w[j] * term
    return [row for row, _ in rows]


def _wait_chain(chain: np.ndarray, nbar: float, ts) -> list[np.ndarray]:
    """The `_chain` of the waited density at every wait in ts, from one sweep."""
    L = (chain.size - 1) // 3
    return _evolve(chain, [_chain(w) for w in _stencil(L, nbar)], 1, ts)


def evolve_master(rho: np.ndarray, T: float, nbar: float) -> np.ndarray:
    """Dissipative wait: rho -> e^{T D} rho for a dimensionless wait T = k*tau.

    rho is a (2L, 2L) joint density array; the result is a new one. The
    atom is untouched (coupling is switched off during the wait). The
    tests check the oracle's chain (`_wait_chain`) against it entry for
    entry. It is exact up to a certified truncation: the uniformized series (`_evolve`)
    drops at most 1e-16 times the entrywise l1 norm of rho, so before
    rounding the result is within 1e-16 * sum|rho_ij| of e^{T D} rho in the
    entrywise l1 norm. Raises ValueError, before any work, for any other
    shape (see `fock._joint_density`) and for a negative, NaN or infinite T
    or nbar.
    """
    rho = _joint_density(rho)
    _check_wait(T)
    _check_nbar(nbar)
    L = rho.shape[0] // 2
    weights = [w.reshape(-1) for w in _stencil(L, nbar)]
    [out] = _evolve(rho.reshape(-1), weights, 2 * L + 1, [T])
    return out.reshape(rho.shape)


# --- zero-temperature closed forms --------------------------------------------

def zero_temp_wait(phi: float, T: float, n_levels: int = 9) -> np.ndarray:
    """Closed-form `_chain` of the joint state after a wait T = k*tau at nbar = 0.

    The wait starts from the split vacuum state
    (|e,0> + e^{i phi} |g,1>)/sqrt(2) that the vacuum pi/2 pulse and a Stark
    phase leave. With the bath at nbar = 0 the system only loses
    excitations, so everything stays inside {|g,0>, |g,1>, |e,0>}:
    populations (1 - e^{-2T})/2, e^{-2T}/2, 1/2, with a |g,1><e,0| coherence
    of magnitude e^{-T}/2 and phase phi. Returns the 3L + 1 entries of the
    chain at L = n_levels, all but those four zero; at T = 0 it is the
    oracle's start chain.
    """
    _check_wait(T)
    chain = np.zeros(3 * n_levels + 1, dtype=complex)
    decay2 = math.exp(-2.0 * T)
    chain[0] = 0.5 * (1.0 - decay2)
    chain[1] = 0.5 * decay2
    chain[n_levels] = 0.5
    chain[2 * n_levels + 1] = 0.5 * math.exp(-T) * np.exp(1j * phi)
    return chain


def _fringe_coefficients(chain: np.ndarray, area: float) -> tuple[float, complex]:
    """(c0, c1) of P_g(phi) = c0 + Re(c1 e^{i phi}) after a pulse of this area.

    chain is the `_chain` of the joint density at phi = 0; phi scales its
    |g><e| block by e^{i phi}. The pulse turns doublet n, {|e,n>, |g,n+1>},
    through theta_n = area sqrt(n+1), so P_g reads only the chain:
        c0 = rho_gg[0] + sum_n (cos^2 theta_n rho_gg[n+1] + sin^2 theta_n rho_ee[n])
        c1 = 2i sum_n cos theta_n sin theta_n rho_ge[n+1,n]
    over n < L-1. |e, n_max> has no partner, so `jc.check_pulse` refuses
    a chain whose rho_ee[L-1] exceeds the leak tolerance.
    """
    L = (chain.size - 1) // 3
    gg, ee, ge = chain[:L].real, chain[L:2 * L].real, chain[2 * L + 1:3 * L]
    check_pulse(float(ee[-1]), area)
    theta = area * np.sqrt(np.arange(1.0, L))
    cos, sin = np.cos(theta), np.sin(theta)
    c0 = gg[0] + np.sum(cos * cos * gg[1:] + sin * sin * ee[:-1])
    return float(c0), complex(2j * np.sum(cos * sin * ge))


def _chain_spectrum(chain: np.ndarray) -> tuple[float, float]:
    """Trace and smallest eigenvalue of the density whose `_chain` this is.

    The density's entries off the chain must be zero, as the wait keeps them
    from a start with none. It is then Hermitian, with the chain as its upper
    triangle, and the direct sum of |g,0>, |e,L-1> and the doublet blocks
    [[rho_gg[n+1], rho_ge[n+1,n]], [rho_ge[n+1,n]*, rho_ee[n]]], whose
    smaller eigenvalue is their mean minus hypot(half their difference,
    |rho_ge[n+1,n]|), provided its diagonal is real and its in-block corners
    rho_gg[0,L-1] and rho_ee[0,L-1] are empty; raises ValueError otherwise.
    """
    L = (chain.size - 1) // 3
    if chain[2 * L] or chain[3 * L] or chain[:2 * L].imag.any():
        raise ValueError("the chain is not a Hermitian sum of doublet blocks")
    gg, ee, ge = chain[:L].real, chain[L:2 * L].real, chain[2 * L + 1:3 * L]
    low = (gg[1:] + ee[:-1]) / 2.0 - np.hypot((gg[1:] - ee[:-1]) / 2.0, np.abs(ge))
    return float(chain[:2 * L].real.sum()), float(min(gg[0], ee[-1], low.min()))


def setup2_pg(phi: float, T: float) -> float:
    """Ground-state detection probability for the shared-mode interferometer.

    The vacuum pi/2 pulse (area Omega*chi = pi/4) applied to the decayed wait
    state, summed over the ground-level channels. The pulse phase convention
    is fixed so the undamped pattern is exactly cos^2(phi/2):

        P_g(phi, T) = 3/4 - e^{-2T}/4 + (e^{-T}/2) cos(phi)
    """
    _check_wait(T)
    return 0.75 - 0.25 * math.exp(-2.0 * T) + 0.5 * math.exp(-T) * math.cos(phi)


def zero_temp_visibility_closed_form(T: float) -> float:
    """Compact closed-form visibility 2 e^{-T} / (3 - e^{-T}), kept verbatim.

    Note the denominator: the integrator-consistent result carries e^{-2T}
    instead of e^{-T} (see zero_temp_visibility_derived). The two differ at
    first order in T, about 0.4 percentage points at T = 0.008; both are
    exposed so the discrepancy stays visible in reports.
    """
    _check_wait(T)
    return 2.0 * math.exp(-T) / (3.0 - math.exp(-T))


def zero_temp_visibility_derived(T: float) -> float:
    """Visibility of the setup2_pg fringe, derived: 2 e^{-T} / (3 - e^{-2T})."""
    _check_wait(T)
    return 2.0 * math.exp(-T) / (3.0 - math.exp(-2.0 * T))


# --- master-equation oracle chain ---------------------------------------------

def _coefficients(ts, nbar: float, trunc: TruncationConfig | None = None,
                  omega_chi: float = DEFAULT_OMEGA_CHI) -> list[tuple[float, complex]]:
    """`master_fringe`'s (c0, c1) at every wait in ts, all from one sweep (`_evolve`).

    The sweep starts from the split vacuum chain, `zero_temp_wait` at T = 0
    on trunc's levels.
    """
    for T in ts:
        _check_wait(T)
    _check_nbar(nbar)
    if trunc is None:
        # thermal feeding dies off geometrically in nbar/(1+nbar); keep enough
        # levels that the top excited level stays below the pulse's leak guard
        n_max = 12
        if nbar > 0:
            x = nbar / (1.0 + nbar)
            n_max = max(12, int(math.ceil(math.log(1e-12) / math.log(x))))
        trunc = TruncationConfig(n_max=n_max)

    # same phase convention as setup2_pg: at the default omega_chi the
    # undamped fringe is cos^2(phi/2)
    chain = zero_temp_wait(-math.pi / 2.0, 0.0, trunc.n_levels)
    return [_fringe_coefficients(c, omega_chi) for c in _wait_chain(chain, nbar, ts)]


def master_fringe(T: float, nbar: float, phi_grid=None,
                  trunc: TruncationConfig | None = None,
                  omega_chi: float = DEFAULT_OMEGA_CHI) -> FringePattern:
    """Brute-force fringe: split vacuum state, dissipative wait, second pulse.

    This is the oracle chain used to vet the thermal series and the closed
    forms. The split pulse has area pi/4; omega_chi is the area of the second,
    recombining pulse, the same parameter as the series' omega_chi. The wait
    acts alike on the field indices of every atom block, so it commutes with
    the Stark phase phi, which only scales the |g><e| block by e^{i phi} and
    |e><g| by e^{-i phi}: the phi = 0 state is waited once. The second pulse
    reads only rho_gg[n,n], rho_ee[n,n] and rho_ge[n+1,n], and the wait
    never mixes entries of different offsets or blocks, so only that
    `_chain` of 3L + 1 entries is propagated (bit for bit the same entries
    as `evolve_master`'s), and (c0, c1) are read from it
    (`_fringe_coefficients`) for the whole phi grid, by default 9 points
    over [0, 2 pi]. Without an explicit trunc, n_max is chosen from the
    thermal feeding rate; the second pulse raises TruncationLeak if that
    choice let the top level fill. A negative, NaN or infinite T or nbar
    raises ValueError.
    """
    [(c0, c1)] = _coefficients([T], nbar, trunc, omega_chi)
    if phi_grid is None:
        phi_grid = np.linspace(0.0, 2.0 * np.pi, 9)
    return sinusoid_fringe(phi_grid, c0, c1)


def master_visibility(T, nbar: float, trunc: TruncationConfig | None = None,
                      omega_chi: float = DEFAULT_OMEGA_CHI):
    """Oracle visibility |c1| / c0 at (T, nbar), with no phi grid sampled.

    T may be a scalar or an array of waits, all served by one sweep; the
    result has T's shape (a float for a scalar, the `master_fringe` value).
    trunc and omega_chi are `master_fringe`'s.
    """
    ts = np.asarray(T, dtype=float).reshape(-1).tolist()
    v = np.array([abs(c1) / c0 for c0, c1 in _coefficients(ts, nbar, trunc, omega_chi)])
    return float(v[0]) if np.ndim(T) == 0 else v.reshape(np.shape(T))
