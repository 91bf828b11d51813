"""Resonant atom-field dynamics on the doublet ladder.

On resonance the interaction only mixes the doublets {|e, n>, |g, n+1>}, each
rotating at Omega_n = Omega * sqrt(n+1); |g, 0> is dark. Omega is a free
scale, so every pulse is given by its area theta = Omega * t (units with
Omega = 1), and doublet n turns through theta * sqrt(n+1). We work in the frame
rotating at the mode frequency, so the free phases e^{-i nu t} are dropped:
they only translate fringe patterns along phi, which this package exposes as
an explicit parameter, and visibilities are unaffected.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoRootFound, TruncationLeak
from .fock import (
    TruncationConfig,
    _abs_square,
    _joint_density,
    coherent_magnitudes,
    coherent_state,
    rounding_bound,
    widened_truncation,
)

# area of the vacuum pi/2 pulse: cos^2(pi/4) = 1/2 splits |e, 0> evenly
DEFAULT_OMEGA_CHI = math.pi / 4.0
# largest |e, n_max> population a pulse may rotate without its partner level
LEAK_TOL = 1e-10
# |<alpha_e|alpha_e> - 1/2| at which the pulse-area steps stop
PI_HALF_RESIDUAL_TOL = 1e-10


def doublet_unitary(n_levels: int, theta: float) -> np.ndarray:
    """Joint-space unitary for pulse area theta = Omega * t.

    |e,n>   -> cos(theta*sqrt(n+1)) |e,n>   - i sin(theta*sqrt(n+1)) |g,n+1>
    |g,n+1> -> cos(theta*sqrt(n+1)) |g,n+1> - i sin(theta*sqrt(n+1)) |e,n>

    |g,0> is untouched. The top excited level |e, n_max> has no partner inside
    the truncation and is left invariant; callers must check it is empty.
    """
    dim = 2 * n_levels
    U = np.eye(dim, dtype=complex)
    n = np.arange(n_levels - 1)
    ang = theta * np.sqrt(n + 1.0)
    ie = n_levels + n          # |e, n>
    ig = n + 1                 # |g, n+1>
    U[ie, ie] = np.cos(ang)
    U[ig, ig] = np.cos(ang)
    U[ie, ig] = -1j * np.sin(ang)
    U[ig, ie] = -1j * np.sin(ang)
    return U


def check_pulse(top: float, area: float) -> None:
    """Refuse a pulse of this area on a state whose |e, n_max> population is top.

    Raises ValueError for a negative, NaN or infinite area, and
    TruncationLeak when top exceeds LEAK_TOL: the doublet partner of
    |e, n_max> lies outside the truncated space, so the rotation could not be
    represented faithfully.
    """
    if not 0.0 <= area < math.inf:  # also refuses NaN
        raise ValueError(f"pulse area must be finite and >= 0, got {area}")
    if top > LEAK_TOL:
        raise TruncationLeak(
            f"|e, n_max> holds probability {top:.3e} > {LEAK_TOL:.3e}; "
            "raise n_max before evolving"
        )


def jc_evolve(rho: np.ndarray, area: float) -> np.ndarray:
    """Apply a resonant pulse of area Omega*t to a (2L, 2L) joint density.

    Returns a new array. Raises ValueError, before any work, for any other
    shape (see `fock._joint_density`), and `check_pulse`'s errors for a
    negative or non-finite area or a filled |e, n_max>, the last diagonal
    entry.
    """
    rho = _joint_density(rho)
    check_pulse(float(rho[-1, -1].real), area)
    U = doublet_unitary(rho.shape[0] // 2, area)
    return U @ rho @ U.conj().T


def _checked_norms(c2: np.ndarray) -> np.ndarray:
    """Squared norms of the rows (..., n_levels) whose squared magnitudes are c2.

    Raises ValueError for a row above 1 by more than the `rounding_bound` of
    the largest mean and n_levels: log-domain coherent amplitudes are off by
    about N eps relative at mean N.
    """
    n = np.arange(c2.shape[-1])
    norm2 = np.sum(c2, axis=-1)
    over = norm2 > 1.0 + rounding_bound(float(np.max(c2 @ n, initial=0.0)), n.size)
    if np.any(over):
        raise ValueError(f"squared norm {np.asarray(norm2)[over][0]} exceeds 1")
    return norm2


def branch_amplitudes(c: np.ndarray, area: float | np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Branch amplitudes for coherent rows c (..., n_levels) after pulses of these areas.

    `area` has c's leading shape (a scalar for one row):
        alpha_e[n]   = c_n cos(area sqrt(n+1))
        alpha_g[n+1] = -i c_n sin(area sqrt(n+1))
    The amplitude that would land on level n_max+1 is dropped; it is bounded
    by the coherent tail already certified by the truncation check.

    Raises ValueError for a NaN or infinite area, and `_checked_norms`' error
    for a row of c with squared norm above 1.
    """
    area = np.asarray(area, dtype=float)
    if not np.all(np.isfinite(area)):
        raise ValueError(f"pulse area must be finite, got {area[~np.isfinite(area)][0]}")
    c2 = np.abs(c)
    c2 *= c2
    _checked_norms(c2)
    n = np.arange(c.shape[-1])
    ang = area[..., None] * np.sqrt(n + 1.0)
    a_e = c * np.cos(ang)
    # the sines overwrite ang and the products go straight into a_g, so a
    # block never holds more than one full-size temporary (the cosines)
    a_g = np.zeros(c.shape, dtype=complex)
    np.multiply(c[..., :-1], np.sin(ang[..., :-1], out=ang[..., :-1]),
                out=a_g[..., 1:])
    a_g[..., 1:] *= -1j
    return a_e, a_g


def branch_states(alpha: complex, area: float,
                  trunc: TruncationConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Field amplitudes correlated with the atomic levels after a pulse of this area.

    Starting from |e> (x) |alpha>, the branches are `branch_amplitudes` of the
    coherent state: the one-row case of the block path. Both are
    unnormalized (their squared norms sum to one).
    """
    if trunc is None:
        trunc = widened_truncation(_abs_square(alpha), TruncationConfig())
    return branch_amplitudes(coherent_state(alpha, trunc), area)


def _pi_half_areas(alphas: np.ndarray, r: np.ndarray
                   ) -> tuple[np.ndarray, int, float, tuple[np.ndarray, np.ndarray]]:
    """The pi/2 areas of solve_pi_half_time for the coherent magnitude rows
    r = |c| of a 1-d alphas (`fock.coherent_magnitudes`).

    Returns the areas, the number of evaluations of
    f(t) = <alpha_e|alpha_e> - 1/2 they took (summed over the rows), the
    largest |f| at an accepted area, and the branches at the areas as real
    rows: r_n cos(theta_n) and, one level up, r_n sin(theta_n), where
    theta_n = t sqrt(n+1) is the pulse angle. For real alphas >= 0, r = c
    and the rows are alpha_e and i alpha_g (`branch_amplitudes`).

    The solver steps in t on the real rows r, which do not depend on
    arg(alpha), so neither do the areas. An evaluation takes one cosine
    and one sine array of theta, and from them
    f = sum (r cos theta)^2 - 1/2 and
    f' = -2 sum sqrt(n+1) (r cos theta)(r sin theta), and
    M = 2 sum r_n^2 (n+1) >= |f''|. Each row starts at t = 0, where f > 0,
    and steps to the first root of the lower bound f + f' h - M h^2 / 2 on
    f(t + h), until |f| < PI_HALF_RESIDUAL_TOL; the evaluation that accepts
    a row holds its branches. No step can pass a root of f, so the area is
    its first root, the physical (shortest) pulse; near it the step is
    Newton's. All rows step together and finished rows are dropped, but each
    keeps its own arithmetic, so a row's area does not depend on the other
    rows. Raises `_checked_norms`' error for a row of r with squared norm
    above 1.
    """
    c2 = r * r
    norm2 = _checked_norms(c2)
    # <alpha_e|alpha_e> <= norm2, so a row with f(0) = norm2 - 1/2 < 0 has
    # no root, and its first step would take the square root of a negative
    short = norm2 - 0.5 < -PI_HALF_RESIDUAL_TOL
    if short.any():
        raise NoRootFound(f"no pi/2 crossing for alpha={alphas[np.argmax(short)]}: "
                          f"its truncated state holds {norm2[short][0]:.6g} < 1/2")
    n1 = np.arange(r.shape[-1]) + 1.0
    bound = 2.0 * np.sum(c2 * n1, axis=1)
    sq = np.sqrt(n1)
    t_end = 4.0 * math.pi
    areas = np.empty(len(alphas))
    branch_e = np.empty_like(r)
    branch_g = np.zeros_like(r)
    rows = np.arange(len(alphas))
    t = np.zeros(len(alphas))
    # an evaluation writes the cosine rows, the sine rows and the sums'
    # products into the leading rows of these, so it allocates no
    # (rows, n_levels) array; at t = 0 every cosine is 1 and every sine 0,
    # exactly, so the rows are r and 0, f(0) is norm2 - 1/2 to the bit and
    # f'(0) = 0: the first evaluation takes no trigonometry
    cos_rows, sin_rows, work = r.copy(), np.zeros_like(r), c2
    f, df = norm2 - 0.5, np.zeros(len(alphas))
    evaluations = 0
    residual = 0.0
    for _ in range(100):
        if not rows.size:
            break
        evaluations += rows.size
        done = np.abs(f) < PI_HALF_RESIDUAL_TOL
        if done.any():
            areas[rows[done]] = t[done]
            branch_e[rows[done]] = cos_rows[:rows.size][done]
            branch_g[rows[done], 1:] = sin_rows[:rows.size][done, :-1]
            residual = max(residual, float(np.abs(f[done]).max()))
            keep = ~done
            rows, t, f, df, r, bound = (a[keep] for a in (rows, t, f, df, r, bound))
        t += 2.0 * f / (np.sqrt(df * df + 2.0 * bound * f) - df)
        # written so that a NaN area (from a NaN alpha) also stops the loop
        late = ~(t <= t_end)
        if late.any():
            alpha = alphas[rows[late][0]]
            raise NoRootFound(f"no pi/2 crossing before Omega*t = 4*pi for alpha={alpha}")
        a_e, a_s, w = cos_rows[:rows.size], sin_rows[:rows.size], work[:rows.size]
        np.multiply.outer(t, sq, out=a_s)
        np.cos(a_s, out=a_e)
        a_e *= r
        np.sin(a_s, out=a_s)
        a_s *= r
        f = np.sum(np.multiply(a_e, a_e, out=w), axis=1) - 0.5
        np.multiply(a_e, a_s, out=w)
        w *= sq
        df = -2.0 * np.sum(w, axis=1)
    if rows.size:  # pragma: no cover
        raise NoRootFound(f"pi/2 area did not converge for alpha={alphas[rows[0]]}")
    return areas, evaluations, residual, (branch_e, branch_g)


def _pi_half_solve(alpha: complex | np.ndarray, trunc: TruncationConfig | None
                   ) -> tuple[np.ndarray, int, float, tuple[np.ndarray, np.ndarray]]:
    """`_pi_half_areas` on the coherent magnitude rows of a scalar or 1-d alpha.

    Without `trunc`, the default truncation, widened for the largest
    |alpha|^2 (`fock._abs_square`, inf where it overflows), serves every
    entry.
    """
    alphas = np.asarray(alpha)
    if alphas.ndim > 1:
        raise ValueError("solve_pi_half_time takes a scalar or a 1-d array")
    flat = alphas.reshape(-1)
    if trunc is None:
        means = np.array([_abs_square(a) for a in flat.tolist()], dtype=float)
        trunc = widened_truncation(float(means.max(initial=0.0)), TruncationConfig())
    return _pi_half_areas(flat, coherent_magnitudes(flat, trunc))


def solve_pi_half_time(alpha: complex | np.ndarray,
                       trunc: TruncationConfig | None = None) -> float | np.ndarray:
    """Smallest area Omega*t > 0 with <alpha_e|alpha_e> = 1/2 (equal branches).

    `alpha` is a scalar (the result is a float) or a 1-d array (the result is
    an array of areas, one per entry, each equal to the scalar call's with
    the same `trunc`). Without `trunc`, the default truncation, widened for
    the largest |alpha|, serves every entry. The entries step together from
    t = 0, in the pulse angle on the real rows |c|, by curvature-bounded
    steps that cannot pass the first root; see `_pi_half_areas`, which also
    counts the work and gives the branches that `fringe_scan_setup1` and
    `run_setup1` read; an alpha and abs(alpha) give the same area, bit for
    bit. Raises NoRootFound naming the alpha that has no crossing.
    """
    areas = _pi_half_solve(alpha, trunc)[0]
    return float(areas[0]) if np.ndim(alpha) == 0 else areas
