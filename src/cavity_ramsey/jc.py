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
    E,
    G,
    FieldVector,
    JointDensity,
    JointVector,
    TruncationConfig,
    coherent_state,
    default_truncation,
)

# area of the vacuum pi/2 pulse: cos^2(pi/4) = 1/2 splits |e, 0> evenly
DEFAULT_OMEGA_CHI = math.pi / 4.0
# largest |e, n_max> population a pulse may rotate without its partner level
LEAK_TOL = 1e-10
# |<alpha_e|alpha_e> - 1/2| at which the pulse-area bisection stops
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


def _top_level_population(state) -> float:
    if isinstance(state, JointVector):
        return float(abs(state.amps[E, -1]) ** 2)
    b = state.blocks()
    return float(b[E, -1, E, -1].real)


def jc_evolve(state, area: float):
    """Apply a resonant pulse of area Omega*t to a JointVector or JointDensity.

    Raises TruncationLeak when |e, n_max> carries more than LEAK_TOL
    probability: its doublet partner lies outside the truncated space, so the
    rotation could not be represented faithfully.
    """
    if area < 0:
        raise ValueError(f"pulse area must be >= 0, got {area}")
    top = _top_level_population(state)
    if top > LEAK_TOL:
        raise TruncationLeak(
            f"|e, n_max> holds probability {top:.3e} > {LEAK_TOL:.3e}; "
            "raise n_max before evolving"
        )
    U = doublet_unitary(state.n_levels, area)
    if isinstance(state, JointVector):
        return JointVector((U @ state.flat()).reshape(2, -1))
    return JointDensity(U @ state.mat @ U.conj().T)


def branch_states(alpha: complex, area: float,
                  trunc: TruncationConfig | None = None) -> tuple[FieldVector, FieldVector]:
    """Field states correlated with the atomic levels after a pulse of this area.

    Starting from |e> (x) |alpha>:
        alpha_e[n]   = c_n cos(area sqrt(n+1))
        alpha_g[n+1] = -i c_n sin(area sqrt(n+1))
    Both are unnormalized (their squared norms sum to one). The amplitude that
    would land on level n_max+1 is dropped; it is bounded by the coherent tail
    already certified by the truncation check.
    """
    if trunc is None:
        trunc = default_truncation(alpha)
    c = coherent_state(alpha, trunc).amps
    n = np.arange(trunc.n_levels)
    ang = area * np.sqrt(n + 1.0)
    a_e = c * np.cos(ang)
    a_g = np.zeros_like(c)
    a_g[1:] = -1j * c[:-1] * np.sin(ang[:-1])
    return FieldVector(a_e), FieldVector(a_g)


def excited_branch_norm(alpha: complex, area: float,
                        trunc: TruncationConfig) -> float:
    """<alpha_e|alpha_e> = sum_n |c_n|^2 cos^2(area sqrt(n+1)), without vectors."""
    c2 = np.abs(coherent_state(alpha, trunc).amps) ** 2
    ang = area * np.sqrt(np.arange(trunc.n_levels) + 1.0)
    return float(np.sum(c2 * np.cos(ang) ** 2))


def solve_pi_half_time(alpha: complex,
                       trunc: TruncationConfig | None = None) -> float:
    """Smallest area Omega*t > 0 with <alpha_e|alpha_e> = 1/2 (equal branches).

    The first sign change of <alpha_e|alpha_e> - 1/2 is bracketed on a grid of
    step pi / (64 sqrt(N+1)) and then bisected until the residual drops below
    PI_HALF_RESIDUAL_TOL. The first root is the physical (shortest) pulse.
    """
    if trunc is None:
        trunc = default_truncation(alpha)
    c2 = np.abs(coherent_state(alpha, trunc).amps) ** 2
    sq = np.sqrt(np.arange(trunc.n_levels) + 1.0)

    def f(t: float) -> float:
        return float(np.sum(c2 * np.cos(t * sq) ** 2)) - 0.5

    mean = abs(alpha) ** 2
    step = math.pi / (64.0 * math.sqrt(mean + 1.0))
    t_end = 4.0 * math.pi
    lo, f_lo = 0.0, f(0.0)
    t = step
    while t <= t_end:
        f_t = f(t)
        if f_lo > 0.0 >= f_t or f_lo < 0.0 <= f_t:
            hi, f_hi = t, f_t
            break
        lo, f_lo = t, f_t
        t += step
    else:
        raise NoRootFound(f"no pi/2 crossing before Omega*t = 4*pi for alpha={alpha}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < PI_HALF_RESIDUAL_TOL:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise NoRootFound(f"bisection stalled for alpha={alpha}")  # pragma: no cover


def stark_phase(state, phi: float):
    """Multiply every |g, n> amplitude by e^{i phi} (relative atomic phase).

    Models the phase accumulated while the transition is Stark-shifted out of
    resonance; the global phase is irrelevant, only the g/e relative phase
    matters.
    """
    if isinstance(state, JointVector):
        amps = state.amps.copy()
        amps[G, :] *= np.exp(1j * phi)
        return JointVector(amps)
    L = state.n_levels
    ph = np.ones(2 * L, dtype=complex)
    ph[:L] = np.exp(1j * phi)
    return JointDensity(ph[:, None] * state.mat * ph.conj()[None, :])
