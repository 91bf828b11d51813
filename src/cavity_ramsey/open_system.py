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
"""

from __future__ import annotations

import math

import numpy as np

from .fock import (
    JointDensity,
    TruncationConfig,
    poisson_cutoff,
    pure_density,
)
from .interferometry import FringePattern, sinusoid_fringe
from .jc import DEFAULT_OMEGA_CHI, branch_amplitudes, jc_evolve, stark_phase


# q*h of one propagation chunk is at most this, so e^{-q h} cannot underflow
MAX_CHUNK_RATE = 50.0
# Poisson mass of the series terms each chunk drops
SERIES_TAIL_TOL = 1e-16


def _check_nbar(nbar: float) -> None:
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")


def _check_wait(T: float) -> None:
    if not 0.0 <= T < math.inf:  # also refuses NaN
        raise ValueError(f"T must be finite and >= 0, got {T}")


def _check_density(rho) -> None:
    if not isinstance(rho, JointDensity):
        raise TypeError(f"expected a JointDensity, got {type(rho)!r}")


def _stencil(n_levels: int, nbar: float):
    """Generator weights on field indices (m, n) of the truncated space.

        D(rho)[m,n] = -loss[m,n] rho[m,n] + down[m,n] rho[m+1,n+1]
                      + up[m-1,n-1] rho[m-1,n-1]

    with loss = (nbar+1)(m + n) + nbar(aa+[m] + aa+[n]), where the a+a and
    aa+ diagonals are those of the truncated operators (aa+ = 0 on the top
    level), and hop weights 2(nbar+1) sqrt((m+1)(n+1)) for loss and
    2 nbar sqrt(mn) for gain, all per unit of T. Photon-number offsets m - n
    never mix.
    """
    n = np.arange(n_levels, dtype=float)
    aad = np.append(n[1:], 0.0)
    loss = ((nbar + 1.0) * (n[:, None] + n[None, :])
            + nbar * (aad[:, None] + aad[None, :]))
    hop = np.sqrt(np.outer(n[1:], n[1:]))
    return loss, 2.0 * (nbar + 1.0) * hop, 2.0 * nbar * hop


def _apply(r: np.ndarray, diag, down, up) -> np.ndarray:
    """diag*r plus both hops, on r of shape (2, L, 2, L): every atom block alike."""
    out = diag[:, None, :] * r
    out[:, :-1, :, :-1] += down[:, None, :] * r[:, 1:, :, 1:]
    out[:, 1:, :, 1:] += up[:, None, :] * r[:, :-1, :, :-1]
    return out


def dissipator_apply(rho: JointDensity, nbar: float) -> JointDensity:
    """Apply the Lindblad generator once; acts on the field factor only."""
    _check_density(rho)
    _check_nbar(nbar)
    L = rho.n_levels
    loss, down, up = _stencil(L, nbar)
    out = _apply(rho.blocks(), -loss, down, up)
    return JointDensity(out.reshape(rho.mat.shape))


def _evolve(mat: np.ndarray, T: float, nbar: float) -> np.ndarray:
    """e^{T D} on one (2L, 2L) joint density matrix, by uniformization.

    With q = max(loss), P = I + D/q is entrywise non-negative and, since
    2 sqrt(mn) <= m + n, never increases the entrywise l1 norm. Each chunk
    h = T/c with q h <= MAX_CHUNK_RATE sums
        e^{hD} rho = e^{-qh} sum_j (qh)^j / j! P^j rho
    over j = 0 .. J, where J is the smallest j whose Poisson(qh) tail above j
    is below SERIES_TAIL_TOL (`fock.poisson_cutoff`). Every chunk shares qh,
    so J is found once per call. That tail is a direct sum plus a geometric
    bound on the rest, never below the exact mass the chunk drops.
    """
    L = mat.shape[-1] // 2
    loss, down, up = _stencil(L, nbar)
    q = float(loss.max())
    chunks = max(1, math.ceil(q * T / MAX_CHUNK_RATE))
    qh = q * T / chunks
    terms = poisson_cutoff(qh, SERIES_TAIL_TOL)
    keep, down, up = 1.0 - loss / q, down / q, up / q
    r = mat.reshape(2, L, 2, L)
    for _ in range(chunks):
        term, weight = r, math.exp(-qh)
        r = weight * term
        for j in range(1, terms + 1):
            term = _apply(term, keep, down, up)
            weight *= qh / j
            r += weight * term
    return r.reshape(mat.shape)


def evolve_master(rho: JointDensity, T: float, nbar: float) -> JointDensity:
    """Dissipative wait: rho -> e^{T D} rho for a dimensionless wait T = k*tau.

    The atom is untouched (coupling is switched off during the wait). This is
    the ground-truth oracle the closed forms are validated against. It is
    exact up to a certified truncation: each of the c = ceil(q T / 50)
    chunks of the uniformized series drops at most 1e-16 times the entrywise
    l1 norm of its input, so before rounding the result is within
    c * 1e-16 * sum|rho_ij| of e^{T D} rho in the entrywise l1 norm (q is
    the largest diagonal loss rate of the truncated generator, at most
    2(2 nbar + 1) n_max). Raises TypeError for anything but a JointDensity
    and ValueError for a negative, NaN or infinite T.
    """
    _check_density(rho)
    _check_wait(T)
    _check_nbar(nbar)
    if T == 0.0:
        return rho
    return JointDensity(_evolve(rho.mat, T, nbar))


# --- zero-temperature closed forms --------------------------------------------

def split_vacuum_state(phi: float,
                       trunc: TruncationConfig | None = None) -> np.ndarray:
    """(|e,0> + e^{i phi} |g,1>)/sqrt(2) as (2, n_levels) joint amplitudes.

    Built through the actual pulse + Stark-phase pipeline: the pulse is
    `branch_amplitudes` on the vacuum row, as in setup 1 (the bare pulse
    leaves a factor -i on |g,1>, absorbed here into the phase argument).
    """
    if trunc is None:
        trunc = TruncationConfig(n_max=8)
    vacuum = np.zeros(trunc.n_levels, dtype=complex)
    vacuum[0] = 1.0
    a_e, a_g = branch_amplitudes(vacuum, DEFAULT_OMEGA_CHI)
    return stark_phase(np.stack([a_g, a_e]), phi + math.pi / 2.0)


def zero_temp_wait(phi: float, T: float,
                   trunc: TruncationConfig | None = None) -> JointDensity:
    """Closed-form joint state after a wait T = k*tau over a zero-temperature bath.

    With the bath at nbar = 0 the system only loses excitations, so starting
    from the split vacuum state everything stays inside {|g,0>, |g,1>, |e,0>}:
    populations (1 - e^{-2T})/2, e^{-2T}/2, 1/2, with a |g,1><e,0| coherence of
    magnitude e^{-T}/2 and phase phi.
    """
    _check_wait(T)
    if trunc is None:
        trunc = TruncationConfig(n_max=8)
    L = trunc.n_levels
    mat = np.zeros((2 * L, 2 * L), dtype=complex)
    ig0, ig1, ie0 = 0, 1, L
    decay2 = math.exp(-2.0 * T)
    mat[ig0, ig0] = 0.5 * (1.0 - decay2)
    mat[ig1, ig1] = 0.5 * decay2
    mat[ie0, ie0] = 0.5
    coh = 0.5 * math.exp(-T) * np.exp(1j * phi)
    mat[ig1, ie0] = coh
    mat[ie0, ig1] = np.conj(coh)
    return JointDensity(mat)


def _fringe_coefficients(mat: np.ndarray, area: float) -> tuple[float, complex]:
    """(c0, c1) of P_g(phi) = c0 + Re(c1 e^{i phi}) after a pulse of this area.

    mat is the (2L, 2L) joint density at phi = 0; phi scales its |g><e|
    block by e^{i phi} and its |e><g| block by e^{-i phi}. P_g is linear in
    the state, so the pulsed diagonal blocks give c0 and the pulsed |g><e|
    block alone gives c1 / 2 (the |e><g| block gives its conjugate): two
    pulses for any phi grid. The first pulse carries jc_evolve's leak guard.
    """
    L = mat.shape[0] // 2
    diagonal = mat.copy()
    diagonal[:L, L:] = diagonal[L:, :L] = 0.0
    coherence = np.zeros_like(mat)
    coherence[:L, L:] = mat[:L, L:]
    c0 = np.trace(jc_evolve(JointDensity(diagonal), area).mat[:L, :L]).real
    half = np.trace(jc_evolve(JointDensity(coherence), area).mat[:L, :L])
    return float(c0), 2.0 * complex(half)


def _setup2_coefficients(T: float) -> tuple[float, complex]:
    """(c0, c1) of the zero-temperature fringe after a wait T."""
    return _fringe_coefficients(zero_temp_wait(-math.pi / 2.0, T).mat,
                                DEFAULT_OMEGA_CHI)


def setup2_pg(phi: float, T: float) -> float:
    """Ground-state detection probability for the shared-mode interferometer.

    Applies the vacuum pi/2 pulse (area Omega*chi = pi/4) to the decayed wait
    state and sums the ground-level channels. The pulse phase convention is
    fixed so the undamped pattern is exactly cos^2(phi/2):

        P_g(phi, T) = 3/4 - e^{-2T}/4 + (e^{-T}/2) cos(phi)
    """
    c0, c1 = _setup2_coefficients(T)
    return float(c0 + (c1 * np.exp(1j * phi)).real)


def setup2_fringe(T: float, phi_grid=None) -> FringePattern:
    """Zero-temperature fringe from the closed-form wait state."""
    if phi_grid is None:
        phi_grid = np.linspace(0.0, 2.0 * np.pi, 65)
    return sinusoid_fringe(phi_grid, *_setup2_coefficients(T))


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


def setup2_pg_printed_form(phi: float, T: float) -> float:
    """Documentation-only transcription of the compact fringe formula.

    Reads 1/4 - e^{-2T}/4 + (e^{-T}/2) sin(phi). It is inconsistent with the
    recombined state's diagonal (it goes negative at T = 0 for phi < 0) and is
    therefore excluded from every oracle chain; setup2_pg is the trusted form.
    """
    return 0.25 - 0.25 * math.exp(-2.0 * T) + 0.5 * math.exp(-T) * math.sin(phi)


# --- master-equation oracle chain ---------------------------------------------

def master_fringe(T: float, nbar: float, phi_grid=None,
                  trunc: TruncationConfig | None = None,
                  omega_chi: float = DEFAULT_OMEGA_CHI) -> FringePattern:
    """Brute-force fringe: split vacuum state, dissipative wait, second pulse.

    This is the oracle chain used to vet the thermal series and the closed
    forms. The split pulse has area pi/4; omega_chi is the area of the second,
    recombining pulse, the same parameter as the series' omega_chi. The wait
    acts alike on the field indices of every atom block, so it commutes with
    the Stark phase phi, which only scales the |g><e| block by e^{i phi} and
    |e><g| by e^{-i phi}: the phi = 0 state is propagated once, as in
    `evolve_master`, and two second pulses of the waited state give the
    whole fringe (`_fringe_coefficients`). Without an explicit trunc, n_max
    is chosen from the thermal feeding rate; the second pulse raises
    TruncationLeak if that choice let the top level fill. A negative, NaN or
    infinite T raises ValueError.
    """
    _check_wait(T)
    _check_nbar(nbar)
    if phi_grid is None:
        phi_grid = np.linspace(0.0, 2.0 * np.pi, 9)
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
    waited = pure_density(split_vacuum_state(-math.pi / 2.0, trunc)).mat
    if T > 0:
        waited = _evolve(waited, T, nbar)
    return sinusoid_fringe(phi_grid, *_fringe_coefficients(waited, omega_chi))


def master_visibility(T: float, nbar: float, **kwargs) -> float:
    """Oracle visibility at (T, nbar) from the brute-force fringe."""
    return master_fringe(T, nbar, **kwargs).visibility
