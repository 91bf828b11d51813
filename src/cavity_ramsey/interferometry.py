"""Which-path analysis and fringe synthesis for the coherent-field interferometer.

Pipeline: a resonant pulse in the quantized zone splits |e> (x) |alpha> into
branch states (alpha_e, alpha_g); a Stark phase phi accumulates between zones;
a classical pi/2 rotation recombines the levels; the ground-state detection
probability traces out a fringe in phi whose contrast is set entirely by the
branch overlap <alpha_e|alpha_g>.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .fock import TruncationConfig, squared_norms
from .jc import _pi_half_solve


@dataclass(frozen=True)
class FringePattern:
    """Sampled (phi, P_g) fringe plus its visibility (`sinusoid_fringe`)."""

    phis: np.ndarray
    p_g: np.ndarray
    visibility: float


def branch_overlap(alpha_e: np.ndarray, alpha_g: np.ndarray) -> complex | np.ndarray:
    """<alpha_e|alpha_g> of each row; its magnitude is half the ideal visibility."""
    return np.einsum("...n,...n->...", alpha_e.conj(), alpha_g)


def plus_minus_decomposition(alpha_e: np.ndarray, alpha_g: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared norms n_+/- of alpha_+/- = (alpha_e +- alpha_g) / 2, and the
    overlap <alpha_e|alpha_g> they are aligned by.

    Row by row, like `branch_overlap`; the rows may be real or complex. The
    branch phases are gauge: any fixed phase on alpha_g is a frame choice.
    We align alpha_g so the overlap is real and nonnegative before
    combining, which makes n_minus a faithful distinguishability measure
    (n_minus -> 0 exactly when the branches coincide and the joint state
    factorizes). alpha_+/- are formed, not inferred from the overlap, so a
    small n_minus keeps its accuracy.
    """
    ov = branch_overlap(alpha_e, alpha_g)
    mag = np.abs(ov)
    phase = np.where(mag > 0, ov, 1.0) / np.where(mag > 0, mag, 1.0)
    g = alpha_g * np.conj(phase)[..., None]
    combined = alpha_e + g
    n_plus = squared_norms(combined) / 4.0
    np.subtract(alpha_e, g, out=combined)
    return n_plus, squared_norms(combined) / 4.0, ov


def visibility_from_pattern(phis, p_g) -> float:
    """(max - min) / (max + min) of the sinusoid through sampled (phi, P_g).

    A least-squares fit of a + b*cos(phi - phi0); the result is |b| / a. No
    package path calls it: a fringe's own visibility is |c1| / c0
    (`sinusoid_fringe`), and this fit is the independent reading of a
    sampled one. Requires at least 8 samples covering a full period, and
    raises ValueError on a fringe with no mean level.
    """
    phis = np.asarray(phis, dtype=float)
    p_g = np.asarray(p_g, dtype=float)
    if phis.size < 8:
        raise ValueError("need at least 8 fringe samples")
    if phis.max() - phis.min() < 2.0 * np.pi - 1e-9:
        raise ValueError("fringe samples must span a full period")
    design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    a, p, q = np.linalg.lstsq(design, p_g, rcond=None)[0]
    amp = float(np.hypot(p, q))
    if 2.0 * a < 1e-12:  # max + min ~ 2a for a sinusoid
        raise ValueError("fringe pattern has no usable mean level")
    return amp / float(a)


def apply_detection(v: float, eta: float) -> float:
    """Scale a model visibility by the aggregate detection/imperfection factor eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return eta * v


def sinusoid_fringe(phi_grid, c0: float, c1: complex) -> FringePattern:
    """The fringe P_g(phi) = c0 + Re(c1 e^{i phi}), sampled on phi_grid.

    P_g is linear in the state and only the g/e coherence carries phi, so
    every fringe is fixed by these two numbers, and its visibility
    (max - min) / (max + min) is |c1| / c0 on any grid. The samples are
    clipped to [0, 1]; the visibility is not.
    """
    phis = np.asarray(phi_grid, dtype=float)
    p_g = c0 + (c1 * np.exp(1j * phis)).real
    return FringePattern(phis, np.clip(p_g, 0.0, 1.0), abs(c1) / c0)


def fringe_scan_setup1(alpha: complex,
                       trunc: TruncationConfig | None = None,
                       phi_grid=None) -> FringePattern:
    """Full single-quantized-zone fringe: solve the pulse area, scan phi.

    The classical pi/2 zone recombines the split atom, whose populations are
    1/2 and whose coherence is e^{i phi} <alpha_e|alpha_g>, into
    P_g(phi) = 1/2 + Re(e^{i phi} <alpha_e|alpha_g>). The overlap is read
    from the branches of the evaluation that accepts the area
    (`jc._pi_half_areas`), real rows of |c_n|: with
    c_n = |c_n| e^{i n arg(alpha)}, it is -i e^{-i arg(alpha)} times theirs.
    """
    if phi_grid is None:
        phi_grid = np.linspace(0.0, 2.0 * np.pi, 65)
    a_e, a_g = _pi_half_solve(alpha, trunc)[3]
    c1 = -1j * cmath.exp(-1j * cmath.phase(alpha)) * float(branch_overlap(a_e, a_g)[0])
    return sinusoid_fringe(phi_grid, 0.5, c1)
