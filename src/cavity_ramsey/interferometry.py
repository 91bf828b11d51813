"""Which-path analysis and fringe synthesis for the coherent-field interferometer.

Pipeline: a resonant pulse in the quantized zone splits |e> (x) |alpha> into
branch states (alpha_e, alpha_g); a Stark phase phi accumulates between zones;
a classical pi/2 rotation recombines the levels; the ground-state detection
probability traces out a fringe in phi whose contrast is set entirely by the
branch overlap <alpha_e|alpha_g>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePattern
from .fock import AtomDensity, FieldVector, TruncationConfig
from .jc import branch_states, solve_pi_half_time

# Recombination convention for the classical pi/2 zone: maps the dephased
# split state onto populations 1/2 +- Re(e^{i phi} <alpha_e|alpha_g>).
# Pinned by a unit test; visibilities do not depend on this choice.
RECOMBINATION_UNITARY = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class DetectionModel:
    """Aggregate detection/imperfection factor applied to model visibilities."""

    eta: float = 0.75

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")


@dataclass(frozen=True)
class FringePattern:
    """Sampled (phi, P_g) fringe plus its extracted visibility."""

    phis: np.ndarray
    p_g: np.ndarray
    visibility: float

    def __post_init__(self):
        object.__setattr__(self, "phis", np.asarray(self.phis, dtype=float))
        object.__setattr__(self, "p_g", np.asarray(self.p_g, dtype=float))
        if self.phis.shape != self.p_g.shape:
            raise ValueError("phi and P_g grids must have matching shapes")
        if np.any(self.p_g < -1e-12) or np.any(self.p_g > 1.0 + 1e-12):
            raise ValueError("P_g samples outside [0, 1]")
        if not 0.0 <= self.visibility <= 1.0 + 1e-12:
            raise ValueError(f"visibility {self.visibility} outside [0, 1]")

    def samples(self):
        return list(zip(self.phis.tolist(), self.p_g.tolist()))


def branch_overlap(alpha_e: FieldVector, alpha_g: FieldVector) -> complex:
    """<alpha_e|alpha_g>; its magnitude is half the ideal fringe visibility."""
    return alpha_e.overlap(alpha_g)


def plus_minus_decomposition(alpha_e: FieldVector, alpha_g: FieldVector
                             ) -> tuple[FieldVector, FieldVector, float, float]:
    """Split the branches into alpha_+/- = (alpha_e +- alpha_g) / 2.

    The branch phases are gauge: any fixed phase on alpha_g is a frame choice.
    We align alpha_g so the overlap is real and nonnegative before combining,
    which makes n_minus a faithful distinguishability measure (n_minus -> 0
    exactly when the branches coincide and the joint state factorizes).
    """
    ov = branch_overlap(alpha_e, alpha_g)
    phase = ov / abs(ov) if abs(ov) > 0 else 1.0
    g = alpha_g.amps * np.conj(phase)
    plus = FieldVector((alpha_e.amps + g) / 2.0)
    minus = FieldVector((alpha_e.amps - g) / 2.0)
    return plus, minus, plus.norm2(), minus.norm2()


def atomic_state_after_phase(alpha_e: FieldVector, alpha_g: FieldVector,
                             phi: float) -> AtomDensity:
    """Reduced atomic state after the split and the accumulated phase phi.

    With equal branch norms the populations are 1/2 and the only memory of the
    field is the off-diagonal overlap:
        [[1/2,                e^{i phi} <alpha_e|alpha_g>],
         [e^{-i phi} <alpha_g|alpha_e>, 1/2             ]]
    """
    c = branch_overlap(alpha_e, alpha_g) * np.exp(1j * phi)
    return AtomDensity(np.array([[0.5, c], [np.conj(c), 0.5]]))


def classical_pi_half(rho: AtomDensity) -> AtomDensity:
    """Recombine the levels with the fixed classical pi/2 rotation.

    Maps coherence into populations: for input off-diagonal c the output
    populations are 1/2 + Re(c) (ground) and 1/2 - Re(c) (excited).
    """
    U = RECOMBINATION_UNITARY
    return AtomDensity(U @ rho.mat @ U.conj().T)


def visibility_from_pattern(phis, p_g) -> float:
    """(max - min) / (max + min) of the underlying sinusoid.

    A least-squares fit of a + b*cos(phi - phi0) makes the extraction robust
    to grid placement; the result is |b| / a. Requires at least 8 samples
    covering a full period.
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
        raise DegeneratePattern("fringe pattern has no usable mean level")
    return amp / float(a)


def apply_detection(v: float, model: DetectionModel) -> float:
    """Scale a model visibility by the aggregate imperfection factor eta."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    return model.eta * v


def fringe_scan_setup1(alpha: complex,
                       trunc: TruncationConfig | None = None,
                       phi_grid=None) -> FringePattern:
    """Full single-quantized-zone fringe: solve the pulse area, scan phi.

    P_g(phi) = 1/2 + Re(e^{i phi} <alpha_e|alpha_g>), read from the recombined
    atomic state rather than from the overlap directly, so the scan exercises
    the same matrix pipeline the overlap shortcut is checked against.
    """
    if phi_grid is None:
        phi_grid = np.linspace(0.0, 2.0 * np.pi, 65)
    phi_grid = np.asarray(phi_grid, dtype=float)
    if phi_grid.size < 8 or phi_grid.max() - phi_grid.min() < 2.0 * np.pi - 1e-9:
        raise ValueError("phi grid needs >= 8 points spanning a full period")
    area = solve_pi_half_time(alpha, trunc)
    a_e, a_g = branch_states(alpha, area, trunc)
    p_g = np.array([
        classical_pi_half(atomic_state_after_phase(a_e, a_g, phi)).p_g()
        for phi in phi_grid
    ])
    p_g = np.clip(p_g, 0.0, 1.0)
    vis = visibility_from_pattern(phi_grid, p_g)
    return FringePattern(phi_grid, p_g, vis)
