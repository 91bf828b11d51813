"""Dense (2L, 2L) joint densities and their physicality checks, for the tests only.

The package propagates and reads only the chain of entries the second pulse
reads (`open_system._chain`), and starts it from the split vacuum chain that
`open_system.zero_temp_wait` writes in closed form. This module keeps the
brute-force view the tests check it against: the split vacuum state built
through the pulse and Stark-phase pipeline, a whole density built from joint
amplitudes or from a chain, and Hermiticity, trace and spectrum read from the
full matrix, sharing no code with the chain's closed forms.
"""

import math

import numpy as np

from cavity_ramsey.fock import TruncationConfig
from cavity_ramsey.jc import DEFAULT_OMEGA_CHI, branch_amplitudes

# rows of a (2, n_levels) joint amplitude array (atom order (g, e))
G, E = 0, 1


def stark_phase(amps, phi):
    """Multiply every |g, n> amplitude of a (2, n_levels) joint state by e^{i phi}.

    Models the phase accumulated while the transition is Stark-shifted out of
    resonance; the global phase is irrelevant, only the g/e relative phase
    matters. Returns a new array.
    """
    amps = np.array(amps, dtype=complex)
    amps[G] *= np.exp(1j * phi)
    return amps


def split_vacuum_state(phi, trunc=None):
    """(|e,0> + e^{i phi} |g,1>)/sqrt(2) as (2, n_levels) joint amplitudes.

    Built through the actual pulse + Stark-phase pipeline: the pulse is
    `jc.branch_amplitudes` on the vacuum row, as in setup 1 (the bare pulse
    leaves a factor -i on |g,1>, absorbed here into the phase argument).
    """
    if trunc is None:
        trunc = TruncationConfig(n_max=8)
    vacuum = np.zeros(trunc.n_levels, dtype=complex)
    vacuum[0] = 1.0
    a_e, a_g = branch_amplitudes(vacuum, DEFAULT_OMEGA_CHI)
    return stark_phase(np.stack([a_g, a_e]), phi + math.pi / 2.0)


def pure_density(amps):
    """|psi><psi| of a (2, n_levels) joint amplitude array, atom-major."""
    amps = np.asarray(amps, dtype=complex)
    if amps.ndim != 2 or amps.shape[0] != 2:
        raise ValueError("joint amplitudes must have shape (2, n_levels)")
    v = amps.reshape(-1)
    return np.outer(v, v.conj())


def density_from_chain(chain):
    """The Hermitian (2L, 2L) density whose `open_system._chain` this is.

    The chain's first 2L entries are its diagonal and the last L + 1 its
    (L-1)-th superdiagonal; the lower triangle is their conjugate and every
    other entry is zero.
    """
    chain = np.asarray(chain, dtype=complex)
    L = (chain.size - 1) // 3
    mat = np.diag(chain[:2 * L]) + np.diag(chain[2 * L:], L - 1)
    return mat + np.triu(mat, 1).conj().T


def hermiticity_defect(mat):
    return float(np.max(np.abs(mat - mat.conj().T)))


def min_eigenvalue(mat):
    h = 0.5 * (mat + mat.conj().T)
    return float(np.linalg.eigvalsh(h)[0])


def assert_physical_density(mat, *, herm_tol=1e-10, trace_tol=1e-9, eig_floor=-1e-8):
    """Raise AssertionError unless mat is Hermitian, unit-trace and PSD within tolerance."""
    assert hermiticity_defect(mat) < herm_tol, "density not Hermitian"
    assert abs(np.trace(mat).real - 1.0) < trace_tol, "density trace != 1"
    assert min_eigenvalue(mat) > eig_floor, "density not positive semidefinite"
