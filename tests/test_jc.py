import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey.errors import TruncationLeak
from cavity_ramsey.fock import (
    E,
    G,
    JointVector,
    TruncationConfig,
    coherent_state,
    tensor,
)
from cavity_ramsey.jc import (
    branch_states,
    doublet_unitary,
    excited_branch_norm,
    jc_evolve,
    solve_pi_half_time,
    stark_phase,
)



class TestDoubletUnitary:
    @given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_unitarity(self, theta):
        U = doublet_unitary(6, theta)
        assert np.max(np.abs(U @ U.conj().T - np.eye(12))) < 1e-12

    def test_dark_ground_vacuum(self):
        U = doublet_unitary(5, 1.3)
        e0 = np.zeros(10)
        e0[0] = 1.0  # |g, 0>
        assert np.allclose(U @ e0, e0)

    def test_doublet_rotation_entries(self):
        # |e, 0> -> cos(theta)|e,0> - i sin(theta)|g,1>
        theta = 0.7
        L = 4
        U = doublet_unitary(L, theta)
        assert U[L, L] == pytest.approx(math.cos(theta))
        assert U[1, L] == pytest.approx(-1j * math.sin(theta))


class TestJCEvolve:
    def test_norm_preserved(self):
        trunc = TruncationConfig(n_max=40)
        state = tensor([0.0, 1.0], coherent_state(1.5, trunc))
        out = jc_evolve(state, 0.8)
        assert out.norm2() == pytest.approx(state.norm2(), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_composition(self, t1, t2):
        trunc = TruncationConfig(n_max=30)
        state = tensor([0.6, 0.8], coherent_state(1.0, trunc))
        two_step = jc_evolve(jc_evolve(state, t1), t2)
        one_step = jc_evolve(state, t1 + t2)
        assert np.max(np.abs(two_step.amps - one_step.amps)) < 1e-9

    def test_density_trace_hermiticity(self):
        trunc = TruncationConfig(n_max=20)
        rho = tensor([0.0, 1.0], coherent_state(0.8, trunc)).to_density()
        out = jc_evolve(rho, 1.1)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out.mat - out.mat.conj().T)) < 1e-12

    def test_truncation_leak_raises(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[E, -1] = 1.0  # all weight on |e, n_max>
        with pytest.raises(TruncationLeak):
            jc_evolve(JointVector(amps), 0.5)

    def test_negative_duration_rejected(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[G, 0] = 1.0
        with pytest.raises(ValueError):
            jc_evolve(JointVector(amps), -1.0)


class TestBranchStates:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 1.5, 2.5 + 0.5j])
    def test_cross_check_against_evolve(self, alpha):
        # branch_states is closed form; jc_evolve is the matrix path; n_max
        # leaves headroom so the top-level edge effects sit below 1e-10
        trunc = TruncationConfig(n_max=60)
        t = 0.6
        a_e, a_g = branch_states(alpha, t, trunc)
        evolved = jc_evolve(tensor([0.0, 1.0], coherent_state(alpha, trunc)), t)
        assert np.max(np.abs(evolved.amps[E] - a_e.amps)) < 1e-10
        assert np.max(np.abs(evolved.amps[G] - a_g.amps)) < 1e-10

    def test_norms_sum_to_one(self):
        trunc = TruncationConfig(n_max=50)
        a_e, a_g = branch_states(1.8, 0.9, trunc)
        total = a_e.norm2() + a_g.norm2()
        assert total == pytest.approx(1.0, abs=1e-10)


class TestPiHalfTime:
    def test_vacuum_time_is_quarter_pi(self):
        t = solve_pi_half_time(0.0, TruncationConfig(n_max=4))
        assert t == pytest.approx(math.pi / 4.0, abs=1e-9)

    @pytest.mark.parametrize("n_mean", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
    def test_residuals_and_both_equalities(self, n_mean):
        trunc = TruncationConfig(n_max=120)
        alpha = math.sqrt(n_mean)
        t = solve_pi_half_time(alpha, trunc)
        a_e, a_g = branch_states(alpha, t, trunc)
        # both defining equalities of the pulse condition
        assert abs(a_e.norm2() - 0.5) < 1e-9
        assert abs(a_g.norm2() - 0.5) < 1e-9
        assert abs(excited_branch_norm(alpha, t, trunc) - 0.5) < 1e-9

    def test_first_root_is_shortest(self):
        # for the vacuum the roots are odd multiples of pi/4
        t = solve_pi_half_time(0.0, TruncationConfig(n_max=4))
        assert t < math.pi / 2.0


class TestStarkPhase:
    def test_vector_density_consistency(self):
        trunc = TruncationConfig(n_max=10)
        state = tensor([0.6, 0.8], coherent_state(0.5, trunc))
        phi = 1.234
        via_vector = stark_phase(state, phi).to_density()
        via_density = stark_phase(state.to_density(), phi)
        assert np.max(np.abs(via_vector.mat - via_density.mat)) < 1e-12

    def test_only_relative_phase(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[G, 1] = amps[E, 0] = 1.0 / math.sqrt(2.0)
        out = stark_phase(JointVector(amps), 0.9)
        assert out.amps[E, 0] == pytest.approx(amps[E, 0])
        assert out.amps[G, 1] == pytest.approx(amps[G, 1] * np.exp(0.9j))
