import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey.fock import (
    JointDensity,
    TruncationConfig,
    assert_physical_density,
    pure_density,
    thermal_density,
)
from cavity_ramsey.jc import DEFAULT_OMEGA_CHI, doublet_unitary, jc_evolve, stark_phase
from cavity_ramsey.open_system import (
    dissipator_apply,
    evolve_master,
    master_fringe,
    setup2_fringe,
    setup2_pg,
    setup2_pg_printed_form,
    split_vacuum_state,
    zero_temp_visibility_closed_form,
    zero_temp_visibility_derived,
    zero_temp_wait,
)

T_GRID = (0.001, 0.008, 0.1, 0.4, 1.0)


def dense_generator(mat, nbar, atoms):
    """Reference D(rho) from the truncated ladder matrices, not the stencil."""
    L = mat.shape[0] // atoms
    a = np.kron(np.eye(atoms), np.diag(np.sqrt(np.arange(1.0, L)), 1))
    ad = a.T
    down = 2.0 * a @ mat @ ad - ad @ a @ mat - mat @ ad @ a
    up = 2.0 * ad @ mat @ a - a @ ad @ mat - mat @ a @ ad
    return (nbar + 1.0) * down + nbar * up


def dense_rk4(mat, tau, nbar, steps):
    """Classical fixed-step RK4 over the dense generator of a joint density."""
    h = tau / steps

    def f(m):
        return dense_generator(m, nbar, 2)

    for _ in range(steps):
        k1 = f(mat)
        k2 = f(mat + 0.5 * h * k1)
        k3 = f(mat + 0.5 * h * k2)
        k4 = f(mat + h * k3)
        mat = mat + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return mat


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestDissipator:
    def test_thermal_state_is_fixed_point(self):
        nbar = 0.4
        field = thermal_density(nbar, TruncationConfig(n_max=40))
        rho = JointDensity(np.kron(np.diag([0.5, 0.5]), field))
        out = dissipator_apply(rho, nbar)
        # fixed point away from the truncation edge, in both atomic blocks
        assert np.max(np.abs(out.blocks()[:, :30, :, :30])) < 1e-10

    def test_traceless(self):
        rho = pure_density(split_vacuum_state(0.3))
        out = dissipator_apply(rho, 0.7)
        assert abs(np.trace(out.mat)) < 1e-12

    @pytest.mark.parametrize("block", ["field", "joint"])
    @pytest.mark.parametrize("nbar", [0.0, 0.3, 0.95])
    def test_stencil_matches_dense_operator_form(self, rng, block, nbar):
        # "field": a field matrix alone in the |g><g| block, against the
        # field-only generator; "joint": a full joint matrix
        for L in (2, 5, 17):
            if block == "field":
                field = random_matrix(rng, L)
                mat = np.kron(np.diag([1.0, 0.0]), field)
                ref = np.kron(np.diag([1.0, 0.0]), dense_generator(field, nbar, 1))
            else:
                mat = random_matrix(rng, 2 * L)
                ref = dense_generator(mat, nbar, 2)
            out = dissipator_apply(JointDensity(mat), nbar)
            assert isinstance(out, JointDensity)
            assert np.max(np.abs(out.mat - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            dissipator_apply(np.eye(4), 0.0)


class TestEvolveMaster:
    @pytest.mark.parametrize("T", T_GRID)
    def test_zero_temp_matches_closed_form_entrywise(self, T):
        phi = 0.7
        rho0 = pure_density(split_vacuum_state(phi))
        out = evolve_master(rho0, T, 0.0)
        ref = zero_temp_wait(phi, T)
        assert np.max(np.abs(out.mat - ref.mat)) < 1e-8

    @pytest.mark.parametrize("T", T_GRID)
    def test_zero_temp_matches_closed_form_to_rounding(self, T):
        phi = 0.7
        rho0 = pure_density(split_vacuum_state(phi))
        out = evolve_master(rho0, T, 0.0)
        ref = zero_temp_wait(phi, T)
        assert np.max(np.abs(out.mat - ref.mat)) <= 1e-13

    def test_matches_dense_rk4(self, rng):
        psi = rng.normal(size=14) + 1j * rng.normal(size=14)
        psi /= np.linalg.norm(psi)
        rho0 = JointDensity(np.outer(psi, psi.conj()))  # n_max = 6
        out = evolve_master(rho0, 0.1, 0.7)
        ref = dense_rk4(rho0.mat, 0.1, 0.7, steps=400)
        assert np.max(np.abs(out.mat - ref)) <= 1e-9

    def test_long_wait_reaches_steady_state(self):
        # the largest loss rate is 20.6 here, so q tau = 824 and e^{-q tau}
        # would underflow without splitting the wait into chunks
        rho0 = pure_density(split_vacuum_state(0.3, TruncationConfig(n_max=5)))
        out = evolve_master(rho0, 40.0, 0.7)
        assert abs(out.trace() - 1.0) < 1e-12
        assert np.max(np.abs(dissipator_apply(out, 0.7).mat)) < 1e-12

    def test_no_excitation_gain_at_zero_temp(self):
        rho0 = pure_density(split_vacuum_state(1.1))
        out = evolve_master(rho0, 0.5, 0.0)
        L = out.n_levels
        keep = {0, 1, L}  # |g,0>, |g,1>, |e,0>
        outside = sum(out.mat[i, i].real for i in range(2 * L) if i not in keep)
        assert outside < 1e-10

    def test_physicality_long_duration(self):
        rho0 = pure_density(split_vacuum_state(0.2))
        out = evolve_master(rho0, 2.0, 0.7)
        assert_physical_density(out.mat)

    def test_zero_duration_identity(self):
        rho0 = pure_density(split_vacuum_state(0.2))
        out = evolve_master(rho0, 0.0, 0.0)
        assert out is rho0

    def test_negative_duration_rejected(self):
        rho0 = pure_density(split_vacuum_state(0.0))
        with pytest.raises(ValueError):
            evolve_master(rho0, -0.1, 0.0)


@pytest.mark.parametrize("T", [0.0, 0.1])
def test_negative_nbar_rejected(T):
    rho0 = pure_density(split_vacuum_state(0.0))
    with pytest.raises(ValueError, match="nbar"):
        dissipator_apply(rho0, -0.1)
    with pytest.raises(ValueError, match="nbar"):
        evolve_master(rho0, T, -0.1)
    with pytest.raises(ValueError, match="nbar"):
        master_fringe(T, -0.1)


@pytest.mark.parametrize("T", [math.nan, math.inf])
def test_non_finite_wait_rejected(T):
    # NaN fails every comparison, so a bare `T < 0` check lets it through
    rho0 = pure_density(split_vacuum_state(0.0))
    with pytest.raises(ValueError, match="T must be finite"):
        evolve_master(rho0, T, 0.0)
    with pytest.raises(ValueError, match="T must be finite"):
        master_fringe(T, 0.7)


@pytest.mark.parametrize("call", [
    lambda x: jc_evolve(x, 0.5),
    lambda x: evolve_master(x, 0.0, 0.0),
    lambda x: evolve_master(x, 0.1, 0.0),
    lambda x: dissipator_apply(x, 0.0),
], ids=["jc_evolve", "evolve_master_T0", "evolve_master_T", "dissipator_apply"])
@pytest.mark.parametrize("state", [np.eye(4), split_vacuum_state(0.3)],
                         ids=["matrix", "amplitudes"])
def test_wrong_state_kind_is_type_error(call, state):
    # refused before any work, so T = 0 cannot hand the input back unchecked
    with pytest.raises(TypeError, match="JointDensity, got <class 'numpy.ndarray'>"):
        call(state)


@pytest.mark.parametrize("T", [math.nan, math.inf, -0.1])
@pytest.mark.parametrize("closed_form", [
    lambda T: zero_temp_wait(0.3, T),
    lambda T: setup2_pg(0.3, T),
    zero_temp_visibility_closed_form,
    zero_temp_visibility_derived,
], ids=["zero_temp_wait", "setup2_pg", "visibility_closed_form",
        "visibility_derived"])
def test_closed_forms_refuse_bad_wait(closed_form, T):
    with pytest.raises(ValueError, match="T must be finite"):
        closed_form(T)


class TestSplitVacuumState:
    def test_structure(self):
        phi = 0.9
        s = split_vacuum_state(phi)
        L = s.shape[1]
        flat = s.reshape(-1)
        assert abs(flat[L] - 1.0 / math.sqrt(2.0)) < 1e-12        # |e, 0>
        assert abs(flat[1] - np.exp(1j * phi) / math.sqrt(2.0)) < 1e-12  # |g, 1>
        assert abs(np.vdot(s, s).real - 1.0) < 1e-12

    @pytest.mark.parametrize("n_max", [1, 8, 30])
    @pytest.mark.parametrize("phi", [0.0, 0.9, -2.3, 7.0])
    def test_matches_dense_pulse(self, phi, n_max):
        # the branch formula on the vacuum row gives the dense doublet
        # rotation of |e, 0> bit for bit
        L = n_max + 1
        e0 = np.zeros(2 * L, dtype=complex)
        e0[L] = 1.0
        dense = (doublet_unitary(L, DEFAULT_OMEGA_CHI) @ e0).reshape(2, L)
        s = split_vacuum_state(phi, TruncationConfig(n_max=n_max))
        assert np.array_equal(s, stark_phase(dense, phi + math.pi / 2.0))


class TestSetup2:
    def test_undamped_fringe_is_cos_squared(self):
        for phi in np.linspace(-math.pi, math.pi, 17):
            assert setup2_pg(phi, 0.0) == pytest.approx(
                math.cos(phi / 2.0) ** 2, abs=1e-12)

    def test_sinusoid_fit_residual(self):
        T = 0.3
        phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        p = np.array([setup2_pg(phi, T) for phi in phis])
        design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
        coef, *_ = np.linalg.lstsq(design, p, rcond=None)
        residual = np.max(np.abs(design @ coef - p))
        assert residual < 1e-9

    def test_fringe_visibility_matches_derived_formula(self):
        for T in (0.008, 0.2, 0.7):
            pattern = setup2_fringe(T)
            assert abs(pattern.visibility - zero_temp_visibility_derived(T)) < 1e-9

    def test_printed_form_is_defective(self):
        # documents why the transcribed compact fringe is excluded from oracles
        assert setup2_pg_printed_form(-0.5, 0.0) < 0.0


class TestVisibilityFormulas:
    def test_unit_at_zero_wait(self):
        assert zero_temp_visibility_closed_form(0.0) == pytest.approx(1.0)
        assert zero_temp_visibility_derived(0.0) == pytest.approx(1.0)

    def test_reference_values(self):
        assert zero_temp_visibility_closed_form(0.008) == pytest.approx(
            0.9881, abs=5e-4)
        assert zero_temp_visibility_closed_form(0.4) == pytest.approx(
            0.575461, abs=1e-5)

    def test_discrepancy_within_documented_band(self):
        compact = zero_temp_visibility_closed_form(0.008)
        derived = zero_temp_visibility_derived(0.008)
        assert 0.0 < compact - derived < 0.005


class TestMasterFringe:
    def test_matches_zero_temp_derived(self):
        T = 0.05
        pattern = master_fringe(T, 0.0)
        assert abs(pattern.visibility - zero_temp_visibility_derived(T)) < 1e-8

    def test_visibility_decreases_with_temperature(self):
        T = 0.1
        assert master_fringe(T, 0.7).visibility < master_fringe(T, 0.0).visibility

    def test_physical_probabilities(self):
        pattern = master_fringe(0.2, 0.5)
        assert np.all(pattern.p_g >= 0.0)
        assert np.all(pattern.p_g <= 1.0)

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError, match="T must be"):
            master_fringe(-0.1, 0.0)

    def test_subnormal_wait_is_the_undamped_fringe(self):
        # a subnormal numpy wait gives a subnormal Poisson mean, where numpy
        # scalar division overflows with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = master_fringe(np.float64(5e-324), 0.7).visibility
        assert abs(v - master_fringe(0.0, 0.7).visibility) <= 1e-15


def per_phi_fringe(T, nbar, phi_grid, omega_chi=DEFAULT_OMEGA_CHI):
    """The oracle as one chain per phi: split state, wait, second pulse, trace.

    The reference for `master_fringe`: every phi is propagated separately, so
    it does not rely on the wait commuting with the phase. n_max is
    master_fringe's choice from the thermal feeding rate.
    """
    n_max = 12
    if nbar > 0:
        n_max = max(12, math.ceil(math.log(1e-12) / math.log(nbar / (1 + nbar))))
    trunc = TruncationConfig(n_max=n_max)
    p_g = []
    for phi in phi_grid:
        rho = pure_density(split_vacuum_state(phi - math.pi / 2.0, trunc))
        rho = jc_evolve(evolve_master(rho, T, nbar), omega_chi)
        p_g.append(np.trace(rho.mat[:trunc.n_levels, :trunc.n_levels]).real)
    return np.clip(p_g, 0.0, 1.0)


class TestPerPhiCrossCheck:
    """master_fringe's one propagation against a propagation per phi."""

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.95),
           st.floats(min_value=0.1, max_value=1.5))
    @settings(max_examples=20, deadline=None)
    def test_matches_per_phi_chain(self, T, nbar, omega_chi):
        pattern = master_fringe(T, nbar, omega_chi=omega_chi)
        ref = per_phi_fringe(T, nbar, pattern.phis, omega_chi)
        assert np.max(np.abs(pattern.p_g - ref)) <= 1e-14

    @pytest.mark.parametrize("T", (0.0,) + T_GRID)
    def test_matches_per_phi_chain_on_setup2_grid(self, T):
        # run_setup2's 65-point fringe at nbar = 0
        grid = np.linspace(0.0, 2.0 * math.pi, 65)
        pattern = master_fringe(T, 0.0, phi_grid=grid)
        assert np.max(np.abs(pattern.p_g - per_phi_fringe(T, 0.0, grid))) <= 1e-14


class TestOracleProperties:
    """Properties of the brute-force fringe over the box the series covers."""

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.95),
           st.floats(min_value=0.1, max_value=1.5))
    @settings(max_examples=20, deadline=None)
    def test_fringe_is_affine_in_phase(self, T, nbar, omega_chi):
        # only the ge coherence carries phi, so P_g = c0 + Re(c1 e^{i phi})
        pattern = master_fringe(T, nbar, omega_chi=omega_chi)
        phis = pattern.phis
        design = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
        coef, *_ = np.linalg.lstsq(design, pattern.p_g, rcond=None)
        assert np.max(np.abs(design @ coef - pattern.p_g)) <= 1e-13

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=4),
           st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=15, deadline=None)
    def test_visibility_non_increasing_in_wait(self, waits, nbar):
        v = [master_fringe(T, nbar).visibility for T in sorted(waits)]
        # equal or nearly equal waits may differ by rounding only
        assert np.all(np.diff(v) <= 1e-13)


def test_random_evolutions_stay_physical(rng):
    # broader randomized sweep lives in the acceptance suite
    for _ in range(10):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        T = rng.uniform(0.01, 1.0)
        nbar = rng.uniform(0.0, 0.9)
        rho0 = pure_density(split_vacuum_state(phi))
        out = evolve_master(rho0, T, nbar)
        assert_physical_density(out.mat)
        assert isinstance(out, JointDensity)
