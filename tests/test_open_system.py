import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey import open_system
from cavity_ramsey.errors import TruncationLeak
from cavity_ramsey.fock import TruncationConfig, poisson_cutoff
from cavity_ramsey.jc import DEFAULT_OMEGA_CHI, doublet_unitary, jc_evolve
from cavity_ramsey.open_system import (
    evolve_master,
    master_fringe,
    master_visibility,
    setup2_pg,
    zero_temp_visibility_closed_form,
    zero_temp_visibility_derived,
    zero_temp_wait,
)
from dense_reference import (
    assert_physical_density,
    density_from_chain,
    pure_density,
    split_vacuum_state,
    stark_phase,
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


def stencil_generator(mat, nbar):
    """D(rho) of a (2L, 2L) array, from the package's stencil weights."""
    L = mat.shape[0] // 2
    loss, down, up = (w.reshape(-1) for w in open_system._stencil(L, nbar))
    out = open_system._apply(mat.reshape(-1), -loss, down, up, 2 * L + 1)
    return out.reshape(mat.shape)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


class TestDissipator:
    def test_thermal_state_is_fixed_point(self):
        nbar, L = 0.4, 41
        p = (nbar / (1.0 + nbar)) ** np.arange(L)
        field = np.diag(p / p.sum())
        out = stencil_generator(np.kron(np.diag([0.5, 0.5]), field).astype(complex), nbar)
        # fixed point away from the truncation edge, in both atomic blocks
        assert np.max(np.abs(out.reshape(2, L, 2, L)[:, :30, :, :30])) < 1e-10

    def test_traceless(self):
        rho = pure_density(split_vacuum_state(0.3))
        assert abs(np.trace(stencil_generator(rho, 0.7))) < 1e-12

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
            out = stencil_generator(mat, nbar)
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestEvolveMaster:
    @pytest.mark.parametrize("T", T_GRID)
    def test_zero_temp_matches_closed_form_entrywise(self, T):
        phi = 0.7
        rho0 = pure_density(split_vacuum_state(phi))
        out = evolve_master(rho0, T, 0.0)
        ref = density_from_chain(zero_temp_wait(phi, T))
        assert np.max(np.abs(out - ref)) < 1e-8

    @pytest.mark.parametrize("T", T_GRID)
    def test_zero_temp_matches_closed_form_to_rounding(self, T):
        phi = 0.7
        rho0 = pure_density(split_vacuum_state(phi))
        out = evolve_master(rho0, T, 0.0)
        ref = density_from_chain(zero_temp_wait(phi, T))
        assert np.max(np.abs(out - ref)) <= 1e-13

    def test_matches_dense_rk4(self, rng):
        psi = rng.normal(size=14) + 1j * rng.normal(size=14)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())  # n_max = 6
        for T in (0.01, 0.1, 0.5):
            for nbar in (0.0, 0.3, 0.95):
                out = evolve_master(rho0, T, nbar)
                ref = dense_rk4(rho0, T, nbar, steps=400)
                assert np.max(np.abs(out - ref)) <= 1e-9, (T, nbar)

    def test_long_wait_reaches_steady_state(self):
        # the largest loss rate is 20.6 here, so q tau = 824 and e^{-q tau}
        # underflows: the Poisson weights are anchored at their mode instead
        rho0 = pure_density(split_vacuum_state(0.3, TruncationConfig(n_max=5)))
        out = evolve_master(rho0, 40.0, 0.7)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(stencil_generator(out, 0.7))) < 1e-12

    def test_no_excitation_gain_at_zero_temp(self):
        rho0 = pure_density(split_vacuum_state(1.1))
        out = evolve_master(rho0, 0.5, 0.0)
        L = out.shape[0] // 2
        keep = {0, 1, L}  # |g,0>, |g,1>, |e,0>
        outside = sum(out[i, i].real for i in range(2 * L) if i not in keep)
        assert outside < 1e-10

    def test_physicality_long_duration(self):
        rho0 = pure_density(split_vacuum_state(0.2))
        out = evolve_master(rho0, 2.0, 0.7)
        assert_physical_density(out)

    def test_zero_duration_identity(self):
        rho0 = pure_density(split_vacuum_state(0.2))
        out = evolve_master(rho0, 0.0, 0.0)
        assert np.array_equal(out, rho0)

    def test_negative_duration_rejected(self):
        rho0 = pure_density(split_vacuum_state(0.0))
        with pytest.raises(ValueError):
            evolve_master(rho0, -0.1, 0.0)


@pytest.mark.parametrize("T", [0.0, 0.1])
def test_negative_nbar_rejected(T):
    rho0 = pure_density(split_vacuum_state(0.0))
    with pytest.raises(ValueError, match="nbar"):
        evolve_master(rho0, T, -0.1)
    with pytest.raises(ValueError, match="nbar"):
        master_fringe(T, -0.1)


@pytest.mark.parametrize("T", [0.0, 0.1])
@pytest.mark.parametrize("nbar", [math.nan, math.inf, -math.inf])
def test_non_finite_nbar_rejected(T, nbar):
    rho0 = pure_density(split_vacuum_state(0.0))
    message = "nbar must be finite and >= 0"
    with pytest.raises(ValueError, match=message):
        evolve_master(rho0, T, nbar)
    with pytest.raises(ValueError, match=message):
        master_fringe(T, nbar, trunc=TruncationConfig(n_max=12))
    with pytest.raises(ValueError, match=message):
        master_visibility(T, nbar)
    with pytest.raises(ValueError, match=message):
        master_visibility(np.array([0.0, T]), nbar)


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
    lambda x: jc_evolve(x, math.nan),
    lambda x: evolve_master(x, math.nan, -1.0),
], ids=["jc_evolve", "evolve_master_T0", "evolve_master_T", "jc_evolve_bad_area",
        "evolve_master_bad_wait"])
@pytest.mark.parametrize("state", [np.eye(5), split_vacuum_state(0.3), np.ones(8)],
                         ids=["odd", "amplitudes", "flat"])
def test_wrong_state_shape_is_value_error(call, state):
    # refused before any work, the other arguments' checks included, so
    # T = 0 cannot hand the input back unchecked
    with pytest.raises(ValueError, match="joint density must be a square array"):
        call(state)


@pytest.mark.parametrize("omega_chi", [math.nan, math.inf, -math.inf])
def test_non_finite_pulse_area_rejected(omega_chi):
    # refused before a cosine of it is taken, so with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pulse area must be finite"):
            master_fringe(0.1, 0.5, omega_chi=omega_chi)
        with pytest.raises(ValueError, match="pulse area must be finite"):
            master_visibility(np.array([0.0, 0.1]), 0.5, omega_chi=omega_chi)


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


@pytest.mark.parametrize("T", T_GRID)
def test_zero_temp_wait_is_a_chain(T):
    # four nonzero entries of the 3L + 1, read back unchanged from the dense
    # density they stand for
    chain = zero_temp_wait(0.7, T)
    L = TruncationConfig(n_max=8).n_levels
    assert chain.shape == (3 * L + 1,)
    assert np.flatnonzero(chain).tolist() == [0, 1, L, 2 * L + 1]
    dense = density_from_chain(chain)
    assert np.array_equal(open_system._chain(dense), chain)
    assert_physical_density(dense)


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

    @pytest.mark.parametrize("n_max", [1, 8, 12, 32, 60])
    def test_closed_form_start_matches_the_pulse_pipeline(self, n_max):
        # the oracle starts from zero_temp_wait at T = 0; the pulse and
        # Stark-phase pipeline builds the same chain up to the rounding of
        # cos(pi/4)^2, sin(pi/4)^2 and e^{-i pi/2}
        trunc = TruncationConfig(n_max=n_max)
        pipeline = open_system._chain(
            pure_density(split_vacuum_state(-math.pi / 2.0, trunc)))
        closed = zero_temp_wait(-math.pi / 2.0, 0.0, trunc.n_levels)
        assert closed.shape == pipeline.shape
        assert np.max(np.abs(closed - pipeline)) <= 2.3e-16


def test_zero_temperature_oracle_matches_mpmath():
    # at nbar = 0 the oracle's visibility is 2 e^{-T} / (3 - e^{-2T}); the
    # bound is the worst error over [0, 3] of an oracle started from the
    # pulse pipeline's chain, so the closed-form start is no less accurate
    ts = np.linspace(0.0, 3.0, 301)
    v = master_visibility(ts, 0.0)
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpf(x) - 2 * mpmath.exp(-mpmath.mpf(T))
                        / (3 - mpmath.exp(-2 * mpmath.mpf(T))))
                    for T, x in zip(ts.tolist(), v.tolist()))
    assert worst <= 7.8e-16


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
        grid = np.linspace(0.0, 2.0 * math.pi, 65)
        for T in (0.008, 0.2, 0.7):
            pattern = master_fringe(T, 0.0, phi_grid=grid)
            assert abs(pattern.visibility - zero_temp_visibility_derived(T)) < 1e-9

    @pytest.mark.parametrize("T", (0.0,) + T_GRID)
    def test_matches_pulse_per_phi(self, T):
        # per phi: closed-form wait state, dense second pulse, trace; the
        # closed-form fringe and the nbar = 0 oracle fringe both match it
        grid = np.linspace(0.0, 2.0 * math.pi, 65)
        L = TruncationConfig(n_max=8).n_levels
        ref = np.array([
            np.trace(jc_evolve(density_from_chain(zero_temp_wait(phi - math.pi / 2.0, T)),
                               DEFAULT_OMEGA_CHI)[:L, :L]).real
            for phi in grid])
        assert np.max(np.abs([setup2_pg(phi, T) for phi in grid] - ref)) <= 1e-14
        pattern = master_fringe(T, 0.0, phi_grid=grid)
        assert np.array_equal(pattern.phis, grid)
        assert np.max(np.abs(pattern.p_g - np.clip(ref, 0.0, 1.0))) <= 1e-14

    def test_printed_form_is_defective(self):
        # the compact fringe as printed, 1/4 - e^{-2T}/4 + (e^{-T}/2) sin(phi),
        # goes negative at T = 0 for phi < 0, so no oracle uses it
        phi, T = -0.5, 0.0
        assert 0.25 - 0.25 * math.exp(-2.0 * T) + 0.5 * math.exp(-T) * math.sin(phi) < 0.0


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

    def test_top_level_leak_raises(self):
        # a 4-photon truncation cannot hold the thermal field at nbar 0.7
        with pytest.raises(TruncationLeak):
            master_fringe(0.4, 0.7, trunc=TruncationConfig(n_max=4))

    @pytest.mark.parametrize("points", [9, 65, 1001])
    def test_one_wait_whatever_the_grid(self, points, monkeypatch):
        # one propagation of the 3L + 1 chain entries (L = 33 levels at
        # nbar 0.7), with neighbour stride 1, serves any phi grid
        calls = []
        evolve = open_system._evolve

        def counted(x, weights, s, ts):
            calls.append((x.size, s, list(ts)))
            return evolve(x, weights, s, ts)

        monkeypatch.setattr(open_system, "_evolve", counted)
        grid = np.linspace(0.0, 2.0 * math.pi, points)
        assert master_fringe(0.1, 0.7, phi_grid=grid, omega_chi=0.9).p_g.size == points
        assert calls == [(3 * 33 + 1, 1, [0.1])]

    def test_subnormal_wait_is_the_undamped_fringe(self):
        # a subnormal numpy wait gives a subnormal Poisson mean, where numpy
        # scalar division overflows with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = master_fringe(np.float64(5e-324), 0.7).visibility
        assert abs(v - master_fringe(0.0, 0.7).visibility) <= 1e-15


def test_fringe_coefficients_match_a_pulse_per_phase(rng):
    # a random density, whose fringe need not be even in phi as the
    # package's fringes are; its |e, n_max> row and column stay empty
    L = 6
    a = random_matrix(rng, 2 * L)
    a[-1] = 0.0
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    c0, c1 = open_system._fringe_coefficients(open_system._chain(mat), 0.9)
    assert abs(c1.imag) > 1e-2
    for phi in np.linspace(0.0, 2.0 * math.pi, 13):
        m = mat.copy()
        m[:L, L:] *= np.exp(1j * phi)
        m[L:, :L] *= np.exp(-1j * phi)
        p_g = np.trace(jc_evolve(m, 0.9)[:L, :L]).real
        assert abs(c0 + (c1 * np.exp(1j * phi)).real - p_g) <= 1e-14


@pytest.mark.parametrize("T, nbar", [(0.3, 0.0), (3.0, 0.0), (0.4, 0.7), (3.0, 0.95),
                                     (12.0, 0.95), (40.0, 0.0)])
def test_waited_chain_is_the_dense_waits_chain(rng, T, nbar):
    # every entry of a random density is nonzero, so only the zero weights
    # across block edges keep the chain's neighbours out of other blocks;
    # at T = 12 and T = 40 the Poisson weight e^{-qT} of j = 0 underflows
    L = 14
    a = random_matrix(rng, 2 * L)
    mat = a @ a.conj().T
    mat /= np.trace(mat).real
    weights = [open_system._chain(w) for w in open_system._stencil(L, nbar)]
    if T > 3.0:
        assert math.exp(-float(weights[0].max()) * T) == 0.0
    [chain] = open_system._evolve(open_system._chain(mat), weights, 1, [T])
    dense = evolve_master(mat, T, nbar)
    assert np.array_equal(chain, open_system._chain(dense))


@pytest.mark.parametrize("mean", [0.0, 5e-324, 0.5, 6.0, 50.0, 858.0, 3000.0, 20000.0])
def test_poisson_weights_match_mpmath(mean):
    # the reference runs the recurrence p_j = p_{j-1} mean / j from e^{-mean}
    # in 40-digit arithmetic, where e^{-20000} does not underflow
    terms = poisson_cutoff(mean, open_system.SERIES_TAIL_TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = open_system._poisson_weights(mean, terms)
    with mpmath.workdps(40):
        p = mpmath.exp(-mpmath.mpf(mean))
        ref = [p]
        for j in range(1, terms + 1):
            p = p * mean / j
            ref.append(p)
        distance = float(mpmath.fsum(abs(w - r) for w, r in zip(weights, ref)))
    assert len(weights) == terms + 1
    assert distance <= 1e-15


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
       st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=20, deadline=None)
def test_visibility_sweep_matches_each_wait(waits, nbar):
    # one sweep serves every wait; each is certified by the longest's cutoff
    swept = master_visibility(np.array(waits), nbar)
    assert swept.shape == (len(waits),)
    for T, v in zip(waits, swept):
        assert abs(v - master_fringe(T, nbar).visibility) <= 1e-14


@pytest.mark.parametrize("T, nbar", [(0.0, 0.3), (0.04, 0.7), (1.0, 0.95)])
def test_scalar_visibility_is_the_fringes(T, nbar):
    # |c1| / c0 whatever grid the fringe is sampled on, down to one point
    v = master_visibility(T, nbar)
    assert type(v) is float
    assert v == master_fringe(T, nbar).visibility
    for grid in ([0.3], np.linspace(0.0, 2.0 * math.pi, 5), np.linspace(0.0, math.pi, 9),
                 np.linspace(0.0, 2.0 * math.pi, 9), np.linspace(0.0, 2.0 * math.pi, 65)):
        assert master_fringe(T, nbar, phi_grid=grid).visibility == v


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
        p_g.append(np.trace(rho[:trunc.n_levels, :trunc.n_levels]).real)
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
        assert_physical_density(out)
        assert isinstance(out, np.ndarray) and out.shape == rho0.shape
