import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey.errors import NoRootFound, TailTooLarge, TruncationLeak
from cavity_ramsey.experiments import SETUP1_BLOCK, run_setup1
from cavity_ramsey.fock import (
    TruncationConfig,
    _abs_square,
    coherent_magnitudes,
    coherent_state,
    squared_norms,
    widened_truncation,
)
from cavity_ramsey.jc import (
    PI_HALF_RESIDUAL_TOL,
    _pi_half_areas,
    branch_amplitudes,
    branch_states,
    doublet_unitary,
    jc_evolve,
    solve_pi_half_time,
)
from dense_reference import E, G, pure_density, stark_phase

# sorted photon numbers in [0, 20] that always hold the vacuum and a repeat
PHOTON_NUMBERS = st.lists(
    st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=24,
).map(lambda ns: sorted([0.0, ns[0], *ns]))


# solve_pi_half_time(sqrt(N)) at the default truncation, as float.hex: the
# areas are pinned to their bits, so a change to the solver's arithmetic that
# moves any of them fails here
PI_HALF_AREAS_HEX = {
    0.01: "0x1.90943b3196ab2p-1",
    0.5: "0x1.51d038a791601p-1",
    1.0: "0x1.25dfddbadea1cp-1",
    2.0: "0x1.de37150cca594p-2",
    5.0: "0x1.4e51cd9b048a1p-2",
    10.0: "0x1.ea23befa7d70dp-3",
    20.0: "0x1.610658f15bb09p-3",
    200.0: "0x1.c61972481dd63p-5",
}


def pi_half_area_one_alpha(alpha, trunc):
    """(area, evaluations, |f| at the area) from a scalar curvature-step loop
    over one alpha.

    The reference for the array solver `_pi_half_areas`: the same rule, written
    one alpha and one float at a time. It steps in the pulse angle
    theta_n = t sqrt(n+1) on the real row r = |c|:
    f = sum (r cos theta)^2 - 1/2 and f' = -2 sum sqrt(n+1) (r cos theta)(r sin theta).
    """
    r = np.abs(coherent_state(alpha, trunc))
    n1 = np.arange(trunc.n_levels) + 1.0
    sq = np.sqrt(n1)
    norm2 = float(np.sum(r * r))
    bound = 2.0 * float(np.sum(r * r * n1))
    t, f, df = 0.0, norm2 - 0.5, 0.0
    for evaluations in range(1, 101):
        if abs(f) < PI_HALF_RESIDUAL_TOL:
            return t, evaluations, abs(f)
        t += 2.0 * f / (math.sqrt(df * df + 2.0 * bound * f) - df)
        assert t <= 4.0 * math.pi
        theta = t * sq
        a_e = r * np.cos(theta)
        a_s = r * np.sin(theta)
        f = float(np.sum(a_e * a_e)) - 0.5
        df = -2.0 * float(np.sum(a_e * a_s * sq))
    raise AssertionError("curvature steps did not converge")


def bisection_area_one_alpha(alpha, trunc):
    """The pi/2 area from an independent bracket-and-bisect loop: the first
    sign change of f on a grid of step pi / (64 sqrt(N+1)), bisected until
    |f| < PI_HALF_RESIDUAL_TOL."""
    c2 = np.abs(coherent_state(alpha, trunc)) ** 2
    sq = np.sqrt(np.arange(trunc.n_levels) + 1.0)

    def f(t):
        return float(np.sum(c2 * np.cos(t * sq) ** 2)) - 0.5

    step = math.pi / (64.0 * math.sqrt(abs(alpha) ** 2 + 1.0))
    lo, f_lo = 0.0, f(0.0)
    t = step
    while True:
        assert t <= 4.0 * math.pi
        f_t = f(t)
        if f_lo > 0.0 >= f_t or f_lo < 0.0 <= f_t:
            hi = t
            break
        lo, f_lo = t, f_t
        t += step
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) < PI_HALF_RESIDUAL_TOL:
            return mid
        if (f_lo > 0) == (f_mid > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise AssertionError("bisection stalled")



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
        # a unitary pulse keeps a pure state's trace and purity
        trunc = TruncationConfig(n_max=40)
        rho = pure_density(np.outer([0.0, 1.0], coherent_state(1.5, trunc)))
        out = jc_evolve(rho, 0.8)
        assert np.trace(out).real == pytest.approx(np.trace(rho).real, abs=1e-12)
        assert np.trace(out @ out).real == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_composition(self, t1, t2):
        trunc = TruncationConfig(n_max=30)
        rho = pure_density(np.outer([0.6, 0.8], coherent_state(1.0, trunc)))
        two_step = jc_evolve(jc_evolve(rho, t1), t2)
        one_step = jc_evolve(rho, t1 + t2)
        assert np.max(np.abs(two_step - one_step)) < 1e-9

    def test_density_trace_hermiticity(self):
        trunc = TruncationConfig(n_max=20)
        rho = pure_density(np.outer([0.0, 1.0], coherent_state(0.8, trunc)))
        out = jc_evolve(rho, 1.1)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_truncation_leak_raises(self):
        amps = np.zeros((2, 5), dtype=complex)
        amps[E, -1] = 1.0  # all weight on |e, n_max>
        with pytest.raises(TruncationLeak):
            jc_evolve(pure_density(amps), 0.5)

    def test_negative_duration_rejected(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[G, 0] = 1.0
        with pytest.raises(ValueError):
            jc_evolve(pure_density(amps), -1.0)


class TestBranchStates:
    @pytest.mark.parametrize("alpha", [0.0, 0.7, 1.5, 2.5 + 0.5j])
    def test_cross_check_against_evolve(self, alpha):
        # branch_states is closed form; doublet_unitary is the dense matrix
        # path, and jc_evolve applies it to densities; n_max leaves headroom
        # so the top-level edge effects sit below 1e-10
        trunc = TruncationConfig(n_max=60)
        t = 0.6
        a_e, a_g = branch_states(alpha, t, trunc)
        state = np.outer([0.0, 1.0], coherent_state(alpha, trunc))
        U = doublet_unitary(trunc.n_levels, t)
        evolved = (U @ state.reshape(-1)).reshape(2, -1)
        assert np.max(np.abs(evolved[E] - a_e)) < 1e-10
        assert np.max(np.abs(evolved[G] - a_g)) < 1e-10
        branches = pure_density(np.stack([a_g, a_e]))
        rho = jc_evolve(pure_density(state), t)
        assert np.max(np.abs(rho - branches)) < 1e-10

    def test_default_truncation_squares_alpha_as_coherent_state(self):
        # the default widening of coherent_state (`fock._abs_square`): 1e200
        # is refused with a ValueError, not a bare OverflowError
        with pytest.raises(ValueError, match="finite"):
            branch_states(1e200, 0.5)
        for alpha in (0.0, 2.5 + 0.5j, 7.0, -6.5j):
            trunc = widened_truncation(_abs_square(alpha), TruncationConfig())
            for default, explicit in zip(branch_states(alpha, 0.6),
                                         branch_states(alpha, 0.6, trunc)):
                assert default.shape == (trunc.n_levels,)
                assert np.array_equal(default, explicit)

    def test_norms_sum_to_one(self):
        trunc = TruncationConfig(n_max=50)
        a_e, a_g = branch_states(1.8, 0.9, trunc)
        total = np.vdot(a_e, a_e).real + np.vdot(a_g, a_g).real
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_solver_refuses_an_overnormalized_row_in_a_block(self):
        # the pulse solver applies branch_amplitudes' norm check to each row
        alphas = np.sqrt([0.5, 3.0, 9.0])
        r = coherent_magnitudes(alphas, TruncationConfig())
        r[1] *= 1.01
        with pytest.raises(ValueError, match="squared norm 1.0201.* exceeds 1"):
            _pi_half_areas(alphas, r)

    def test_refuses_an_overnormalized_row(self):
        with pytest.raises(ValueError, match="squared norm 1.25 exceeds 1"):
            branch_amplitudes(np.array([1.0, 0.5]), 0.3)
        # one check per block: a single bad row refuses the block
        with pytest.raises(ValueError, match="squared norm 1.25 exceeds 1"):
            branch_amplitudes(np.array([[1.0, 0.0], [1.0, 0.5]]), np.array([0.3, 0.3]))


@pytest.mark.parametrize("area", [math.nan, math.inf, -math.inf])
def test_non_finite_area_is_refused(area):
    # refused before any cosine of it is taken, so with no RuntimeWarning
    amps = np.zeros((2, 4), dtype=complex)
    amps[E, 0] = 1.0
    c = coherent_magnitudes(np.array([0.5, 1.0]), TruncationConfig(n_max=20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pulse area must be finite"):
            jc_evolve(pure_density(amps), area)
        with pytest.raises(ValueError, match="pulse area must be finite"):
            branch_amplitudes(c[0], area)
        with pytest.raises(ValueError, match=f"pulse area must be finite, got {area}"):
            branch_amplitudes(c, np.array([0.3, area]))


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
        assert abs(np.vdot(a_e, a_e).real - 0.5) < 1e-9
        assert abs(np.vdot(a_g, a_g).real - 0.5) < 1e-9
        assert abs(squared_norms(branch_states(alpha, t, trunc)[0]) - 0.5) < 1e-9

    def test_first_root_is_shortest(self):
        # for the vacuum the roots are odd multiples of pi/4
        t = solve_pi_half_time(0.0, TruncationConfig(n_max=4))
        assert t < math.pi / 2.0

    @given(PHOTON_NUMBERS)
    @settings(max_examples=40, deadline=None)
    def test_array_equals_scalar_calls_bit_for_bit(self, n_values):
        trunc = TruncationConfig()
        areas = solve_pi_half_time(np.sqrt(n_values), trunc)
        assert isinstance(areas, np.ndarray) and areas.shape == (len(n_values),)
        assert areas.tolist() == [solve_pi_half_time(math.sqrt(n), trunc)
                                  for n in n_values]

    @given(PHOTON_NUMBERS)
    @settings(max_examples=20, deadline=None)
    def test_rows_match_the_scalar_loop(self, n_values):
        # same areas, bit for bit, the same count of evaluations and the
        # same largest residual
        trunc = TruncationConfig()
        alphas = np.sqrt(n_values)
        areas, evaluations, residual, _ = _pi_half_areas(
            alphas, coherent_magnitudes(alphas, trunc))
        reference = [pi_half_area_one_alpha(math.sqrt(n), trunc) for n in n_values]
        assert areas.tolist() == [area for area, _, _ in reference]
        assert evaluations == sum(e for _, e, _ in reference)
        assert residual == pytest.approx(max(r for _, _, r in reference), abs=1e-15)

    @given(PHOTON_NUMBERS)
    @settings(max_examples=20, deadline=None)
    def test_areas_match_the_bisection(self, n_values):
        trunc = TruncationConfig()
        areas = solve_pi_half_time(np.sqrt(n_values), trunc)
        reference = [bisection_area_one_alpha(math.sqrt(n), trunc) for n in n_values]
        assert np.max(np.abs(areas - reference)) <= 1e-9

    def test_areas_match_the_bisection_up_to_n_20000(self):
        n_values = np.concatenate([[0.0], np.geomspace(0.01, 20000.0, 24)])
        trunc = widened_truncation(20000.0, TruncationConfig())
        areas = solve_pi_half_time(np.sqrt(n_values), trunc)
        reference = [bisection_area_one_alpha(math.sqrt(n), trunc) for n in n_values]
        assert np.max(np.abs(areas - reference)) <= 1e-9

    @given(st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_no_crossing_before_the_area(self, n_mean, phase):
        # f > 0 on a dense grid up to just short of the area, with f taken
        # from the coherent state directly: the area is the first root
        alpha = math.sqrt(n_mean) * cmath.exp(1j * phase)
        trunc = TruncationConfig()
        area = solve_pi_half_time(alpha, trunc)
        c2 = np.abs(coherent_state(alpha, trunc)) ** 2
        sq = np.sqrt(np.arange(trunc.n_levels) + 1.0)
        grid = np.linspace(0.0, area * (1.0 - 1e-9), 2001)
        f = np.cos(np.outer(grid, sq)) ** 2 @ c2 - 0.5
        assert np.all(f > 0.0)

    @pytest.mark.parametrize("n_values", [
        np.sort(np.random.default_rng(1).uniform(0.0, 20.0, 1601)),
        np.arange(20000.0, 20000.0 + SETUP1_BLOCK),
    ], ids=["scan-1601", "block-20000"])
    def test_at_most_eight_evaluations_per_n(self, n_values):
        trunc = widened_truncation(float(n_values[-1]), TruncationConfig())
        alphas = np.sqrt(n_values)
        _, evaluations, _, _ = _pi_half_areas(alphas, coherent_magnitudes(alphas, trunc))
        assert evaluations <= 8 * len(n_values)

    def test_diagnostics_accumulate_across_calls(self):
        # run_setup1 solves three blocks; a row's steps do not depend on the
        # other rows, so its diagnostics are those of one call on every N
        n_values = np.linspace(0.0, 20.0, 2 * SETUP1_BLOCK + 1)
        report = run_setup1(n_values)
        trunc = widened_truncation(20.0, TruncationConfig())
        alphas = np.sqrt(n_values)
        _, evaluations, residual, _ = _pi_half_areas(alphas, coherent_magnitudes(alphas, trunc))
        diagnostics = report.meta["diagnostics"]
        assert diagnostics["pulse_solver_evaluations"] == evaluations
        assert diagnostics["max_pi_half_residual"] == residual

    @pytest.mark.parametrize("n_mean", sorted(PI_HALF_AREAS_HEX))
    def test_areas_keep_their_bits(self, n_mean):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # N = 200 widens n_max
            area = solve_pi_half_time(math.sqrt(n_mean))
        assert area.hex() == PI_HALF_AREAS_HEX[n_mean]

    def test_areas_match_a_40_digit_root(self):
        # the pinned N and 50 seeded N in [0, 20]: each area is within 2e-15
        # relative of the first root of the truncated condition
        # sum c_n^2 cos^2(t sqrt(n+1)) = 1/2 on the same float rows, found
        # with 40 digits from the area
        n_values = sorted(PI_HALF_AREAS_HEX) + np.random.default_rng(27).uniform(
            0.0, 20.0, 50).tolist()
        with mpmath.workdps(40):
            for n_mean in n_values:
                trunc = widened_truncation(n_mean, TruncationConfig())
                area = solve_pi_half_time(math.sqrt(n_mean), trunc)
                c2 = [mpmath.mpf(x) ** 2
                      for x in np.abs(coherent_state(math.sqrt(n_mean), trunc)).tolist()]
                sq = [mpmath.sqrt(n + 1) for n in range(trunc.n_levels)]
                root = mpmath.findroot(
                    lambda t: mpmath.fsum(a * mpmath.cos(t * s) ** 2
                                          for a, s in zip(c2, sq)) - 0.5,
                    mpmath.mpf(area))
                assert abs(area - root) <= 2e-15 * root, n_mean

    def test_default_scan_keeps_its_evaluation_count(self):
        # the first evaluation, at t = 0, is counted although it needs no
        # trigonometry, so the report's count does not move with that
        assert run_setup1().meta["diagnostics"]["pulse_solver_evaluations"] == 42

    def test_areas_do_not_depend_on_the_phase(self):
        # the solver sees only the magnitude rows, so alpha and abs(alpha)
        # (Python's, as the rows take it) give the same area, bit for bit
        rng = np.random.default_rng(28)
        alphas = (np.sqrt(rng.uniform(0.0, 20.0, 200))
                  * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 200))).tolist()
        trunc = TruncationConfig()
        mags = [abs(a) for a in alphas]
        assert [solve_pi_half_time(a, trunc) for a in alphas[:50]] == [
            solve_pi_half_time(m, trunc) for m in mags[:50]]
        assert (solve_pi_half_time(np.array(alphas), trunc).tobytes()
                == solve_pi_half_time(np.array(mags), trunc).tobytes())

    def test_refuses_an_alpha_whose_square_overflows(self):
        # a ValueError naming the alpha, not a bare OverflowError
        with pytest.raises(ValueError, match=r"alpha=1e\+200"):
            solve_pi_half_time(1e200, TruncationConfig())
        with pytest.raises(ValueError, match=r"alpha=1e\+200"):
            solve_pi_half_time(np.array([0.5, 1e200]), TruncationConfig())

    def test_default_truncation_squares_alpha_as_coherent_state(self):
        # |alpha|^2 as Python's abs and ** give it (`fock._abs_square`), as
        # in coherent_state's default: 1e200 is refused with a ValueError,
        # not an overflow warning, and every other alpha gets the widened
        # truncation of that square
        with pytest.raises(ValueError, match="finite"):
            solve_pi_half_time(1e200)
        with pytest.raises(ValueError, match="finite"):
            solve_pi_half_time(np.array([0.5, 1e200]))
        rng = np.random.default_rng(29)
        alphas = rng.uniform(0.0, 8.0, 12) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 12))
        for alpha in alphas.tolist():
            trunc = widened_truncation(_abs_square(alpha), TruncationConfig())
            assert solve_pi_half_time(alpha) == solve_pi_half_time(alpha, trunc)
        top = max(_abs_square(a) for a in alphas.tolist())
        trunc = widened_truncation(top, TruncationConfig())
        assert trunc.n_max > TruncationConfig().n_max
        assert (solve_pi_half_time(alphas).tobytes()
                == solve_pi_half_time(alphas, trunc).tobytes())

    def test_scalar_returns_float_and_empty_array_empty(self):
        trunc = TruncationConfig(n_max=20)
        assert type(solve_pi_half_time(1.0, trunc)) is float
        assert solve_pi_half_time(np.array([]), trunc).shape == (0,)

    def test_array_refuses_a_row_with_too_large_a_tail(self):
        # a mean of 9 discards far more than tail_tol at n_max = 8, as the
        # scalar call reports
        trunc = TruncationConfig(n_max=8)
        with pytest.raises(TailTooLarge):
            solve_pi_half_time(3.0, trunc)
        with pytest.raises(TailTooLarge, match="alpha\\|\\^2=9"):
            solve_pi_half_time(np.array([0.0, 0.5, 3.0, 0.1]), trunc)

    def test_nan_has_no_crossing(self):
        # a NaN alpha is refused with its coherent magnitudes, before the scan
        with pytest.raises(ValueError, match="alpha=nan"):
            solve_pi_half_time(float("nan"), TruncationConfig())

    def test_no_crossing_names_the_alpha(self):
        with pytest.raises(ValueError, match="alpha=nan"):
            solve_pi_half_time(np.array([0.0, 1.0, math.nan]), TruncationConfig())

    def test_scan_stops_on_a_nan_row(self):
        # the step loop's own guard: a NaN alpha makes f, and so the step
        # and the next area, NaN; the loop must stop, not run on
        c = coherent_magnitudes(np.array([0.0, 1.0]), TruncationConfig(n_max=20))
        c[1] = math.nan
        with pytest.raises(NoRootFound, match="alpha=nan"):
            _pi_half_areas(np.array([0.0, math.nan]), c)

class TestStarkPhase:
    def test_vector_density_consistency(self):
        # the amplitude map agrees with the dense phase operator on densities
        trunc = TruncationConfig(n_max=10)
        state = np.outer([0.6, 0.8], coherent_state(0.5, trunc))
        phi = 1.234
        P = np.diag(np.repeat([np.exp(1j * phi), 1.0], trunc.n_levels))
        before = state.copy()
        via_vector = pure_density(stark_phase(state, phi))
        via_density = P @ pure_density(state) @ P.conj().T
        assert np.max(np.abs(via_vector - via_density)) < 1e-12
        assert np.array_equal(state, before)  # the input is left alone

    def test_only_relative_phase(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[G, 1] = amps[E, 0] = 1.0 / math.sqrt(2.0)
        out = stark_phase(amps, 0.9)
        assert out[E, 0] == pytest.approx(amps[E, 0])
        assert out[G, 1] == pytest.approx(amps[G, 1] * np.exp(0.9j))
