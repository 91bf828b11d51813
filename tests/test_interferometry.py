import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey.fock import TruncationConfig
from cavity_ramsey.interferometry import (
    apply_detection,
    branch_overlap,
    fringe_scan_setup1,
    plus_minus_decomposition,
    sinusoid_fringe,
    visibility_from_pattern,
)
from cavity_ramsey.jc import branch_states, solve_pi_half_time
from dense_reference import G

TRUNC = TruncationConfig(n_max=80)
N_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def _branches(n_mean):
    alpha = math.sqrt(n_mean)
    t = solve_pi_half_time(alpha, TRUNC)
    return branch_states(alpha, t, TRUNC)


class TestOverlapAndVisibility:
    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_two_routes_agree(self, n_mean):
        # overlap shortcut vs the synthesized fringe's visibility
        a_e, a_g = _branches(n_mean)
        v_direct = 2.0 * abs(branch_overlap(a_e, a_g))
        pattern = fringe_scan_setup1(math.sqrt(n_mean), TRUNC)
        assert abs(v_direct - pattern.visibility) < 1e-8

    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_cauchy_schwarz_bound(self, n_mean):
        a_e, a_g = _branches(n_mean)
        assert abs(branch_overlap(a_e, a_g)) <= 0.5 + 1e-12

    def test_vacuum_visibility_zero(self):
        a_e, a_g = _branches(0.0)
        assert abs(branch_overlap(a_e, a_g)) == 0.0

    @given(st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=30, deadline=None)
    def test_gauge_phase_invariance(self, gauge):
        # a fixed phase on the ground branch is a frame choice
        a_e, a_g = _branches(5.0)
        shifted = a_g * np.exp(1j * gauge)
        v0 = 2.0 * abs(branch_overlap(a_e, a_g))
        v1 = 2.0 * abs(branch_overlap(a_e, shifted))
        assert abs(v0 - v1) < 1e-12
        _, nm0, _ = plus_minus_decomposition(a_e, a_g)
        _, nm1, _ = plus_minus_decomposition(a_e, shifted)
        assert abs(nm0 - nm1) < 1e-12


class TestPlusMinus:
    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_weights_sum_to_half(self, n_mean):
        a_e, a_g = _branches(n_mean)
        n_plus, n_minus, _ = plus_minus_decomposition(a_e, a_g)
        assert n_plus + n_minus == pytest.approx(0.5, abs=1e-12)

    def test_monotone_correspondence_with_visibility(self):
        rows = []
        for n_mean in N_GRID:
            a_e, a_g = _branches(n_mean)
            v = 2.0 * abs(branch_overlap(a_e, a_g))
            _, n_minus, _ = plus_minus_decomposition(a_e, a_g)
            rows.append((v, n_minus))
        vs = [r[0] for r in rows]
        nms = [r[1] for r in rows]
        assert vs == sorted(vs)
        assert nms == sorted(nms, reverse=True)

    def test_identical_branches_factorize(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = 1.0 / math.sqrt(2.0)
        n_plus, n_minus, _ = plus_minus_decomposition(amps, amps)
        assert n_minus < 1e-15
        assert n_plus == pytest.approx(0.5, abs=1e-12)


# the classical pi/2 zone; visibilities do not depend on this convention
RECOMBINATION = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / math.sqrt(2.0)


def recombined(a_e, a_g, phi):
    """The split atom after the phase phi and the classical pi/2 zone.

    With equal branch norms the reduced atomic state before the zone is
    [[1/2, c], [c*, 1/2]], c = <alpha_e|alpha_g> e^{i phi}.
    """
    c = branch_overlap(a_e, a_g) * np.exp(1j * phi)
    rho = np.array([[0.5, c], [np.conj(c), 0.5]], dtype=complex)
    return RECOMBINATION @ rho @ RECOMBINATION.conj().T


class TestRecombination:
    """fringe_scan_setup1 against a 2x2 recombination per phi."""

    def test_maps_coherence_to_population(self):
        a_e, a_g = _branches(5.0)
        ov = branch_overlap(a_e, a_g)
        phi = 0.8
        rho = recombined(a_e, a_g, phi)
        expected = 0.5 + (ov * np.exp(1j * phi)).real
        assert rho[G, G].real == pytest.approx(expected, abs=1e-12)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_matches_recombination_per_phi(self, n_mean):
        pattern = fringe_scan_setup1(math.sqrt(n_mean), TRUNC)
        a_e, a_g = _branches(n_mean)
        ref = np.clip([recombined(a_e, a_g, phi)[G, G].real for phi in pattern.phis],
                      0.0, 1.0)
        assert pattern.phis.size == 65
        assert np.max(np.abs(pattern.p_g - ref)) <= 1e-14

    @pytest.mark.parametrize("alpha", [-2.0, 1.5j, 2.0 * cmath.exp(0.7j)])
    def test_complex_alpha_moves_the_fringe_by_its_phase(self, alpha):
        # the solver's rows are |c_n|; the fringe puts back the phase that
        # c_n = |c_n| e^{i n arg(alpha)} gives the overlap
        pattern = fringe_scan_setup1(alpha, TRUNC)
        a_e, a_g = branch_states(alpha, solve_pi_half_time(alpha, TRUNC), TRUNC)
        ref = np.clip([recombined(a_e, a_g, phi)[G, G].real for phi in pattern.phis],
                      0.0, 1.0)
        assert np.max(np.abs(pattern.p_g - ref)) <= 1e-14


class TestSinusoidFringe:
    @given(st.floats(min_value=0.2, max_value=0.8),
           st.floats(min_value=0.0, max_value=0.19),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=60, deadline=None)
    def test_samples_and_visibility(self, c0, r, arg):
        c1 = r * complex(math.cos(arg), math.sin(arg))
        phis = np.linspace(0.0, 2.0 * math.pi, 9)
        pattern = sinusoid_fringe(phis, c0, c1)
        assert np.array_equal(pattern.phis, phis)
        assert np.max(np.abs(pattern.p_g - (c0 + r * np.cos(phis + arg)))) <= 1e-15
        assert abs(pattern.visibility - r / c0) <= 1e-12

    def test_clips_samples_but_fits_unclipped(self):
        # a contrast just past 1, as rounding can give, dips below 0 at phi = pi;
        # the visibility is read from the unclipped (c0, c1)
        phis = np.linspace(0.0, 2.0 * math.pi, 17)
        pattern = sinusoid_fringe(phis, 0.5, 0.5 + 1e-13)
        assert pattern.p_g.min() == 0.0 and pattern.p_g.max() == 1.0
        assert pattern.visibility == pytest.approx(1.0 + 2e-13, abs=1e-15)

    def test_any_grid_gives_the_ratio(self):
        # the visibility is |c1| / c0, so a grid too short or too narrow for
        # a fit still gives it to the bit
        for phis in ([0.4], np.linspace(0.0, 2.0 * math.pi, 5), np.linspace(0.0, math.pi, 9)):
            for c0, c1 in ((0.5, 0.25), (0.6, 0.3 - 0.1j), (0.35, -0.2j)):
                assert sinusoid_fringe(phis, c0, c1).visibility == abs(c1) / c0


class TestVisibilityExtraction:
    @given(st.floats(min_value=0.2, max_value=0.8),
           st.floats(min_value=0.0, max_value=0.19),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=60, deadline=None)
    def test_recovers_synthetic_sinusoid(self, a, b, phi0):
        phis = np.linspace(0.0, 2.0 * math.pi, 33)
        p_g = a + b * np.cos(phis - phi0)
        assert abs(visibility_from_pattern(phis, p_g) - b / a) < 1e-9

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=-math.pi, max_value=math.pi),
           st.integers(min_value=8, max_value=200),
           st.floats(min_value=-math.pi, max_value=math.pi),
           st.floats(min_value=2.0 * math.pi, max_value=4.0 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_ratio(self, c0, r, arg, points, start, span):
        # the fit, as an independent reading of sinusoid_fringe's unclipped
        # samples, on any grid of 8 or more points over a full period
        c1 = r * min(c0, 1.0 - c0) * complex(math.cos(arg), math.sin(arg))
        phis = np.linspace(start, start + span, points)
        p_g = c0 + (c1 * np.exp(1j * phis)).real
        v = sinusoid_fringe(phis, c0, c1).visibility
        assert abs(visibility_from_pattern(phis, p_g) - v) <= 1e-11

    def test_needs_full_period(self):
        phis = np.linspace(0.0, math.pi, 16)
        with pytest.raises(ValueError):
            visibility_from_pattern(phis, np.cos(phis))

    def test_needs_enough_samples(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 5)
        with pytest.raises(ValueError):
            visibility_from_pattern(phis, np.cos(phis))

    def test_degenerate_pattern(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 16)
        with pytest.raises(ValueError, match="no usable mean level"):
            visibility_from_pattern(phis, np.zeros_like(phis))


class TestDetection:
    def test_scaling(self):
        assert apply_detection(0.8, 0.75) == pytest.approx(0.6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="visibility"):
            apply_detection(1.2, 0.75)
        for eta in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError, match="eta"):
                apply_detection(0.5, eta)

