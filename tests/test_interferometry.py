import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey.errors import DegeneratePattern
from cavity_ramsey.fock import FieldVector, TruncationConfig
from cavity_ramsey.interferometry import (
    RECOMBINATION_UNITARY,
    DetectionModel,
    FringePattern,
    apply_detection,
    atomic_state_after_phase,
    branch_overlap,
    classical_pi_half,
    fringe_scan_setup1,
    plus_minus_decomposition,
    visibility_from_pattern,
)
from cavity_ramsey.jc import branch_states, solve_pi_half_time

TRUNC = TruncationConfig(n_max=80)
N_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def _branches(n_mean):
    alpha = math.sqrt(n_mean)
    t = solve_pi_half_time(alpha, TRUNC)
    return branch_states(alpha, t, TRUNC)


class TestOverlapAndVisibility:
    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_two_routes_agree(self, n_mean):
        # overlap shortcut vs fringe synthesis + sinusoid fit
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
        shifted = FieldVector(a_g.amps * np.exp(1j * gauge))
        v0 = 2.0 * abs(branch_overlap(a_e, a_g))
        v1 = 2.0 * abs(branch_overlap(a_e, shifted))
        assert abs(v0 - v1) < 1e-12
        _, _, _, nm0 = plus_minus_decomposition(a_e, a_g)
        _, _, _, nm1 = plus_minus_decomposition(a_e, shifted)
        assert abs(nm0 - nm1) < 1e-12


class TestPlusMinus:
    @pytest.mark.parametrize("n_mean", N_GRID)
    def test_weights_sum_to_half(self, n_mean):
        a_e, a_g = _branches(n_mean)
        _, _, n_plus, n_minus = plus_minus_decomposition(a_e, a_g)
        assert n_plus + n_minus == pytest.approx(0.5, abs=1e-12)

    def test_monotone_correspondence_with_visibility(self):
        rows = []
        for n_mean in N_GRID:
            a_e, a_g = _branches(n_mean)
            v = 2.0 * abs(branch_overlap(a_e, a_g))
            _, _, _, n_minus = plus_minus_decomposition(a_e, a_g)
            rows.append((v, n_minus))
        vs = [r[0] for r in rows]
        nms = [r[1] for r in rows]
        assert vs == sorted(vs)
        assert nms == sorted(nms, reverse=True)

    def test_identical_branches_factorize(self):
        amps = np.zeros(5, dtype=complex)
        amps[0] = 1.0 / math.sqrt(2.0)
        b = FieldVector(amps)
        _, minus, n_plus, n_minus = plus_minus_decomposition(b, b)
        assert n_minus < 1e-15
        assert n_plus == pytest.approx(0.5, abs=1e-12)


class TestRecombination:
    def test_unitary_pinned(self):
        expected = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        assert np.allclose(RECOMBINATION_UNITARY, expected)

    def test_maps_coherence_to_population(self):
        a_e, a_g = _branches(5.0)
        ov = branch_overlap(a_e, a_g)
        phi = 0.8
        rho = classical_pi_half(atomic_state_after_phase(a_e, a_g, phi))
        expected = 0.5 + (ov * np.exp(1j * phi)).real
        assert rho.p_g() == pytest.approx(expected, abs=1e-12)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)


class TestVisibilityExtraction:
    @given(st.floats(min_value=0.2, max_value=0.8),
           st.floats(min_value=0.0, max_value=0.19),
           st.floats(min_value=-math.pi, max_value=math.pi))
    @settings(max_examples=60, deadline=None)
    def test_recovers_synthetic_sinusoid(self, a, b, phi0):
        phis = np.linspace(0.0, 2.0 * math.pi, 33)
        p_g = a + b * np.cos(phis - phi0)
        assert abs(visibility_from_pattern(phis, p_g) - b / a) < 1e-9

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
        with pytest.raises(DegeneratePattern):
            visibility_from_pattern(phis, np.zeros_like(phis))


class TestDetection:
    def test_scaling(self):
        assert apply_detection(0.8, DetectionModel(eta=0.75)) == pytest.approx(0.6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            apply_detection(1.2, DetectionModel())
        with pytest.raises(ValueError):
            DetectionModel(eta=1.5)


class TestFringePattern:
    def test_rejects_bad_probabilities(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 16)
        with pytest.raises(ValueError):
            FringePattern(phis, np.full_like(phis, 1.5), 0.5)

    def test_rejects_bad_visibility(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 16)
        with pytest.raises(ValueError):
            FringePattern(phis, np.full_like(phis, 0.5), 1.5)

    def test_samples_roundtrip(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 16)
        p = FringePattern(phis, np.full_like(phis, 0.5), 0.0)
        assert len(p.samples()) == 16
