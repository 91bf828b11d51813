import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavity_ramsey.errors import (
    ConvergenceFailure,
    DomainError,
    InconclusiveSelection,
)
from cavity_ramsey.open_system import master_visibility
from cavity_ramsey.thermal import (
    SELECTION_GRID,
    SeriesConfig,
    _binomial_weights,
    _support,
    pg_constant,
    pg_oscillatory,
    select_variant,
    thermal_visibility,
)

# integrator reference values, frozen from an independent dense-matrix
# propagation (cross-checked against exact matrix-exponential evolution)
FROZEN = {
    (0.008, 0.7): (0.5050229105, 0.4912154918),
    (0.1, 0.7): (0.5527491595, 0.4045496140),
    (0.4, 0.7): (0.6327567450, 0.2372559967),
    (0.008, 0.3): (0.5044216069, 0.4939536575),
    (0.1, 0.3): (0.5486330430, 0.4313363546),
    (0.4, 0.3): (0.6358048835, 0.2896469888),
}


class TestSeriesConfig:
    def test_defaults_valid(self):
        cfg = SeriesConfig()
        assert cfg.variant == "A"
        assert not cfg.printed_osc_sign

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            SeriesConfig(term_tol=1e-5)
        with pytest.raises(ValueError):
            SeriesConfig(term_tol=0.0)

    def test_rejects_small_caps(self):
        with pytest.raises(ValueError):
            SeriesConfig(j_max=8)

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            SeriesConfig(variant="C")


class TestDomain:
    @pytest.mark.parametrize("nbar", [0.0, 1.0, 1.5, -0.2])
    def test_nbar_outside_convergence_region(self, nbar):
        with pytest.raises(DomainError):
            pg_constant(0.1, nbar)
        with pytest.raises(DomainError):
            pg_oscillatory(0.1, nbar)

    def test_negative_wait(self):
        with pytest.raises(DomainError):
            pg_constant(-0.1, 0.5)

    def test_small_nbar_is_accepted(self):
        # folded evaluation keeps tiny occupations well-conditioned
        v = thermal_visibility(0.1, 1e-3)
        assert 0.0 <= v <= 1.0

    def test_cap_exhaustion_raises(self):
        with pytest.raises(ConvergenceFailure):
            pg_constant(0.1, 0.9, cfg=SeriesConfig(m_max=16))


class TestSeriesValues:
    @pytest.mark.parametrize("point", sorted(FROZEN))
    def test_constant_part(self, point):
        pc_ref, _ = FROZEN[point]
        assert pg_constant(*point) == pytest.approx(pc_ref, abs=1e-7)

    @pytest.mark.parametrize("point", sorted(FROZEN))
    def test_oscillatory_part(self, point):
        _, po_ref = FROZEN[point]
        assert pg_oscillatory(*point) == pytest.approx(po_ref, abs=1e-7)

    @pytest.mark.parametrize("point", sorted(FROZEN))
    def test_visibility_in_bounds(self, point):
        pc_ref, _ = FROZEN[point]
        assert 0.0 < pg_constant(*point) < 1.0
        assert 0.0 <= thermal_visibility(*point) <= 1.0

    def test_truncation_self_consistency(self):
        tol = 1e-9
        v1 = thermal_visibility(0.1, 0.7, SeriesConfig(term_tol=tol))
        v2 = thermal_visibility(0.1, 0.7, SeriesConfig(term_tol=tol / 2.0))
        assert abs(v1 - v2) < 10.0 * tol

    def test_nbar_continuity_toward_zero_temperature(self):
        from cavity_ramsey.open_system import zero_temp_visibility_derived
        for T in (0.008, 0.1, 0.4):
            v = thermal_visibility(T, 1e-3)
            assert abs(v - zero_temp_visibility_derived(T)) < 5e-3

    def test_visibility_decreases_with_wait(self):
        vs = [thermal_visibility(T, 0.7) for T in (0.05, 0.2, 0.6, 1.0)]
        assert vs == sorted(vs, reverse=True)


class TestWaitGrids:
    GRID = (0.0, 0.008, 0.1, 0.25, 0.4, 1.0)

    def test_grid_equals_scalar_calls(self):
        v = thermal_visibility(np.array(self.GRID), 0.7)
        assert v.shape == (len(self.GRID),)
        scalar = [thermal_visibility(T, 0.7) for T in self.GRID]
        assert all(type(x) is float for x in scalar)
        assert v.tolist() == scalar

    def test_parts_take_grids(self):
        for part in (pg_constant, pg_oscillatory):
            values = part(np.array(self.GRID), 0.3)
            assert values.tolist() == [part(T, 0.3) for T in self.GRID]

    def test_inner_support_holds_the_negbinom_mass(self):
        # with unit weights the inner sum is (1+nbar) times a NegBinom(l+1)
        # total mass; a stop after 3 small terms fired before the peak here
        # and returned 3.4e-14
        nbar, l = 0.7, 70
        k = _support(l + 1, 1.0 + nbar, nbar, 0, SeriesConfig())
        total = math.fsum(_binomial_weights(np.arange(l, l + k + 1), l, nbar))
        assert total == pytest.approx(1.0 + nbar, abs=1e-12)

    @given(nbar=st.floats(min_value=0.01, max_value=0.95),
           waits=st.lists(st.floats(min_value=0.0, max_value=1.0),
                          min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_visibility_bounded_and_decaying(self, nbar, waits):
        v = thermal_visibility(np.array([0.0, *sorted(waits)]), nbar)
        assert np.all((v >= 0.0) & (v <= 1.0))
        assert abs(v[0] - 1.0) < 1e-9
        assert np.all(np.diff(v) <= 0.0)


class TestVariants:
    def test_variant_b_disagrees_with_oracle_values(self):
        v = thermal_visibility(0.008, 0.7, SeriesConfig(variant="B"))
        pc, po = FROZEN[(0.008, 0.7)]
        assert abs(v - po / pc) > 0.05

    def test_printed_sign_disagrees_with_oracle_values(self):
        # both readings of the transcribed sign miss the integrator; the
        # normalized sign is the package default (see module docstring)
        for variant in ("A", "B"):
            cfg = SeriesConfig(variant=variant, printed_osc_sign=True)
            v = thermal_visibility(0.1, 0.7, cfg)
            pc, po = FROZEN[(0.1, 0.7)]
            assert abs(v - po / pc) > 0.01

    def test_select_variant_picks_a(self):
        sel = select_variant()
        assert sel.winner == "A"
        assert sel.total_deviation("A") < 1e-6
        assert sel.total_deviation("B") > 0.1
        assert set(sel.deviations) == {"A", "B"}

    def test_select_variant_inconclusive(self):
        sel_grid = SELECTION_GRID

        def hostile_oracle(T, nbar):
            return -10.0  # nothing can match this

        with pytest.raises(InconclusiveSelection):
            select_variant(grid=sel_grid, oracle=hostile_oracle)


def test_series_matches_oracle_grid():
    for (T, nbar) in SELECTION_GRID:
        assert abs(thermal_visibility(T, nbar) - master_visibility(T, nbar)) <= 1e-9


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.02, max_value=0.95),
       st.floats(min_value=0.1, max_value=1.5))
@example(0.845, 0.899, 1.365)  # P_o < 0 here: a pi-shifted fringe
@settings(max_examples=20, deadline=None)
def test_series_matches_oracle_sweep(T, nbar, omega_chi):
    # master_fringe picks its own n_max; a TruncationLeak here would mean
    # that heuristic cutoff let the top level fill
    series = thermal_visibility(T, nbar, omega_chi=omega_chi)
    oracle = master_visibility(T, nbar, omega_chi=omega_chi)
    assert abs(series - oracle) <= 1e-9
