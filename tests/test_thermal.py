import math
import sys
import warnings

import numpy as np
import pytest
import series_reference
from conftest import ORACLE_GRID, variant_deviations
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavity_ramsey import thermal
from cavity_ramsey.errors import ConvergenceFailure
from cavity_ramsey.open_system import master_visibility, zero_temp_visibility_derived
from cavity_ramsey.thermal import (
    SeriesConfig,
    _binomial_weights,
    pg_constant,
    pg_oscillatory,
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

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            SeriesConfig(term_tol=1e-5)
        with pytest.raises(ValueError):
            SeriesConfig(term_tol=0.0)

    def test_rejects_a_subnormal_term_tol(self):
        # there the tails lose their tightness and the ladder cannot get
        # below its error floor: fig4 ran all J_MAX terms, then exited 2
        for tol in (1e-310, 5e-324):
            with pytest.raises(ValueError, match="normal float"):
                SeriesConfig(term_tol=tol)
        assert SeriesConfig(term_tol=sys.float_info.min).term_tol == sys.float_info.min

    def test_rejects_bad_variant(self):
        with pytest.raises(ValueError):
            SeriesConfig(variant="C")


class TestDomain:
    @pytest.mark.parametrize("nbar", [0.0, 1.0, 1.5, -0.2, math.nan, math.inf, -math.inf])
    def test_nbar_outside_convergence_region(self, nbar):
        with pytest.raises(ValueError, match="nbar must lie"):
            pg_constant(0.1, nbar)
        with pytest.raises(ValueError, match="nbar must lie"):
            pg_oscillatory(0.1, nbar)

    def test_negative_wait(self):
        with pytest.raises(ValueError, match="T must be"):
            pg_constant(-0.1, 0.5)

    def test_nan_wait(self):
        # NaN used to pass the T >= 0 check and give a NaN visibility
        with pytest.raises(ValueError, match="T must be"):
            thermal_visibility(np.array([0.1, math.nan]), 0.5)

    def test_infinite_wait(self):
        # +inf passed the T >= 0 check, and e^{-2jT} at j = 0 made inf * 0 = NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for series in (thermal_visibility, pg_constant, pg_oscillatory):
                with pytest.raises(ValueError, match="T must be finite"):
                    series(np.array([0.1, math.inf]), 0.5)

    @pytest.mark.parametrize("omega_chi", [math.nan, math.inf, -math.inf])
    def test_non_finite_pulse_area(self, omega_chi):
        # a ValueError (exit 1), not a ladder that never converges (exit 2),
        # and no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for series in (thermal_visibility, pg_constant, pg_oscillatory):
                with pytest.raises(ValueError, match="omega_chi must be finite"):
                    series(0.1, 0.5, omega_chi=omega_chi)

    def test_small_nbar_is_accepted(self):
        # folded evaluation keeps tiny occupations well-conditioned
        v = thermal_visibility(0.1, 1e-3)
        assert 0.0 <= v <= 1.0

    def test_cap_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(thermal, "M_MAX", 16)
        with pytest.raises(ConvergenceFailure, match="M_MAX=16"):
            pg_constant(0.1, 0.9)

    def test_a_part_raises_for_the_other_ladder(self, monkeypatch):
        # at nbar 0.3 the constant ladder needs 13 coefficients and the
        # oscillatory 12; each part comes from one build of both ladders, so
        # the oscillatory part meets the constant ladder's cap
        for module in (thermal, series_reference):
            monkeypatch.setattr(module, "J_MAX", 12)
        assert 0.0 < series_reference.pg_oscillatory(0.1, 0.3) < 1.0
        with pytest.raises(ConvergenceFailure, match="constant ladder hit its cap"):
            pg_oscillatory(0.1, 0.3)

    @pytest.mark.parametrize("part", [pg_constant, pg_oscillatory])
    def test_ladder_past_its_cap_raises(self, part, monkeypatch):
        # at nbar 0.3 both ladders need about 20 coefficients to reach 1e-12
        monkeypatch.setattr(thermal, "J_MAX", 4)
        with pytest.raises(ConvergenceFailure, match="ladder hit its cap"):
            part(0.1, 0.3)


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
        k = series_reference._support(l + 1, 1.0 + nbar, nbar, 0, SeriesConfig())
        total = math.fsum(_binomial_weights(l, nbar, k + 1))
        assert total == pytest.approx(1.0 + nbar, abs=1e-12)

    @pytest.mark.parametrize("nbar", [0.05, 0.3, 0.7, 0.95])
    def test_binomial_weights_match_mpmath(self, nbar):
        # the cumulative product of the weights' ratio, on rungs up to the
        # last below J_MAX, against C(m, l) nbar^{m-l} / (1+nbar)^m at 40 digits
        mpmath = pytest.importorskip("mpmath")
        size = 151
        with mpmath.workdps(40):
            x = mpmath.mpf(nbar)
            for l in (0, 1, 5, 16, 30, 60, 100, 200, thermal.J_MAX - 1):
                weights = _binomial_weights(l, nbar, size)
                assert weights.shape == (size,)
                exact = [mpmath.binomial(m, l) * x ** (m - l) / (1 + x) ** m
                         for m in range(l, l + size)]
                worst = max(abs(w / e - 1) for w, e in zip(weights.tolist(), exact))
                assert worst <= 5e-14, (l, float(worst))

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
        # both variants under the printed reading of the transcribed sign,
        # which only the two-ladder reference keeps, miss the integrator;
        # the package has the normalized sign (see module docstring)
        for variant in ("A", "B"):
            cfg = SeriesConfig(variant=variant)
            v = series_reference.thermal_visibility(0.1, 0.7, cfg, printed=True)
            pc, po = FROZEN[(0.1, 0.7)]
            assert abs(v - po / pc) > 0.01

    def test_variant_a_tracks_the_oracle_and_b_misses(self):
        deviation = variant_deviations()
        assert deviation["A"] < 1e-6
        assert deviation["B"] > 0.1


def test_series_matches_oracle_grid():
    for (T, nbar) in ORACLE_GRID:
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


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=1e-6, max_value=1e-2))
@settings(max_examples=40, deadline=None)
def test_vanishing_nbar_reaches_zero_temperature(T, nbar):
    # the gap is linear in nbar: at most 0.249 nbar over this box, at T near
    # 0.39 (2.5e-7 at nbar = 1e-6, 2.5e-3 at 1e-2); nbar itself is the bound
    gap = abs(thermal_visibility(T, nbar) - zero_temp_visibility_derived(T))
    assert gap <= nbar
