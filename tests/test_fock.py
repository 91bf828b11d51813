import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey.errors import TailTooLarge
from cavity_ramsey.fock import (
    MAX_WIDENED_N_MAX,
    TruncationConfig,
    _joint_density,
    coherent_magnitudes,
    coherent_state,
    poisson_tail,
    squared_norms,
    widened_truncation,
)
from dense_reference import (
    E,
    G,
    assert_physical_density,
    hermiticity_defect,
    min_eigenvalue,
    pure_density,
)


def partial_trace_field(rho):
    """The 2x2 atomic density sum_n <a, n| rho |a', n> of a joint density."""
    L = rho.shape[0] // 2
    return np.einsum("anbn->ab", rho.reshape(2, L, 2, L))


class TestTruncationConfig:
    def test_n_levels(self):
        assert TruncationConfig(n_max=5).n_levels == 6

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TruncationConfig(n_max=0)
        with pytest.raises(ValueError):
            TruncationConfig(tail_tol=0.0)
        with pytest.raises(ValueError):
            TruncationConfig(tail_tol=1.0)

    def test_rejects_a_subnormal_tail_tol(self):
        # there poisson_tail sums thousands of terms rounded up to 5e-324, and
        # the cutoff walk and the tail it is checked against part ways
        with pytest.raises(ValueError, match="normal float"):
            TruncationConfig(tail_tol=1e-320)
        assert TruncationConfig(tail_tol=sys.float_info.min).tail_tol == sys.float_info.min

    def test_rejects_an_n_max_past_the_widening_cap(self):
        # no widening goes past MAX_WIDENED_N_MAX, and a configured n_max of
        # 1e9 would ask for a 16 GB row
        assert TruncationConfig(n_max=MAX_WIDENED_N_MAX).n_max == MAX_WIDENED_N_MAX
        for n_max in (MAX_WIDENED_N_MAX + 1, 10 ** 9):
            with pytest.raises(ValueError, match="n_max must be in"):
                TruncationConfig(n_max=n_max)

    def test_default_truncation_widens(self):
        # without a trunc, coherent_state widens the stock n_max=60
        n_max = coherent_state(math.sqrt(40.0)).size - 1
        assert n_max > 60
        # the widened cutoff actually holds the tail
        assert poisson_tail(40.0, n_max) < TruncationConfig().tail_tol

    def test_widened_truncation_is_the_smallest_passing_cutoff(self):
        assert widened_truncation(20.0, TruncationConfig()).n_max == 60
        trunc = widened_truncation(24.0, TruncationConfig())
        assert trunc.n_max > 60
        assert (poisson_tail(24.0, trunc.n_max) < trunc.tail_tol
                <= poisson_tail(24.0, trunc.n_max - 1))

    def test_default_truncation_holds_large_means(self):
        # the stock n_max=60 holds almost none of a mean of 200 photons
        v = coherent_state(math.sqrt(200.0))
        assert np.vdot(v, v).real > 1.0 - 1e-10

    def test_widening_refuses_past_its_cap(self):
        with pytest.raises(TailTooLarge):
            widened_truncation(2.0 * MAX_WIDENED_N_MAX, TruncationConfig())

    def test_poisson_tail_is_accurate_far_below_rounding(self):
        # direct sum of the discarded terms, each exp of a log-domain pmf
        direct = math.fsum(math.exp(-160.0 + k * math.log(160.0) - math.lgamma(k + 1))
                           for k in range(338, 1000))
        assert poisson_tail(160.0, 337) == pytest.approx(direct, rel=1e-9, abs=0.0)


class TestCoherentState:
    def test_vacuum(self):
        v = coherent_state(0.0, TruncationConfig(n_max=4))
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0 + 1.5j, -3.0j])
    def test_norm_deficit_equals_poisson_tail(self, alpha):
        trunc = TruncationConfig(n_max=60)
        v = coherent_state(alpha, trunc)
        tail = poisson_tail(abs(alpha) ** 2, trunc.n_max)
        assert abs((1.0 - np.vdot(v, v).real) - tail) < 1e-12

    def test_overlap_matches_analytic(self):
        # |<a|b>| = exp(-|a-b|^2 / 2) for coherent states
        trunc = TruncationConfig(n_max=60)
        a, b = 1.2, 0.4 + 0.3j
        ov = np.vdot(coherent_state(a, trunc), coherent_state(b, trunc))
        expected = math.exp(-abs(a - b) ** 2 / 2.0)
        assert abs(abs(ov) - expected) < 1e-10

    def test_tail_too_large_raises(self):
        with pytest.raises(TailTooLarge):
            coherent_state(3.0, TruncationConfig(n_max=8))

    def test_rows_equal_single_states(self):
        # each row is the magnitude of its coherent state, to rounding (an
        # absolute unit in the last place below the normal range), and
        # the row its alpha gives alone, bit for bit
        trunc = TruncationConfig(n_max=40)
        alphas = np.array([0.0, 0.3, 1e-200, 2.0 + 1.5j, -3.0j, 0.0, -1.2])
        rows = coherent_magnitudes(alphas, trunc)
        assert rows.dtype == np.float64 and rows.shape == (7, 41)
        for alpha, row in zip(alphas, rows):
            assert row.tobytes() == coherent_magnitudes(np.array([alpha]), trunc)[0].tobytes()
            assert np.allclose(np.abs(coherent_state(alpha, trunc)), row, rtol=1e-15,
                               atol=sys.float_info.min)
        assert rows[0, 0] == 1.0 and np.all(rows[0, 1:] == 0.0)

    def test_zero_phase_rows_equal_the_phase_path(self):
        # for a real alpha >= 0 the coherent state is its magnitude row + 0j,
        # bit for bit, signed zeros included (1e-100's high levels underflow
        # to zero, and -0.0 is the vacuum), whether the row is built alone or
        # beside a complex alpha
        trunc = TruncationConfig(n_max=60)
        reals = [0.0, -0.0, 1e-100, 0.3, 1.0, math.sqrt(2.0), math.sqrt(20.0), 4.0]
        rows = coherent_magnitudes(np.array([*reals, 0.5 + 0.5j]), trunc)[:len(reals)]
        assert rows[2, 10] == 0.0
        assert rows.tobytes() == coherent_magnitudes(np.array(reals), trunc).tobytes()
        for alpha, row in zip(reals, rows):
            state = coherent_state(alpha, trunc)
            assert state.real.tobytes() == row.tobytes()
            assert not np.any(state.imag) and not np.any(np.signbit(state.imag))

    def test_rows_refuse_a_large_tail(self):
        # only the third row's tail is too large at n_max = 8
        with pytest.raises(TailTooLarge, match="alpha\\|\\^2=9"):
            coherent_magnitudes(np.array([0.0, 0.1, 3.0]), TruncationConfig(n_max=8))

    @pytest.mark.parametrize("alpha", [math.nan, complex(1.0, math.nan), math.inf])
    def test_refuses_a_non_finite_alpha(self, alpha):
        # NaN used to slip past both the tail and the norm check
        with pytest.raises(ValueError, match="alpha="):
            coherent_state(alpha, TruncationConfig())
        with pytest.raises(ValueError):
            widened_truncation(abs(alpha) ** 2, TruncationConfig())

    @pytest.mark.parametrize("alpha", [1e200, complex(1e200, -1e200),
                                       complex(-1.5e308, 1.5e308)])
    def test_refuses_an_alpha_whose_square_overflows(self, alpha):
        # |alpha|^2 (or |alpha| itself) overflows Python's float arithmetic:
        # the documented ValueError, not a bare OverflowError
        with pytest.raises(ValueError, match=r"finite \|alpha\|\^2, got alpha="):
            coherent_state(alpha, TruncationConfig())
        with pytest.raises(ValueError, match="finite"):
            coherent_state(alpha)

    def test_rows_hold_few_temporaries(self):
        # the magnitudes are exponentiated in their log array, so the peak
        # holds the result and little more; the rows do not depend on the
        # phases, and each is the magnitude of its coherent state
        trunc = TruncationConfig(n_max=4095)
        mags = np.sqrt(np.linspace(0.0, 1000.0, 16))
        alphas = mags * np.exp(1j * np.linspace(0.0, 3.0, 16))
        tracemalloc.start()
        try:
            rows = coherent_magnitudes(alphas, trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * rows.nbytes
        for alpha, row in zip(alphas, rows):
            assert row.tobytes() == coherent_magnitudes(np.array([abs(complex(alpha))]),
                                                      trunc)[0].tobytes()
            assert np.allclose(np.abs(coherent_state(alpha, trunc)), row, rtol=1e-15,
                               atol=sys.float_info.min)

    def test_real_rows_hold_few_temporaries(self):
        # real alphas: the same single float block as for complex ones
        trunc = TruncationConfig(n_max=4095)
        alphas = np.sqrt(np.linspace(0.0, 1000.0, 16))
        tracemalloc.start()
        try:
            rows = coherent_magnitudes(alphas, trunc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * rows.nbytes

    def test_rows_take_a_1d_array(self):
        with pytest.raises(ValueError):
            coherent_magnitudes(np.ones((2, 2)), TruncationConfig(n_max=8))

    def test_squared_norms_of_real_rows_keep_the_complex_bits(self):
        # real rows sum their squares alone: the sum of the zero imaginary
        # parts that the complex form adds moves no bit, whether the rows
        # are a real array or the real view of their complex cast
        rows = np.random.default_rng(5).normal(size=(40, 61))
        rows[3] = 0.0
        for amps in (rows, rows[7], rows[:, ::2]):
            cast = amps.astype(complex)
            assert squared_norms(cast.real).tobytes() == squared_norms(cast).tobytes()
            both = (np.einsum("...n,...n->...", amps.real, amps.real)
                    + np.einsum("...n,...n->...", amps.imag, amps.imag))
            assert squared_norms(amps).tobytes() == both.tobytes()

    @given(st.floats(min_value=0.0, max_value=20.0),
           st.integers(min_value=1, max_value=80))
    @settings(max_examples=60, deadline=None)
    def test_poisson_tail_properties(self, mean, n_max):
        t = poisson_tail(mean, n_max)
        assert 0.0 <= t <= 1.0
        assert poisson_tail(mean, n_max + 10) <= t + 1e-15


class TestJointStructure:
    def test_flat_is_atom_major(self):
        amps = np.zeros((2, 3), dtype=complex)
        amps[1, 2] = 1.0  # |e, 2>
        assert pure_density(amps)[5, 5] == 1.0

    def test_tensor_then_partial_trace_recovers_projector(self):
        atom = np.array([0.6, 0.8j])
        fld = coherent_state(0.9, TruncationConfig(n_max=30))
        rho = pure_density(np.outer(atom, fld))
        reduced = partial_trace_field(rho)
        proj = np.outer(atom, atom.conj()) * np.vdot(fld, fld).real
        assert np.max(np.abs(reduced - proj)) < 1e-12

    def test_partial_trace_preserves_trace_exactly(self):
        amps = np.array([[0.5, 0.1j, 0.2], [0.3, 0.4, -0.1j]])
        rho = pure_density(amps)
        assert float(np.trace(partial_trace_field(rho)).real) == float(np.trace(rho).real)

    def test_joint_density_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match=r"got shape \(5, 5\)"):
            _joint_density(np.eye(5))

    @pytest.mark.parametrize("shape", [(3, 2), (2,), (2, 2, 2)])
    def test_pure_density_rejects_non_joint_shape(self, shape):
        with pytest.raises(ValueError, match="shape"):
            pure_density(np.ones(shape))


class TestDiagnostics:
    def test_accepts_valid_density(self):
        # a thermal field at nbar = 0.5: geometric populations in ratio 1/3
        p = (1.0 / 3.0) ** np.arange(21)
        assert_physical_density(np.diag(p / p.sum()).astype(complex))

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex)
        mat[0, 1] = 1e-3
        with pytest.raises(AssertionError):
            assert_physical_density(mat)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(AssertionError):
            assert_physical_density(mat)

    def test_defect_measures(self):
        mat = np.array([[1.0, 0.1j], [0.0, 0.0]])
        assert hermiticity_defect(mat) == pytest.approx(0.1)
        assert min_eigenvalue(np.diag([2.0, -1.0])) == pytest.approx(-1.0)


def test_atom_density_pg_reads_ground_entry():
    # the reduced atomic density keeps the ground population at [G, G]
    amps = np.zeros((2, 4), dtype=complex)
    amps[G, 1] = math.sqrt(0.7)
    amps[E, 2] = 1j * math.sqrt(0.3)
    rho = partial_trace_field(pure_density(amps))
    assert rho[G, G].real == pytest.approx(0.7)
    assert rho[E, E].real == pytest.approx(0.3)
