"""The one-loop series build and the float-counted tail walks keep every bit.

`series_reference` holds the earlier two-ladder build and int-counted walks;
each check here asks for equal bits (or the same exception), not closeness.
"""

import math
import warnings

import numpy as np
import pytest
import series_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_ramsey import fock, thermal
from cavity_ramsey.thermal import SeriesConfig, _binomial_weights


def _outcome(call, *args):
    """call(*args), or the type and message of what it raised."""
    try:
        with warnings.catch_warnings():
            # a clipped visibility warns alike on both sides
            warnings.simplefilter("ignore", UserWarning)
            return call(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


def _same(old, new) -> bool:
    if isinstance(old, tuple) or isinstance(new, tuple):
        return old == new
    return type(old) is type(new) and np.array_equal(old, new)


@given(nbar=st.floats(min_value=1e-3, max_value=0.999),
       omega_chi=st.floats(min_value=0.1, max_value=2.5),
       tol_exponent=st.floats(min_value=-15.0, max_value=-6.0),
       variant=st.sampled_from(["A", "B"]),
       waits=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=7),
       scalar=st.booleans())
@settings(max_examples=80, deadline=None)
def test_series_keeps_the_two_ladder_bits(nbar, omega_chi, tol_exponent, variant,
                                          waits, scalar):
    # the package has only the reference's default reading of the inner sign
    cfg = SeriesConfig(term_tol=10.0 ** tol_exponent, variant=variant)
    T = waits[0] if scalar else np.array(waits)
    for name in ("pg_constant", "pg_oscillatory"):
        assert _same(_outcome(getattr(ref, name), T, nbar, omega_chi, cfg),
                     _outcome(getattr(thermal, name), T, nbar, omega_chi, cfg)), name
    assert _same(_outcome(ref.thermal_visibility, T, nbar, cfg, omega_chi),
                 _outcome(thermal.thermal_visibility, T, nbar, cfg, omega_chi))


@pytest.mark.parametrize("part", ["pg_constant", "pg_oscillatory"])
def test_a_short_cap_raises_as_before(part, monkeypatch):
    # each part comes from the one build of both ladders, which names the
    # constant ladder when both hit the cap, as the reference's constant part does
    for module in (thermal, ref):
        monkeypatch.setattr(module, "J_MAX", 4)
    assert _same(_outcome(ref.pg_constant, 0.1, 0.3),
                 _outcome(getattr(thermal, part), 0.1, 0.3))


def test_tail_walks_keep_their_bits():
    rng = np.random.default_rng(22)
    for _ in range(5000):
        tol = float(10.0 ** rng.uniform(-300.0, -1.0))
        mean = float(10.0 ** rng.uniform(-6.0, 5.0))
        lo = int(rng.integers(0, 200))
        old_pmf = lambda k: ref._poisson_log_pmf(k, mean)  # noqa: E731
        case = (mean, lo, tol)
        n = max(lo, math.floor(mean)) + 1
        assert fock.upper_tail(mean, n) == ref.upper_tail(old_pmf, n, 0.0, mean), case
        K = fock.tail_cutoff(mean, lo, tol, fock.MAX_WIDENED_N_MAX)
        assert type(K) is int
        assert K == ref.tail_cutoff(old_pmf, 0.0, mean, lo, tol,
                                    fock.MAX_WIDENED_N_MAX), case

        successes = int(rng.integers(1, 300))
        k = float(rng.uniform(0.0, 500.0))
        m = k * float(rng.uniform(0.8, 1.25)) + float(rng.uniform(0.0, 1.0))
        assert fock.bd0(k, m) == ref.bd0(k, m), (k, m)
        assert fock.bd0(successes, m) == ref.bd0(successes, m), (successes, m)


@pytest.mark.parametrize("nbar", [1e-3, 0.3, 0.7, 0.999])
def test_binomial_weights_prefix_keeps_its_bits(nbar):
    # one weights array serves both ladders' inner sums at each l
    for l in (0, 1, 7, 40, thermal.J_MAX - 1):
        longest = _binomial_weights(l, nbar, 400)
        for k in (1, 2, 37, 128, 399):
            assert np.array_equal(_binomial_weights(l, nbar, k), longest[:k])
