"""The in-house Poisson and negative-binomial tails against independent references.

mpmath gives the exact tails; scipy's `pdtrc`/`nbdtrc`, which these tails
replaced, must pick the same cutoffs on the benchmark's inputs. Both are
optional: without them these tests skip.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavity_ramsey import cli, open_system, thermal
from cavity_ramsey.config import PhysicalConfig
from cavity_ramsey.errors import ConvergenceFailure, TailTooLarge
from cavity_ramsey.fock import (
    MAX_WIDENED_N_MAX,
    poisson_cutoff,
    poisson_tail,
    tail_cutoff,
    upper_tail,
    widened_truncation,
)
from cavity_ramsey.thermal import SeriesConfig, _negbin_log_pmf, _support

# tails in the normal float range; smaller ones lose relative accuracy as
# their terms turn subnormal
SMALLEST_TAIL = 1e-290


def _mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    return mpmath


def poisson_tail_exact(mean, n):
    mpmath = _mpmath()
    return float(mpmath.gammainc(n + 1, 0, mpmath.mpf(mean), regularized=True))


def negbin_tail_exact(successes, nbar, k):
    mpmath = _mpmath()
    q = mpmath.mpf(nbar) / (1 + mpmath.mpf(nbar))
    return float(mpmath.betainc(k + 1, successes, 0, q, regularized=True))


@given(mean=st.floats(min_value=0.0, max_value=400.0),
       spread=st.floats(min_value=0.0, max_value=1.0))
@example(mean=400.0, spread=1.0)
@example(mean=1e-3, spread=0.0)
@example(mean=160.0, spread=0.5)
@settings(max_examples=150, deadline=None)
def test_poisson_tail_is_an_accurate_upper_bound(mean, spread):
    n = math.ceil(mean) + int(spread * (12.0 * math.sqrt(mean) + 40.0))
    exact = poisson_tail_exact(mean, n)
    assume(SMALLEST_TAIL < exact < 0.5)
    tail = poisson_tail(mean, n)
    assert tail == pytest.approx(exact, rel=1e-11, abs=0.0)
    assert tail >= exact * (1.0 - 1e-14)


@pytest.mark.parametrize("mean, n", [(30.0, 10), (400.0, 390), (1e3, 999)])
def test_poisson_tail_below_the_mode(mean, n):
    exact = poisson_tail_exact(mean, n)
    assert poisson_tail(mean, n) == pytest.approx(exact, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -1.0])
def test_poisson_tail_refuses_bad_means(mean):
    with pytest.raises(ValueError):
        poisson_tail(mean, 10)


@given(successes=st.integers(min_value=1, max_value=200),
       nbar=st.floats(min_value=0.01, max_value=0.95),
       spread=st.floats(min_value=0.0, max_value=1.0))
@example(successes=200, nbar=0.95, spread=1.0)
@example(successes=1, nbar=0.01, spread=0.0)
@settings(max_examples=150, deadline=None)
def test_negbin_tail_is_an_accurate_upper_bound(successes, nbar, spread):
    # k + 1 past the mode, as `upper_tail` requires
    k = math.floor((successes - 1) * nbar) + int(
        spread * (12.0 * math.sqrt(successes * nbar * (1 + nbar)) + 40.0))
    exact = negbin_tail_exact(successes, nbar, k)
    assume(SMALLEST_TAIL < exact < 0.5)
    q = nbar / (1 + nbar)
    tail, _ = upper_tail(lambda x: _negbin_log_pmf(x, successes, nbar), k + 1,
                         q, q * successes)
    assert tail == pytest.approx(exact, rel=1e-11, abs=0.0)
    assert tail >= exact * (1.0 - 1e-14)


@given(successes=st.integers(min_value=1, max_value=200),
       nbar=st.floats(min_value=0.01, max_value=0.95),
       squared=st.booleans(), start=st.integers(min_value=0, max_value=40))
@settings(max_examples=60, deadline=None)
def test_support_is_the_smallest_certified_cutoff(successes, nbar, squared, start):
    cfg = SeriesConfig()
    scale = (1.0 + nbar) ** (2 if squared else 1)
    K = _support(successes, scale, nbar, start, cfg)
    assert K >= start
    assert scale * negbin_tail_exact(successes, nbar, K) <= cfg.term_tol
    if K > start:
        below = scale * negbin_tail_exact(successes, nbar, K - 1)
        assert below > cfg.term_tol * (1 - 1e-11)


@pytest.mark.parametrize("nbar", [math.nan, math.inf, -0.5, 0.0])
def test_negbin_tail_refuses_bad_nbar(nbar):
    with pytest.raises(ValueError):
        _support(5, 1.5, nbar, 0, SeriesConfig())


@given(mean=st.floats(min_value=0.0, max_value=400.0),
       exponent=st.floats(min_value=-290.0, max_value=math.log10(0.99)),
       lo=st.integers(min_value=0, max_value=40))
@example(mean=30.0, exponent=math.log10(0.99), lo=0)
@example(mean=400.0, exponent=-290.0, lo=0)
@settings(max_examples=60, deadline=None)
def test_poisson_cutoff_is_the_smallest_certified_cutoff(mean, exponent, lo):
    tol = 10.0 ** exponent
    K = poisson_cutoff(mean, tol, lo)
    assert K >= lo
    assert poisson_tail_exact(mean, K) < tol
    if K > lo:
        assert poisson_tail_exact(mean, K - 1) > tol * (1 - 1e-11)


def poisson_cutoff_bisected(mean, tol, lo=0):
    """The smallest n >= lo with poisson_tail(mean, n) < tol, by bisection.

    A search independent of `fock.tail_cutoff`'s walk, and the reference
    `poisson_cutoff` is checked against; None where even
    max(lo, MAX_WIDENED_N_MAX) leaves a tail of tol or more.
    """
    hi = max(lo, MAX_WIDENED_N_MAX)
    if poisson_tail(mean, hi) >= tol:
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if poisson_tail(mean, mid) < tol:
            hi = mid
        else:
            lo = mid + 1
    return hi


def _cutoff_cases(count, seed=16):
    rng = np.random.default_rng(seed)
    near_cap = MAX_WIDENED_N_MAX * rng.uniform(0.99, 1.01, count)
    spread = 10.0 ** rng.uniform(-6.0, math.log10(8e4), count)
    corners = np.array([0.0, 5e-324, 1.0, MAX_WIDENED_N_MAX - 1.0,
                        MAX_WIDENED_N_MAX, MAX_WIDENED_N_MAX + 1.0])
    means = np.where(rng.random(count) < 0.3, near_cap, spread)
    means[:count // 10] = rng.choice(corners, count // 10)
    tols = np.where(rng.random(count) < 0.7, 10.0 ** rng.uniform(-290.0, -0.01, count),
                    rng.uniform(0.01, 0.99, count))
    # down to the smallest normal float, which TruncationConfig takes
    tols[-count // 20:] = rng.choice([1e-300, 1e-307, sys.float_info.min], count // 20)
    los = np.where(rng.random(count) < 0.8, rng.integers(0, 200, count),
                   rng.integers(MAX_WIDENED_N_MAX - 1000, MAX_WIDENED_N_MAX + 1000, count))
    return list(zip(means.tolist(), tols.tolist(), los.tolist()))


def test_poisson_cutoff_matches_the_bisection():
    cases = _cutoff_cases(2000)
    refused = 0
    for mean, tol, lo in cases:
        expected = poisson_cutoff_bisected(mean, tol, lo)
        if expected is None:
            refused += 1
            with pytest.raises(TailTooLarge):
                poisson_cutoff(mean, tol, lo)
        else:
            assert poisson_cutoff(mean, tol, lo) == expected, (mean, tol, lo)
    # the sample reaches both sides of the refusal
    assert 0 < refused < len(cases) // 2


def test_poisson_cutoff_below_the_mode_past_its_cap():
    # the mean lies past MAX_WIDENED_N_MAX, so the walk starts above the cap
    # and the cutoff lies below the mode
    mean, tol = 100498.82533516805, 0.9733318503604204
    assert poisson_cutoff(mean, tol, 60) == 99887 == poisson_cutoff_bisected(mean, tol, 60)


def test_poisson_cutoff_of_a_tiny_mean():
    # p_1 = 1e-200 is above tol, and p_2 underflows to 0: a walk that stepped
    # down from that zero would find the tail above 0 to be 0 as well
    assert poisson_cutoff(1e-200, 1e-250) == 1 == poisson_cutoff_bisected(1e-200, 1e-250)


def test_support_grows_as_the_tolerance_falls():
    # down to the smallest float: a walk that stepped down from a term that
    # had underflowed to 0 would find every tail 0 and return its start.
    # SeriesConfig refuses a subnormal term_tol, so this is `_support(5, 1.5,
    # 0.5, 0, cfg)`'s own walk, called with the same arguments
    q, scale = 0.5 / 1.5, 1.5
    supports = [tail_cutoff(lambda x: _negbin_log_pmf(x, 5, 0.5), q, q * 5, 0,
                            tol / scale, thermal.M_MAX)
                for tol in (1e-300, 1e-310, 1e-320, 5e-324)]
    assert supports == sorted(supports) and supports[0] > 0


def test_support_refuses_past_m_max(monkeypatch):
    # the mode of 200 successes at nbar 0.9 lies far past 16 terms
    monkeypatch.setattr(thermal, "M_MAX", 16)
    with pytest.raises(ConvergenceFailure):
        _support(200, 1.9, 0.9, 0, SeriesConfig())


# --- the same cutoffs as scipy's tails on the benchmark's inputs -------------

def _benchmark_inputs(workload):
    """Invocations of `workload` for seeds 1-10, from the benchmark's generator."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    if not path.exists():
        pytest.skip("benchmark workload generator not present")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [inv for seed in range(1, 11) for inv in workloads.generate(workload, seed)]


def _run(invocations, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for inv in invocations:
        for name, text in inv["files"].items():
            Path(name).write_text(text)
        assert cli.main(inv["argv"]) == 0


def _record(monkeypatch, module, name):
    """Wrap module.name so that every call's arguments and result are kept."""
    calls, original = [], getattr(module, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_widened_cutoffs_match_pdtrc():
    special = pytest.importorskip("scipy.special")
    trunc = PhysicalConfig().trunc
    for inv in _benchmark_inputs("setup1-scan"):
        mean = max(inv["expect"]["n_mean"])
        n_max = trunc.n_max
        while special.pdtrc(n_max, mean) >= trunc.tail_tol:
            n_max += 1
        assert widened_truncation(mean, trunc).n_max == n_max
    for mean in (24.0, 200.0, 5e3):
        n_max = widened_truncation(mean, trunc).n_max
        assert special.pdtrc(n_max, mean) < trunc.tail_tol <= special.pdtrc(n_max - 1, mean)


@pytest.mark.parametrize("workload", ["fig4", "nbar-sweep"])
def test_inner_supports_match_nbdtrc(workload, tmp_path, monkeypatch):
    special = pytest.importorskip("scipy.special")
    calls = _record(monkeypatch, thermal, "_support")
    _run(_benchmark_inputs(workload), tmp_path, monkeypatch)
    assert calls
    for (successes, scale, nbar, start, cfg), support in calls:
        ks = np.arange(start, thermal.M_MAX)
        held = scale * special.nbdtrc(ks, successes, 1.0 / (1.0 + nbar)) <= cfg.term_tol
        assert support == ks[np.argmax(held)]


def test_uniformization_terms_match_pdtrc(tmp_path, monkeypatch):
    special = pytest.importorskip("scipy.special")
    calls = _record(monkeypatch, open_system, "poisson_cutoff")
    _run(_benchmark_inputs("selftest"), tmp_path, monkeypatch)
    assert calls
    for (qh, tol), terms in calls:
        j = 0
        while special.pdtrc(j, qh) >= tol:
            j += 1
        assert terms == j
