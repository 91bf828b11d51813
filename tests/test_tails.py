"""The in-house Poisson and negative-binomial tails against independent references.

mpmath gives the exact tails; scipy's `pdtrc`/`nbdtrc`, which these tails
replaced, must pick the same cutoffs on the benchmark's inputs. Both are
optional: without them these tests skip. The thermal inner supports are
checked against a fresh negative-binomial walk, `series_reference._support`.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
import series_reference as ref
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavity_ramsey import cli, open_system, thermal
from cavity_ramsey.config import PhysicalConfig
from cavity_ramsey.errors import ConvergenceFailure, TailTooLarge
from cavity_ramsey.fock import (
    MAX_WIDENED_N_MAX,
    poisson_cutoff,
    poisson_tail,
    rounding_bound,
    widened_truncation,
)
from cavity_ramsey.thermal import SeriesConfig, _carry, _first_rung, _tail

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
    tail, _ = ref.upper_tail(lambda x: ref._negbin_log_pmf(x, successes, nbar), k + 1,
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
    K = ref._support(successes, scale, nbar, start, cfg)
    assert K >= start
    assert scale * negbin_tail_exact(successes, nbar, K) <= cfg.term_tol
    if K > start:
        below = scale * negbin_tail_exact(successes, nbar, K - 1)
        assert below > cfg.term_tol * (1 - 1e-11)


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
    `poisson_cutoff` is checked against, for lo <= MAX_WIDENED_N_MAX; None
    where even MAX_WIDENED_N_MAX leaves a tail of tol or more.
    """
    hi = MAX_WIDENED_N_MAX
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
    # a lo past the cap is no TruncationConfig.n_max, so no caller passes one
    cases = [case for case in _cutoff_cases(2000) if case[2] <= MAX_WIDENED_N_MAX]
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
    supports = [ref.tail_cutoff(lambda x: ref._negbin_log_pmf(x, 5, 0.5), q, q * 5, 0,
                                tol / scale, thermal.M_MAX)
                for tol in (1e-300, 1e-310, 1e-320, 5e-324)]
    assert supports == sorted(supports) and supports[0] > 0


def _first_rung_cases(count, seed=30):
    """(scale, nbar, cfg) of seeded first rungs: nbar uniform in [1e-4, 0.999]
    or log-uniform down to 1e-4, term_tol log-uniform from the smallest normal
    float to 1e-6 with a twentieth of the cases at that smallest float, and the
    scale of either ladder."""
    rng = np.random.default_rng(seed)
    nbars = np.where(rng.random(count) < 0.7, rng.uniform(1e-4, 0.999, count),
                     10.0 ** rng.uniform(-4.0, math.log10(0.999), count))
    # 10 ** log10(x) can round below x
    tols = np.maximum(10.0 ** rng.uniform(math.log10(sys.float_info.min), -6.0, count),
                      sys.float_info.min)
    tols[-count // 20:] = sys.float_info.min
    powers = rng.integers(1, 3, count)
    return [((1.0 + nbar) ** power, nbar, SeriesConfig(term_tol=tol))
            for nbar, tol, power in zip(nbars.tolist(), tols.tolist(), powers.tolist())]


def test_first_rung_is_the_walked_support():
    # the carried tail's certificate picks the support the negative-binomial
    # walk certifies, and the state is the closed form at that support
    for scale, nbar, cfg in _first_rung_cases(2000):
        K = ref._support(1, scale, nbar, 0, cfg)
        q, half = nbar / (1.0 + nbar), (K + 1) // 2
        p = q ** half / (cfg.term_tol / scale) * q ** (K + 1 - half) / (1.0 + nbar)
        assert _first_rung(scale, nbar, cfg) == (K, p, nbar, K + 5.0), (scale, nbar, cfg)


@pytest.mark.parametrize("nbar", [math.nan, math.inf, -0.5, 0.0])
def test_negbin_tail_refuses_bad_nbar(nbar):
    with pytest.raises(ValueError, match="negative-binomial nbar"):
        _first_rung(1.5, nbar, SeriesConfig())


def test_first_rung_refuses_past_m_max(monkeypatch):
    # at nbar 0.9 the geometric law needs about 36 terms to reach 1e-12
    monkeypatch.setattr(thermal, "M_MAX", 16)
    with pytest.raises(ConvergenceFailure, match="M_MAX=16"):
        _first_rung(1.9, 0.9, SeriesConfig())


@given(nbar=st.floats(min_value=0.01, max_value=0.95),
       exponent=st.floats(min_value=-300.0, max_value=-6.0), squared=st.booleans())
@example(nbar=0.95, exponent=-300.0, squared=False)
@example(nbar=0.95, exponent=-300.0, squared=True)
@example(nbar=0.01, exponent=-6.0, squared=False)
@example(nbar=0.01, exponent=-6.0, squared=True)
@settings(max_examples=30, deadline=None)
def test_carried_tail_is_the_fresh_support(nbar, exponent, squared):
    # 60 rungs from the geometric law: each carried support is the one the
    # fresh walk finds from the last, and each carried tail bounds the exact
    # one from above, as tightly as a fresh `upper_tail`; its parts hold
    # their own bounds: p within rounding_bound(size, 0) of P[NB = K+1] / tol,
    # and the ratio above P[NB > K+1] / P[NB = K+1]
    mpmath = _mpmath()
    cfg = SeriesConfig(term_tol=10.0 ** exponent)
    scale = (1.0 + nbar) ** (2 if squared else 1)
    q = mpmath.mpf(nbar) / (1 + mpmath.mpf(nbar))
    tail = _first_rung(scale, nbar, cfg)
    for successes in range(2, 62):
        last = tail
        tail = _carry(successes, nbar, last, cfg)
        K, p, ratio, size = tail
        assert K == ref._support(successes, scale, nbar, last[0], cfg), successes
        bound = _tail(p, ratio, size) * (cfg.term_tol / scale)
        exact = negbin_tail_exact(successes, nbar, K)
        assert bound >= exact, successes
        assert bound == pytest.approx(exact, rel=1e-11, abs=0.0), successes
        pmf = mpmath.binomial(K + successes, K + 1) * (1 - q) ** successes * q ** (K + 1)
        rest = mpmath.betainc(K + 2, successes, 0, q, regularized=True)
        assert abs(p * mpmath.mpf(cfg.term_tol / scale) / pmf - 1) <= rounding_bound(size, 0)
        assert ratio >= rest / pmf, successes


def test_carried_support_refuses_past_m_max(monkeypatch):
    # at nbar 0.9 both first rungs stop below 39 terms, and the ladders'
    # later supports climb past 70, so the refusal comes from a carried rung
    cfg = SeriesConfig()
    assert max(_first_rung(1.9, 0.9, cfg)[0], _first_rung(1.9 ** 2, 0.9, cfg)[0]) < 40
    monkeypatch.setattr(thermal, "M_MAX", 48)
    with pytest.raises(ConvergenceFailure, match="M_MAX=48"):
        thermal.thermal_visibility(0.1, 0.9, cfg)


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


def _rungs(first, carried):
    """(successes, scale, nbar, start, cfg, support) of every rung of the
    recorded `_first_rung` and `_carry` calls: each carried tail takes its
    scale from the tail it moved, and starts from that tail's support."""
    scales = {id(tail): scale for (scale, _, _), tail in first}
    rungs = [(1, scale, nbar, 0, cfg, tail[0]) for (scale, nbar, cfg), tail in first]
    for (successes, nbar, last, cfg), tail in carried:
        scales[id(tail)] = scale = scales[id(last)]
        rungs.append((successes, scale, nbar, last[0], cfg, tail[0]))
    return rungs


@pytest.mark.parametrize("workload", ["fig4", "nbar-sweep"])
def test_inner_supports_match_nbdtrc(workload, tmp_path, monkeypatch):
    special = pytest.importorskip("scipy.special")
    first = _record(monkeypatch, thermal, "_first_rung")
    carried = _record(monkeypatch, thermal, "_carry")
    _run(_benchmark_inputs(workload), tmp_path, monkeypatch)
    assert first and carried
    for successes, scale, nbar, start, cfg, support in _rungs(first, carried):
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
