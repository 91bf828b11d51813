"""The in-house Poisson and negative-binomial tails against independent references.

mpmath gives the exact tails; scipy's `pdtrc`/`nbdtrc`, which these tails
replaced, must pick the same cutoffs on the benchmark's inputs. Both are
optional: without them these tests skip.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cavity_ramsey import cli, open_system, thermal
from cavity_ramsey.config import PhysicalConfig
from cavity_ramsey.errors import ConvergenceFailure
from cavity_ramsey.fock import poisson_tail, widened_truncation
from cavity_ramsey.thermal import SeriesConfig, _negbin_tail, _support

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
    # k + 1 past the mode, as `_negbin_tail` requires
    k = math.floor((successes - 1) * nbar) + int(
        spread * (12.0 * math.sqrt(successes * nbar * (1 + nbar)) + 40.0))
    exact = negbin_tail_exact(successes, nbar, k)
    assume(SMALLEST_TAIL < exact < 0.5)
    tail, _ = _negbin_tail(successes, nbar, k)
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
        _negbin_tail(5, nbar, 10)
    with pytest.raises(ValueError):
        _support(5, 1.5, nbar, 0, SeriesConfig())


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
