"""Seeded CLI inputs for the four benchmark workloads.

Each workload is a list of invocations. An invocation holds the argv passed to
`cavity_ramsey.cli.main`, the config files it reads (name -> text, written into
the pass's working directory), the report file it writes, and `expect`: what
the output checks need to know about the inputs. The program sees only argv
and the files; `expect` stays on the benchmark's side.

Why each workload exists (see README.md for the layer map):

* fig4         - the thermal series at one nbar and several T.
* nbar-sweep   - the same series layer the other way round: several nbar, few
                 T each, so work built once per nbar is paid three times.
* selftest     - `selftest` at a wait where the RK4 oracle dominates: the
                 one oracle-bound user path short enough to repeat in a run.
* setup1-scan  - no oracle and no series: `fock` and `jc` do the work, so it
                 is the no-change control for oracle or series changes.

A pass takes a few seconds, so a run repeats it many times and reports
medians; seeds move the inputs only within windows narrow enough that the
cost of a pass hardly depends on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("fig4", "nbar-sweep", "selftest", "setup1-scan")

FIG4_POINTS = 6
FIG4_STEP = 0.2
FIG4_OFFSET = 0.02
# one nbar near the centre of each third of [0.05, 0.95]
NBAR_CENTRES = (0.2, 0.5, 0.8)
NBAR_JITTER = 0.05
# selftest at T = tau / (2 t_cav) = 0.04, nbar = 0.7: the oracle's share of the
# pass is about 80 %, against about 60 % at the default T = 0.008
SELFTEST_TAU_S = 80e-6
SETUP1_COUNT = 1601
SETUP1_N_MAX = 20.0


def _invocation(argv, out, expect, files=None):
    return {"argv": [*argv, "--format", "json", "--out", out],
            "files": files or {}, "out": out, "expect": expect}


def _fig4(rng, tiny):
    points = 3 if tiny else FIG4_POINTS
    start = rng.uniform(0.0, FIG4_OFFSET)
    # a small overshoot on stop keeps the CLI's floor() from dropping the
    # last point to rounding; the grid is start + i * step, i < points
    stop = start + (points - 1) * FIG4_STEP + 1e-6
    grid = f"{start!r}:{stop!r}:{FIG4_STEP!r}"
    t_values = [start + i * FIG4_STEP for i in range(points)]
    return [_invocation(["fig4", "--t-grid", grid], "fig4.json",
                        {"T": t_values})]


def _nbar_sweep(rng, tiny):
    nbars = [c + rng.uniform(-NBAR_JITTER, NBAR_JITTER) for c in NBAR_CENTRES]
    if tiny:
        nbars = nbars[:1]
    out = []
    for k, nbar in enumerate(nbars):
        cfg = f"nbar{k}.json"
        out.append(_invocation(
            ["velocity-scan", "--config", cfg], f"velocity{k}.json",
            {"nbar": nbar}, files={cfg: json.dumps({"nbar": nbar}) + "\n"}))
    return out


def _selftest(rng, tiny):
    # the seed is unused: the oracle points are the per-point metric names
    # (tracer.ORACLE_POINTS), so they stay fixed
    return [_invocation(["selftest", "--variant", "A", "--config", "wait.json"],
                        "selftest.json", {"variant": "A"},
                        files={"wait.json": json.dumps({"tau_s": SELFTEST_TAU_S}) + "\n"})]


def _setup1_scan(rng, tiny):
    count = 5 if tiny else SETUP1_COUNT
    n_values = sorted(rng.uniform(0.0, SETUP1_N_MAX) for _ in range(count))
    text = ",".join(repr(n) for n in n_values)
    return [_invocation(["setup1", "--n-values", text], "setup1.json",
                        {"n_mean": n_values})]


_BUILDERS = {"fig4": _fig4, "nbar-sweep": _nbar_sweep,
             "selftest": _selftest, "setup1-scan": _setup1_scan}


def generate(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The invocations of `workload` for `seed`; equal seeds give equal inputs."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(seed), tiny)


def input_key(invocations: list[dict]) -> str:
    """Digest of what the program sees; reference reports are stored under it."""
    seen = [{"argv": inv["argv"], "files": inv["files"]} for inv in invocations]
    blob = json.dumps(seen, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
