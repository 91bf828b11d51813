#!/usr/bin/env python3
"""The cavity-ramsey benchmark: seeded CLI workloads, timed end to end.

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

Run from the root of a source checkout; the package is imported from ./src.
Each pass is a fresh interpreter (passrun.py) in a fresh temporary working
directory under ./.perfbench_tmp, so program caches start cold, as they do
for a CLI user who pays one process per invocation. One pass at a time: the
load is that single process (a closed loop with one client). BLAS threads
are pinned to one thread.

--trace 0 repeats timed passes until --seconds have passed (at least one) and
reports the end-to-end metrics. The gated time is wall_rel: the median
wall_s over the median time of a fixed reference computation run between the
passes (reference_s), which cancels most of a shared host's drift in speed. --trace 1 alternates untraced and traced
passes for the same time and reports the per-layer metrics of tracer.py,
plus the tracing overhead (traced minus untraced wall time). Every report is
checked after its pass (checks.py); the last line of output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 5
# one BLAS thread: the oracle's matrices are small, so a second thread gains
# little, and it competes for a core with the rest of the host, which makes
# runs noisier
BLAS_THREADS = 1
# set here, before anything imports numpy, so reference_s runs as the passes do
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
PASS_TIMEOUT_S = 170
END_TO_END = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed invocation)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def _pass_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def build() -> None:
    """Byte-compile the package so no pass pays for compilation."""
    if not (SRC / "cavity_ramsey" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'cavity_ramsey'}; "
                         "run from the root of a cavity-ramsey checkout")
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=PASS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"compileall failed: {done.stderr.strip()}")


# sized so that the reference computation takes about 0.5 s on 2 cores
REF_TERMS = 160_000
REF_UFUNC_ROUNDS = 5_000
REF_PRODUCTS = 400
REF_LEVELS = 66
REF_BATCH = 9


def reference_s() -> float:
    """Time a fixed computation, to gauge how fast the host runs right now.

    A shared host's speed drifts by up to a quarter within minutes, and every
    pass drifts with it. run.py times this computation between passes, and
    the gated wall_rel is the run's median wall_s over its median reference
    time, which cancels most of the drift. The computation mixes the three
    kinds of work the package does, since host contention slows them by
    different amounts: an interpreted compensated sum of lgamma terms (the
    thermal series), many numpy calls on 61-level vectors (the pulse-time
    solver and coherent states), and batched products of 66 x 66 complex
    matrices (the oracle's 9-phi batch of densities).
    """
    import numpy as np
    start = time.perf_counter()
    total = comp = 0.0
    for k in range(REF_TERMS):
        term = math.exp(math.lgamma(k % 50 + 1.5) - math.lgamma(k % 50 + 1.0) - k % 50)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    n = np.arange(61)
    for r in range(REF_UFUNC_ROUNDS):
        c2 = np.abs(np.exp(-0.5 * n + 1j * r * 1e-4)) ** 2
        total += float(np.sum(c2 * np.cos(0.1 * r * np.sqrt(n + 1.0)) ** 2))
    step = np.eye(REF_LEVELS, dtype=complex) * 0.5 + 0.01
    batch = np.stack([step] * REF_BATCH)
    for _ in range(REF_PRODUCTS):
        batch = batch @ step
        batch /= np.abs(batch).max()
    return time.perf_counter() - start


def run_pass(invocations: list[dict], trace: bool = False, pass_id: int = 0):
    """One fresh-interpreter pass; returns (result, reports) with reports parsed."""
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        for inv in invocations:
            for name, text in inv["files"].items():
                (tmp / name).write_text(text, encoding="utf-8")
        spec = {"invocations": [inv["argv"] for inv in invocations],
                "trace": trace, "pass_id": pass_id}
        (tmp / "spec.json").write_text(json.dumps(spec))
        done = subprocess.run([sys.executable, str(BENCH / "passrun.py"), "spec.json"],
                              cwd=tmp, env=_pass_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S)
        if not (tmp / "result.json").is_file():
            raise BenchError(f"pass exited {done.returncode} without a result:\n"
                             f"{done.stderr[-2000:]}")
        result = json.loads((tmp / "result.json").read_text())
        if not Path(result["package"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"imported {result['package']}, not the package in {SRC}")
        reports = []
        for inv in invocations:
            path = tmp / inv["out"]
            reports.append(json.loads(path.read_text()) if path.is_file() else None)
        return result, reports
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class Tally:
    """Failures and reference deviation over every invocation of a run."""

    def __init__(self, workload: str, invocations: list[dict]):
        self.invocations = invocations
        self.reference = checks.load_reference(workload).get(
            workloads.input_key(invocations))
        self.attempted = 0
        self.failures: list[str] = []
        self.max_dev = 0.0 if self.reference else None
        self.cells = 0
        self.oracle_gap = None

    def add(self, result: dict, reports: list) -> None:
        if result.get("leftover_wrappers"):
            self.failures.append(f"wrappers left: {result['leftover_wrappers']}")
        for k, (inv, code, report) in enumerate(
                zip(self.invocations, result["codes"], reports)):
            self.attempted += 1
            label = f"{inv['argv'][0]} #{k}"
            if code != 0:
                self.failures.append(f"{label}: exit {code}")
                continue
            if report is None:
                self.failures.append(f"{label}: no report written")
                continue
            found = checks.problems(inv, report)
            gap = checks.oracle_gap(report)
            if gap is not None:
                self.oracle_gap = max(self.oracle_gap or 0.0, gap)
            if self.reference is not None:
                dev = checks.deviation(report["rows"], self.reference[k])
                self.max_dev = max(self.max_dev, dev)
                self.cells += sum(len(row) for row in report["rows"])
                if dev > checks.REFERENCE_TOL:
                    found.append(f"deviates from reference by {dev:.3g}")
            if found:
                self.failures.append(f"{label}: " + "; ".join(found))

    @property
    def failed(self) -> int:
        return len(self.failures)


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if there is one."""
    n = len(samples)
    if n < 11:
        return "tail n/a (needs n >= 11)"
    k = n - 10
    return f"p{100 * k // n} {sorted(samples)[k - 1]:.6g}"


def _commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one workload; returns the contract result plus human-readable lines."""
    invocations = workloads.generate(workload, seed, tiny=tiny)
    tally = Tally(workload, invocations)
    walls, refs, setups, rss, layers, traced_walls = [], [], [], [], [], []
    env = {}
    kinds = (False, True) if trace else (False,)
    run_pass([])  # warm-up: the first import after a checkout reads cold files
    if not trace:
        reference_s()  # warm-up: its first call is slower
        refs.append(reference_s())
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for traced in kinds:
            result, reports = run_pass(invocations, traced, pass_id=len(walls) + 1)
            tally.add(result, reports)
            env = result["versions"]
            if traced:
                traced_walls.append(result["wall_s"])
                layers.append(tracer.layer_metrics(result["trace"], result["wall_s"]))
                WORK.mkdir(exist_ok=True)
                (WORK / f"last-trace-{workload}.json").write_text(
                    json.dumps(result["trace"]))
            else:
                walls.append(result["wall_s"])
                refs.append(reference_s())
                setups.append(result["setup_s"])
                rss.append(result["peak_rss_mb"])
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_pass([])[0]["setup_s"])

    env.update(python=platform.python_version(), nproc=nproc(),
               blas_threads=BLAS_THREADS, seed=seed,
               commit=_commit(), workload=workload, seconds=seconds)
    lines = [f"env {json.dumps(env, sort_keys=True)}"]
    if trace:
        metrics = {name: statistics.median(m[name] for m in layers)
                   for name in layers[0]}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        lines += [f"{name:56s} {value:.6g} {tracer.unit(name)}"
                  for name, value in metrics.items()]
        lines.append(f"traced passes n={len(traced_walls)}, untraced n={len(walls)}")
        units = {name: tracer.unit(name) for name in metrics}
    else:
        metrics = {"wall_rel": statistics.median(walls) / statistics.median(refs),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": statistics.median(rss)}
        lines += [
            f"wall_rel    {metrics['wall_rel']:.6g} ratio  median wall_s over median ref_s",
            f"wall_s      {statistics.median(walls):.6g} s   median of n={len(walls)} "
            f"passes (not gated: drifts with the host); {tail(walls)}",
            f"ref_s       {statistics.median(refs):.6g} s   median of n={len(refs)} reference "
            "computations, one before and one after each pass",
            f"setup_s     {metrics['setup_s']:.6g} s   median of n={len(setups)} imports",
            f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB  median of n={len(rss)} passes",
        ]
        units = END_TO_END
    lines.append(f"fail_rate   {tally.failed / tally.attempted:.6g} ratio "
                 f"({tally.failed} of n={tally.attempted} invocations)")
    if tally.max_dev is None:
        lines.append(f"max_abs_dev n/a   no reference recorded for seed {seed}")
    else:
        lines.append(f"max_abs_dev {tally.max_dev:.6g} abs  over n={tally.cells} "
                     f"report cells vs the reference for seed {seed}")
    if tally.oracle_gap is not None:
        lines.append(f"oracle_gap  {tally.oracle_gap:.6g} abs  max |series - oracle| "
                     "at the selftest's configured point")
    lines += [f"FAILED {f}" for f in tally.failures]
    return {
        "lines": lines,
        "result": {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        build()
        for name in names:
            out = measure(name, args.seed, args.seconds, bool(args.trace))
            print(f"== perfbench workload={name} seed={args.seed} trace={args.trace}")
            print("\n".join(out["lines"]))
            print(json.dumps(out["result"]), flush=True)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
