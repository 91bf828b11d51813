#!/usr/bin/env python3
"""Time the package's layers in-process and print their medians in ms.

    PYTHONPATH=src python3 scripts/layer_times.py [--repeats N]

prints one `median_ms  what` row per timed call:

* each runner at its defaults (`run_fig4` on the CLI's default 0:1:0.02
  grid);
* the `setup1-scan` input, 1601 sorted `random.Random(1)` uniforms in
  [0, 20] (the benchmark's seed-1 draw): `run_setup1`, then `to_json` and
  `to_csv` of its report, and `solve_pi_half_time` on its square roots
  (the pulse solver alone, all 1601 rows in one call);
* `master_visibility` and `thermal_visibility` at (T, nbar) = (0.008, 0.3),
  (0.4, 0.7) and (1.0, 0.95);
* the benchmark's own series builds, each one `thermal_visibility` call:
  `fig4`'s seed-1 grid of 6 waits at nbar 0.7, and `velocity-scan`'s 5 waits
  at its defaults (T_ref and the 4 default velocities' waits) at nbar 0.2,
  0.5 and 0.8, the centres of the `nbar-sweep` draws.

Each call runs once untimed (imports, first-call costs), then N times
(default 7). The numbers depend on the host; quote them with it.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time

import numpy as np

from cavity_ramsey.config import PhysicalConfig
from cavity_ramsey.experiments import (
    DEFAULT_VELOCITIES,
    run_fig4,
    run_selftest,
    run_setup1,
    run_setup2,
    run_velocity_scan,
)
from cavity_ramsey.jc import solve_pi_half_time
from cavity_ramsey.open_system import master_visibility
from cavity_ramsey.thermal import thermal_visibility

SETUP1_SEED = 1
SETUP1_COUNT = 1601
SETUP1_N_MAX = 20.0
POINTS = ((0.008, 0.3), (0.4, 0.7), (1.0, 0.95))
FIG4_GRID = [i * 0.02 for i in range(51)]
# the fig4 workload's grid: 6 waits 0.2 apart from a seeded start in [0, 0.02]
FIG4_SEED, FIG4_WAITS, FIG4_STEP, FIG4_OFFSET, FIG4_NBAR = 1, 6, 0.2, 0.02, 0.7
SWEEP_NBARS = (0.2, 0.5, 0.8)


def median_ms(call, repeats: int) -> float:
    """Median wall time of call() in ms over `repeats` runs after one warm-up."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed runs per call (default 7)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    rng = random.Random(SETUP1_SEED)
    scan_n = sorted(rng.uniform(0.0, SETUP1_N_MAX) for _ in range(SETUP1_COUNT))
    scan = run_setup1(scan_n)
    scan_alphas = np.sqrt(scan_n)
    calls = [
        ("run_setup1()", run_setup1),
        ("run_setup2()", run_setup2),
        ("run_fig4(0:1:0.02)", lambda: run_fig4(FIG4_GRID)),
        ("run_velocity_scan()", run_velocity_scan),
        ("run_selftest()", run_selftest),
        (f"run_setup1({SETUP1_COUNT} N)", lambda: run_setup1(scan_n)),
        (f"to_json({SETUP1_COUNT} N)", scan.to_json),
        (f"to_csv({SETUP1_COUNT} N)", scan.to_csv),
        (f"solve_pi_half_time({SETUP1_COUNT} N)",
         lambda: solve_pi_half_time(scan_alphas)),
    ]
    for T, nbar in POINTS:
        calls.append((f"master_visibility({T}, {nbar})",
                      lambda T=T, nbar=nbar: master_visibility(T, nbar)))
        calls.append((f"thermal_visibility({T}, {nbar})",
                      lambda T=T, nbar=nbar: thermal_visibility(T, nbar)))
    start = random.Random(FIG4_SEED).uniform(0.0, FIG4_OFFSET)
    fig4_waits = np.array([start + i * FIG4_STEP for i in range(FIG4_WAITS)])
    calls.append((f"thermal_visibility(fig4 seed {FIG4_SEED}, {FIG4_NBAR})",
                  lambda: thermal_visibility(fig4_waits, FIG4_NBAR)))
    cfg = PhysicalConfig()
    scan_waits = np.array([cfg.T, *(cfg.T * cfg.v_ref_mps / v for v in DEFAULT_VELOCITIES)])
    for nbar in SWEEP_NBARS:
        calls.append((f"thermal_visibility(velocity-scan, {nbar})",
                      lambda nbar=nbar: thermal_visibility(scan_waits, nbar)))
    for name, call in calls:
        print(f"{median_ms(call, args.repeats):10.3f}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
