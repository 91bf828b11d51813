#!/usr/bin/env python3
"""Record the reference reports that run.py measures max_abs_dev against.

    python3 perfbench/record_reference.py --seeds 1-10

Runs each workload once per seed on the checkout's current code and stores
the report rows under the digest of the inputs (workloads.input_key), so a
seed whose inputs repeat (selftest ignores the seed) is stored once.
Reports that break an output check are refused rather than recorded.
"""

from __future__ import annotations

import argparse
import sys

import checks
import run
import workloads


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="e.g. 1-10")
    args = parser.parse_args(argv)
    run.build()
    for workload in workloads.WORKLOADS:
        table = checks.load_reference(workload)
        for seed in args.seeds:
            invocations = workloads.generate(workload, seed)
            key = workloads.input_key(invocations)
            if key in table:
                continue
            result, reports = run.run_pass(invocations)
            for inv, code, report in zip(invocations, result["codes"], reports):
                found = [f"exit {code}"] if code != 0 else checks.problems(inv, report)
                if found:
                    print(f"{workload} seed {seed}: {found}", file=sys.stderr)
                    return 1
            table[key] = [report["rows"] for report in reports]
            print(f"{workload} seed {seed}: recorded {key}", flush=True)
        checks.save_reference(workload, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
