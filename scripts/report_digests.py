#!/usr/bin/env python3
"""Digest the reports the CLI writes for a fixed set of inputs.

    python3 scripts/report_digests.py [--seeds N] [--compare FILE]

prints, as JSON, `{case: [exit code, sha256 of the report]}` for

* the benchmark workloads' inputs at seeds 1..N (default 10), generated by
  `perfbench/workloads.py`, which is loaded by its path and only read;
* each call of CALLS, once with `--format json` and once with `--format csv`.

The package is imported from the `src` directory next to this script, so a
copy of the script in another checkout digests that checkout's program. Each
call runs in-process through `cavity_ramsey.cli.main`, in a fresh temporary
directory that holds its config files; a call that writes no report has the
digest null. With `--compare FILE`, the output of an earlier run, every case
whose entry differs or is missing on either side is named on stderr, and the
exit code is 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cavity_ramsey.cli import main as cli_main  # noqa: E402

CONFIGS = {"tau": {"tau_s": 8e-5}, "nbar": {"nbar": 0.95},
           "omega": {"omega_chi_rad": 0.6}, "n_max": {"n_max": 5}}
# (argv, config name or None): each subcommand at its defaults, the series'
# variant B, an odd fringe grid, setup 1 at large, tiny and fractional N, and
# every subcommand under each of CONFIGS
CALLS = [
    (["setup1"], None), (["setup2"], None), (["fig4"], None),
    (["velocity-scan"], None), (["selftest"], None),
    (["setup2", "--variant", "B"], None),
    (["fig4", "--variant", "B"], None), (["velocity-scan", "--variant", "B"], None),
    (["setup2", "--phi-points", "17"], None),
    (["setup1", "--n-values", "20000,20050,20127"], None),
    (["setup1", "--n-values", "0,1e-200,3.7"], None),
    *[([command], name) for name in CONFIGS
      for command in ("setup1", "setup2", "fig4", "velocity-scan", "selftest")],
]


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_case(argv: list[str], files: dict, out: str) -> list:
    """[exit code, sha256 of the report file or None] of one CLI call."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
            report = Path(out)
            digest = (hashlib.sha256(report.read_bytes()).hexdigest()
                      if report.exists() else None)
        finally:
            os.chdir(cwd)
    return [code, digest]


def digests(seeds: int) -> dict:
    """Every case's [exit code, digest], the workloads' first."""
    workloads = _load_workloads()
    cases = {}
    for workload in workloads.WORKLOADS:
        for seed in range(1, seeds + 1):
            for inv in workloads.generate(workload, seed):
                cases[f"{workload}/{seed}/{inv['out']}"] = run_case(
                    inv["argv"], inv["files"], inv["out"])
    for argv, config in CALLS:
        files, args, name = {}, list(argv), " ".join(argv)
        if config is not None:
            files = {"config.json": json.dumps(CONFIGS[config]) + "\n"}
            args += ["--config", "config.json"]
            name += f" config={config}"
        for fmt in ("json", "csv"):
            cases[f"{name} {fmt}"] = run_case(
                [*args, "--format", fmt, "--out", "report"], files, "report")
    return cases


def differences(old: dict, new: dict) -> list[str]:
    """The cases whose entries differ, or that only one side holds."""
    return sorted(case for case in old.keys() | new.keys()
                  if old.get(case) != new.get(case))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="digest the workloads at seeds 1..N (default 10)")
    parser.add_argument("--compare", metavar="FILE",
                        help="an earlier run's output to compare against")
    args = parser.parse_args(argv)
    cases = digests(args.seeds)
    print(json.dumps(cases, indent=1))
    if args.compare is None:
        return 0
    differing = differences(json.loads(Path(args.compare).read_text()), cases)
    for case in differing:
        print(f"differs: {case}", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
