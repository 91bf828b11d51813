"""One pass in a fresh interpreter; run by run.py, not by hand.

    python3 passrun.py SPEC.json

Imports `cavity_ramsey.cli` (timed: setup_s), calls `main(argv)` for every
invocation in the spec (timed together: wall_s), and writes `result.json`
next to the spec: timings, exit codes, peak resident memory and, when
traced, the recorded spans. With no invocations it only measures the import.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

def main() -> int:
    spec_path = Path(sys.argv[1])
    spec = json.loads(spec_path.read_text())
    t0 = time.perf_counter()
    import cavity_ramsey.cli
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "package": cavity_ramsey.__file__}
    if spec["invocations"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer(pass_id=spec["pass_id"])
            tracer.install()
        codes = []
        start = time.perf_counter()
        for argv in spec["invocations"]:
            try:
                codes.append(cavity_ramsey.cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception:  # reported as a failed invocation
                codes.append(traceback.format_exc(limit=3))
        end = time.perf_counter()
        if tracer is not None:
            from tracer import leftover_wrappers
            tracer.uninstall()
            result["trace"] = tracer.dump()
            result["leftover_wrappers"] = leftover_wrappers()
        result.update(wall_s=end - start, codes=codes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    (spec_path.parent / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
