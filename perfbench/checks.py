"""Output checks on the reports a pass wrote, and their deviation from reference.

`problems(inv, report)` lists every invariant the report breaks; the
invariants hold for any seed. `deviation(rows, reference)` is the largest
absolute difference between numeric cells of two row tables.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# reports carry 12 significant digits; closed forms and inputs are compared
# at a tolerance just above that rounding
ROUNDING_TOL = 1e-11
# a report may drift this far from the recorded reference and still count as
# correct (the selftest's own tightest tolerance is 1e-9)
REFERENCE_TOL = 1e-8


def _closed_form(T):
    return 2.0 * math.exp(-T) / (3.0 - math.exp(-T))


def _derived_form(T):
    return 2.0 * math.exp(-T) / (3.0 - math.exp(-2.0 * T))


def _close(a, b):
    return abs(a - b) <= ROUNDING_TOL * max(1.0, abs(b))


def _visibility_column(report, name, out):
    values = [row[report["columns"].index(name)] for row in report["rows"]]
    if any(not 0.0 <= v <= 1.0 for v in values):
        out.append(f"{name} leaves [0, 1]")
    if any(b > a + ROUNDING_TOL for a, b in zip(values, values[1:])):
        out.append(f"{name} increases with T")


def _fig4(expect, report, out):
    rows = report["rows"]
    if len(rows) != len(expect["T"]):
        out.append(f"{len(rows)} rows for {len(expect['T'])} waits")
        return
    for (T, v_cf, v_der, _), t_in in zip(rows, expect["T"]):
        if not _close(T, t_in):
            out.append(f"T {T} is not the requested {t_in}")
        if not _close(v_cf, _closed_form(t_in)):
            out.append(f"v_zero_temp {v_cf} != 2e^-T/(3-e^-T) at T={t_in}")
        if not _close(v_der, _derived_form(t_in)):
            out.append(f"v_zero_temp_oracle {v_der} != 2e^-T/(3-e^-2T) at T={t_in}")
    for name in ("v_zero_temp", "v_zero_temp_oracle", "v_thermal"):
        _visibility_column(report, name, out)


def _velocity_scan(expect, report, out):
    if not _close(report["meta"]["config"]["nbar"], expect["nbar"]):
        out.append("config nbar was not applied")
    t_col = report["column_values"]["T"]
    if any(b <= a for a, b in zip(t_col, t_col[1:])):
        out.append("T does not increase along the rows")
    for name in ("v_model", "v_predicted"):
        _visibility_column(report, name, out)


def _selftest(expect, report, out):
    failing = [row[0] for row in report["rows"] if row[-1] != "pass"]
    if failing or not report["meta"]["all_pass"]:
        out.append(f"selftest rows fail: {failing}")
    if report["meta"]["series_variant"] != "A":
        out.append(f"variant {expect['variant']} resolved to "
                   f"{report['meta']['series_variant']}, not A")


def _setup1(expect, report, out):
    cols = report["column_values"]
    if len(cols["n_mean"]) != len(expect["n_mean"]) or not all(
            _close(a, b) for a, b in zip(cols["n_mean"], expect["n_mean"])):
        out.append("n_mean column differs from the requested values")
    if any(not 0.0 <= v <= 1.0 for v in cols["visibility"]):
        out.append("visibility leaves [0, 1]")
    eta = report["meta"]["config"]["eta"]
    if any(not _close(ve, eta * min(v, 1.0))
           for v, ve in zip(cols["visibility"], cols["visibility_eta"])):
        out.append("visibility_eta != eta * visibility")
    if any(abs(p + m - 0.5) > 1e-9 for p, m in zip(cols["n_plus"], cols["n_minus"])):
        out.append("n_plus + n_minus != 1/2")


def oracle_gap(report: dict):
    """|series - oracle| from a selftest report (at the report's 12 digits)."""
    if report.get("scenario") != "selftest":
        return None
    for name, value, reference, *_ in report["rows"]:
        if name == "thermal_series_vs_oracle":
            return abs(value - reference)
    return None


_CHECKS = {"fig4": _fig4, "velocity-scan": _velocity_scan,
           "selftest": _selftest, "setup1": _setup1}


def problems(inv: dict, report: dict) -> list[str]:
    """Invariants of `report` (parsed JSON) broken for invocation `inv`."""
    report = dict(report)
    report["column_values"] = {c: [row[i] for row in report["rows"]]
                               for i, c in enumerate(report["columns"])}
    out: list[str] = []
    _CHECKS[inv["argv"][0]](inv["expect"], report, out)
    return out


def _numeric(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def deviation(rows, reference) -> float:
    """max |a - b| over numeric cells; inf when the tables differ in shape or text."""
    if len(rows) != len(reference):
        return math.inf
    dev = 0.0
    for row, ref in zip(rows, reference):
        if len(row) != len(ref):
            return math.inf
        for a, b in zip(row, ref):
            if _numeric(a) and _numeric(b):
                dev = max(dev, abs(a - b))
            elif a != b:
                return math.inf
    return dev


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    """input key -> list of row tables, one per invocation; {} if none recorded."""
    path = reference_path(workload)
    if not path.exists():
        return {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, table: dict) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    blob = json.dumps(table, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0 keeps the file byte-identical when re-recorded
    with open(reference_path(workload), "wb") as fh:
        fh.write(gzip.compress(blob, mtime=0))
