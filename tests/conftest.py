import numpy as np
import pytest

from cavity_ramsey import open_system, thermal

# (T, nbar) points at which the series variants are held against the oracle
ORACLE_GRID = (
    (0.008, 0.3), (0.008, 0.7),
    (0.1, 0.3), (0.1, 0.7),
    (0.4, 0.3), (0.4, 0.7),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def column(report, name: str) -> list:
    """The values of one named column of a ScanReport, row by row."""
    i = report.columns.index(name)
    return [row[i] for row in report.rows]


def variant_deviations() -> dict:
    """Each series variant's total |series - master_visibility| over ORACLE_GRID.

    The oracle sweeps each nbar's waits as one array, and each variant's
    series serves them from one build.
    """
    totals = {"A": 0.0, "B": 0.0}
    for nbar in dict.fromkeys(nb for _, nb in ORACLE_GRID):
        ts = np.array([T for T, nb in ORACLE_GRID if nb == nbar])
        oracle = open_system.master_visibility(ts, nbar)
        for variant in totals:
            cfg = thermal.SeriesConfig(variant=variant)
            series = thermal.thermal_visibility(ts, nbar, cfg)
            totals[variant] += float(np.abs(series - oracle).sum())
    return totals
