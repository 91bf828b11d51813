import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def column(report, name: str) -> list:
    """The values of one named column of a ScanReport, row by row."""
    i = report.columns.index(name)
    return [row[i] for row in report.rows]
