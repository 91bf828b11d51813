"""Compensated accumulation for slowly converging, alternating series."""

from __future__ import annotations

import math


class CompensatedSum:
    """Neumaier (improved Kahan) accumulator.

    The thermal series mix binomially large terms of alternating sign, where
    naive accumulation loses the low-order bits. The series sum whole vectors
    with `exact_sum` instead; this accumulator is kept because the
    benchmark's per-layer counters (`perfbench/tracer.py`) look it up.
    """

    __slots__ = ("_sum", "_comp")

    def __init__(self, value: float = 0.0):
        self._sum = float(value)
        self._comp = 0.0

    def add(self, term: float) -> None:
        t = self._sum + term
        if abs(self._sum) >= abs(term):
            self._comp += (self._sum - t) + term
        else:
            self._comp += (term - t) + self._sum
        self._sum = t

    @property
    def value(self) -> float:
        return self._sum + self._comp


def exact_sum(terms) -> float:
    """Exact (error-free) float sum of an iterable; thin wrapper over fsum."""
    return math.fsum(terms)
