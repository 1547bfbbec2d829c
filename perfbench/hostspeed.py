"""Host-speed calibration for timing metrics.

The benchmark shares its machine with others: over tens of seconds the same
code runs up to a quarter faster or slower.  A fixed calibration workload,
independent of the program under test (the serving kernel's GEMM shapes
plus interpreter-bound loops, the same mix the serving path executes), is
timed next to every timed sample, and timing metrics are reported at the
reference pace, where the calibration takes ``REFERENCE_S``: a rate is
multiplied by ``pace / REFERENCE_S``, a duration by the inverse.  The raw
figures are reported alongside.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020


class Calibration:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._weight = rng.standard_normal((512, 2048))
        self._block = rng.standard_normal((2048, 32))
        self._patches = rng.standard_normal((2048, 45))
        self._filters = rng.standard_normal((45, 16))
        self.measure()  # first touch of the arrays is not the host's pace

    def measure(self) -> float:
        """Seconds the calibration workload takes right now."""
        start = time.perf_counter()
        for _ in range(10):
            self._weight @ self._block
            self._patches @ self._filters
        total = 0
        for value in range(20_000):
            total += value
        table = {}
        for value in range(5_000):
            table[value] = value
        return time.perf_counter() - start


def rate(value: float, pace_s: float) -> float:
    """A rate measured at ``pace_s``, restated at the reference pace."""
    return value * pace_s / REFERENCE_S


def duration(value: float, pace_s: float) -> float:
    """A duration measured at ``pace_s``, restated at the reference pace."""
    return value * REFERENCE_S / pace_s
