"""A manually stepped clock for deterministic serving tests.

Scheduling code is timing-sensitive: request deadlines, token-bucket
refills and latency measurements all read a clock.  Every serving class
that reads one (:class:`repro.serve.PoseServer`, :class:`ServeMetrics`,
:class:`PoseFrontend`) takes it as a zero-argument callable returning
seconds, defaulting to :func:`time.perf_counter`.  Tests must not read the
wall clock — every scheduling decision has to be reproducible — so they
pass a :class:`FakeClock`, whose time only moves when the test calls
:meth:`FakeClock.advance`.
"""

from __future__ import annotations

__all__ = ["FakeClock"]


class FakeClock:
    """A manually advanced clock for deterministic scheduling tests.

    Time starts at ``start`` and only moves via :meth:`advance`, so a test
    controls exactly when deadlines expire and token buckets refill.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.time = float(start)

    def __call__(self) -> float:
        return self.time

    def advance(self, seconds: float) -> float:
        """Step time forward; returns the new reading."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        self.time += seconds
        return self.time
