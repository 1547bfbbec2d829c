"""The injectable time source of the serving subsystem.

Scheduling code is timing-sensitive: request deadlines, token-bucket
refills and latency measurements all read a clock.  Production reads the
monotonic wall clock; tests must not — every scheduling decision has to be
reproducible, so the whole serving tier takes its notion of "now" from one
injected :class:`Clock` seam instead of calling :func:`time.perf_counter`
directly.

A :class:`Clock` is *callable* (``clock()`` is ``clock.now()``), so an
instance satisfies every pre-existing ``Callable[[], float]`` clock
parameter — :class:`repro.serve.PoseServer`, :class:`ServeMetrics` and
friends accept either a bare callable or a :class:`Clock` unchanged.

* :class:`MonotonicClock` — the default; wraps :func:`time.perf_counter`.
* :class:`FakeClock` — a manually stepped clock for deterministic tests:
  time only moves when the test calls :meth:`FakeClock.advance`.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Clock", "MonotonicClock", "FakeClock", "as_clock"]


class Clock:
    """Abstract monotonic time source, callable like ``time.perf_counter``."""

    def now(self) -> float:
        """Seconds on this clock (monotonic within one instance)."""
        raise NotImplementedError

    def __call__(self) -> float:
        return self.now()


class MonotonicClock(Clock):
    """The production clock: :func:`time.perf_counter`."""

    def now(self) -> float:
        return time.perf_counter()


class FakeClock(Clock):
    """A manually advanced clock for deterministic scheduling tests.

    Time starts at ``start`` and only moves via :meth:`advance`, so a test
    controls exactly when deadlines expire and token buckets refill.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.time = float(start)

    def now(self) -> float:
        return self.time

    def advance(self, seconds: float) -> float:
        """Step time forward; returns the new reading."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot move backwards")
        self.time += seconds
        return self.time


class _CallableClock(Clock):
    """Adapter giving a bare ``Callable[[], float]`` the :class:`Clock` API."""

    def __init__(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    def now(self) -> float:
        return self._fn()


def as_clock(clock: Callable[[], float]) -> Clock:
    """Coerce a clock argument (a :class:`Clock` or bare callable) to a Clock."""
    if isinstance(clock, Clock):
        return clock
    if not callable(clock):
        raise TypeError(f"clock must be callable, got {type(clock).__name__}")
    return _CallableClock(clock)
