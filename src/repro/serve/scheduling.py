"""Deadline accounting and admission control primitives.

Every request carries an absolute deadline: its arrival time plus its
traffic class's latency budget, or its own ``deadline_ms``.  A deadline
never closes a batch — a batch closes when it is full or when its caller
flushes — it only feeds accounting: a request served past it counts in
``deadline_misses`` and in its class's latency figures, and one whose
``deadline_ms`` is already spent (0) is shed before admission.

Three pieces live here:

* :class:`TrafficClass` — a named latency budget.  The built-in classes are
  ``interactive`` (tight budget: a live pose stream) and ``bulk`` (loose
  budget: an offline replay), mirroring the conflict-aware resource classes
  of RAN serving systems (cf. ACCoRD in PAPERS.md); they label deadline
  accounting.
* :class:`SchedulingPolicy` — the frozen policy object carried on
  :class:`repro.serve.ServeConfig`: the class table, the default class,
  per-user token-bucket rate limits enforced at the socket front-end, and
  the ``retry_after`` hint shed requests are answered with.
* :class:`TokenBucket` — the per-user admission meter.  Deterministic: it
  refills purely as a function of the injected clock reading, never the
  wall clock, so tests can assert refill behavior exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["RateLimited", "SchedulingPolicy", "TokenBucket", "TrafficClass"]

#: the built-in priority class names
INTERACTIVE = "interactive"
BULK = "bulk"


class RateLimited(RuntimeError):
    """Raised when admission control sheds a request.

    Carries the ``retry_after_ms`` hint the shedding side answers with; the
    wire layer copies it onto the correlated error frame so a client can
    back off for exactly that long and retry.
    """

    def __init__(self, message: str, retry_after_ms: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


@dataclass(frozen=True)
class TrafficClass:
    """A named latency budget.

    ``budget_ms`` is the latency a request of this class is allowed: its
    absolute deadline is ``arrival + budget_ms``, and a request served past
    it counts as a deadline miss.
    """

    name: str
    budget_ms: float

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError("traffic class name must be a non-empty string")
        if self.budget_ms < 0:
            raise ValueError("budget_ms must be non-negative")

    @property
    def budget_s(self) -> float:
        return self.budget_ms / 1000.0


@dataclass(frozen=True)
class SchedulingPolicy:
    """Deadline accounting and admission control, in one frozen object.

    Attributes
    ----------
    classes:
        The traffic-class table.  Every request names one class (or the
        default); its latency budget becomes the request's deadline.
    default_class:
        Class assumed by requests that name none — ``interactive``, whose
        budget a plain ``max_delay_ms`` configuration sets.
    rate_limit_per_user:
        Sustained per-user admission rate at the front-end, in requests per
        second (token-bucket refill rate).  ``None`` disables rate limiting.
    rate_limit_burst:
        Bucket capacity: how many requests a user may burst above the
        sustained rate before shedding starts.
    retry_after_ms:
        The backoff hint shed requests are answered with (the ``retry_after``
        contract: the client sleeps this long before retrying).
    """

    classes: Tuple[TrafficClass, ...] = (
        TrafficClass(INTERACTIVE, 5.0),
        TrafficClass(BULK, 50.0),
    )
    default_class: str = INTERACTIVE
    rate_limit_per_user: Optional[float] = None
    rate_limit_burst: float = 8.0
    retry_after_ms: float = 25.0
    _by_name: Dict[str, TrafficClass] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("at least one traffic class is required")
        table = {}
        for traffic_class in self.classes:
            if traffic_class.name in table:
                raise ValueError(f"duplicate traffic class '{traffic_class.name}'")
            table[traffic_class.name] = traffic_class
        if self.default_class not in table:
            raise ValueError(
                f"default_class '{self.default_class}' is not in the class table "
                f"({', '.join(sorted(table))})"
            )
        if self.rate_limit_per_user is not None and self.rate_limit_per_user <= 0:
            raise ValueError("rate_limit_per_user must be positive (or None)")
        if self.rate_limit_burst < 1:
            raise ValueError("rate_limit_burst must be >= 1")
        if self.retry_after_ms <= 0:
            raise ValueError("retry_after_ms must be positive")
        object.__setattr__(self, "_by_name", table)

    @classmethod
    def from_delay(cls, max_delay_ms: float) -> "SchedulingPolicy":
        """The policy a plain ``max_delay_ms`` configuration expresses:
        ``interactive`` gets exactly that budget and ``bulk`` ten times it."""
        return cls(
            classes=(
                TrafficClass(INTERACTIVE, max_delay_ms),
                TrafficClass(BULK, max_delay_ms * 10.0),
            )
        )

    def resolve(self, name: Optional[str]) -> TrafficClass:
        """The class for a request naming ``name`` (``None`` = the default)."""
        key = name if name is not None else self.default_class
        try:
            return self._by_name[key]
        except KeyError:
            raise ValueError(
                f"unknown traffic class '{key}' "
                f"(expected one of {', '.join(sorted(self._by_name))})"
            ) from None

    @property
    def class_names(self) -> Tuple[str, ...]:
        return tuple(traffic_class.name for traffic_class in self.classes)

    @property
    def retry_after_s(self) -> float:
        return self.retry_after_ms / 1000.0

    # ------------------------------------------------------------------
    # Wire transport (CLI flags and the serve-config handshake)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "classes": [
                {"name": c.name, "budget_ms": c.budget_ms} for c in self.classes
            ],
            "default_class": self.default_class,
            "rate_limit_per_user": self.rate_limit_per_user,
            "rate_limit_burst": self.rate_limit_burst,
            "retry_after_ms": self.retry_after_ms,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SchedulingPolicy":
        classes = tuple(
            TrafficClass(entry["name"], float(entry["budget_ms"]))
            for entry in payload.get("classes", ())
        )
        kwargs = {
            key: payload[key]
            for key in (
                "default_class",
                "rate_limit_per_user",
                "rate_limit_burst",
                "retry_after_ms",
            )
            if key in payload
        }
        if classes:
            kwargs["classes"] = classes
        return cls(**kwargs)


class TokenBucket:
    """A deterministic token bucket metered on an injected clock.

    The bucket holds up to ``burst`` tokens and refills at ``rate`` tokens
    per second of *clock* time.  Refill is computed lazily from the elapsed
    reading — no background timers — so under a fake clock the balance after
    ``advance(dt)`` is exactly ``min(burst, tokens + dt * rate)``.
    """

    __slots__ = ("rate", "burst", "tokens", "_updated")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._updated = float(now)

    def _refill(self, now: float) -> None:
        elapsed = now - self._updated
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self._updated = max(self._updated, now)

    def balance(self, now: float) -> float:
        """Tokens available at clock reading ``now``."""
        self._refill(now)
        return self.tokens

    def try_acquire(self, now: float, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; ``False`` means shed the request."""
        self._refill(now)
        if self.tokens >= tokens:
            self.tokens -= tokens
            return True
        return False

    def retry_after_s(self, now: float, tokens: float = 1.0) -> float:
        """Clock seconds until ``tokens`` will be available (0.0 if now)."""
        self._refill(now)
        deficit = tokens - self.tokens
        return max(0.0, deficit / self.rate)
