"""Deterministic fault injection and the unified retry policy.

The serving tier has many places to die — shard worker processes, the
pipelined socket protocol, adapter spill files, a routed fleet with failover
— and robustness claims are only worth something if every failure mode can
be scripted and replayed exactly.  This module is that script:

* :class:`FaultPlan` — a frozen, picklable schedule of :class:`FaultRule`
  entries ("crash shard 0 at its 5th enqueued frame", "blackhole the 3rd
  submit reply").  Schedules are keyed off **monotonic occurrence counters**
  (frames enqueued, replies written, spill files saved), never wall time, so
  a plan replays identically on any machine at any speed.  Plans load from
  JSON for the ``fuse-serve``/``fuse-router`` ``--fault-plan`` flags and
  cross the shard-worker pickle boundary inside :class:`ServeConfig`.
* :class:`FaultInjector` — the runtime seam.  Components ask
  :meth:`FaultInjector.check` at each injection point; the injector counts
  the occurrence, matches it against the plan, and records every fired
  fault in a ledger so tests can assert that metrics counters exactly match
  the schedule.  With no plan the check is a cheap no-op.
* :class:`RetryPolicy` — the single description of "how to retry": bounded
  exponential backoff with deterministic seeded jitter and an attempt
  budget.  It replaces the ad-hoc connect backoff in
  :class:`AsyncPoseClient`, governs router→backend request retries, and
  paces :class:`ShardProcess` restart backoff — one dataclass, one set of
  semantics, everywhere.

Fault operations (``FaultRule.op``):

``worker_crash``
    Hard-kill the shard worker process (``os._exit``) when its monotonic
    enqueued-frame counter reaches the rule.  Target: ``shard<index>``.
``blackhole``
    Swallow a matched request at the socket front-end — no reply is ever
    written, as if the network partitioned after delivery.  Target: the
    wire message ``kind`` (e.g. ``submit``, ``ping``).
``reply_latency``
    Delay a matched reply by ``delay_s`` before writing it (brownout: the
    backend is alive but slow).  Target: the wire message ``kind``.
``corrupt_frame``
    Flip bytes inside a matched outgoing reply frame's payload, so the peer
    decodes garbage and surfaces a :class:`WireError`.  Target: the reply
    message ``type``.
``truncate_frame``
    Cut a matched outgoing reply frame short and hang up mid-frame, so the
    peer sees :class:`TruncatedFrame`.  Target: the reply message ``type``.
``corrupt_spill``
    Flip a byte inside a just-written adapter spill record, so the next
    load fails its CRC check and exercises the quarantine path.
    Target: ``spill``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "FAULT_OPS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "maybe_injector",
]

#: every fault operation a :class:`FaultRule` may name.
FAULT_OPS = (
    "worker_crash",
    "blackhole",
    "reply_latency",
    "corrupt_frame",
    "truncate_frame",
    "corrupt_spill",
)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    Attributes
    ----------
    max_attempts:
        Total attempt budget, *including* the first try.  ``1`` means no
        retries at all.
    base_delay_s:
        Backoff before the first retry (i.e. between attempt 0 and 1).
    max_delay_s:
        Cap on any single backoff delay.
    multiplier:
        Exponential growth factor between consecutive retries.
    jitter:
        Fraction of the computed delay (``0.0``–``1.0``) replaced by a
        seeded pseudo-random draw.  Jitter decorrelates a thundering herd
        without sacrificing reproducibility: the draw is keyed on
        ``(seed, salt, attempt)``, so the same caller retrying the same
        attempt always waits the same time.
    seed:
        Base seed of the jitter stream.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.05
    max_delay_s: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1 (it includes the first try)")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, salt: str = "") -> float:
        """Backoff in seconds after failed attempt number ``attempt`` (0-based).

        Deterministic: the jittered fraction is drawn from a PRNG seeded on
        ``(seed, salt, attempt)``, so replays and tests see identical
        schedules.  ``salt`` distinguishes independent retry streams (one
        per user, per shard, per endpoint) so they do not march in lockstep.
        """
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        base = min(self.base_delay_s * (self.multiplier ** attempt), self.max_delay_s)
        if not self.jitter:
            return base
        draw = random.Random(f"{self.seed}:{salt}:{attempt}").random()
        return base * (1.0 - self.jitter) + base * self.jitter * draw

    def delays(self, salt: str = "") -> List[float]:
        """Every backoff delay of a full attempt budget, in order."""
        return [self.delay(attempt, salt) for attempt in range(self.max_attempts - 1)]

    def to_dict(self) -> Dict[str, float]:
        return {
            "max_attempts": self.max_attempts,
            "base_delay_s": self.base_delay_s,
            "max_delay_s": self.max_delay_s,
            "multiplier": self.multiplier,
            "jitter": self.jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "RetryPolicy":
        known = {key: payload[key] for key in cls.__dataclass_fields__ if key in payload}
        unknown = set(payload) - set(known)
        if unknown:
            raise ValueError(f"unknown RetryPolicy fields: {sorted(unknown)}")
        return cls(**known)

    @classmethod
    def none(cls) -> "RetryPolicy":
        """No retries: a single attempt, no backoff."""
        return cls(max_attempts=1, base_delay_s=0.0, max_delay_s=0.0)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: ``op`` on ``target`` at occurrence ``at``.

    ``at`` indexes the monotonic per-``(op, target)`` occurrence counter
    (0-based): ``at=4`` fires on the fifth matching event.  ``count`` fires
    the rule on that many *consecutive* occurrences (a blackhole lasting
    three replies); ``None`` means every occurrence from ``at`` on.
    ``target`` matches the concrete injection-site name, with ``"*"``
    matching any site of the op.
    """

    op: str
    target: str = "*"
    at: int = 0
    count: Optional[int] = 1
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in FAULT_OPS:
            raise ValueError(f"unknown fault op '{self.op}'; known ops: {', '.join(FAULT_OPS)}")
        if self.at < 0:
            raise ValueError("at must be non-negative")
        if self.count is not None and self.count < 1:
            raise ValueError("count must be >= 1 (or None for 'from at on')")
        if self.delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if self.op == "reply_latency" and self.delay_s == 0.0:
            raise ValueError("reply_latency rules need delay_s > 0")

    def matches(self, target: str, occurrence: int) -> bool:
        """Does this rule fire for ``target`` at occurrence ``occurrence``?"""
        if self.target != "*" and self.target != target:
            return False
        if occurrence < self.at:
            return False
        return self.count is None or occurrence < self.at + self.count

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"op": self.op, "target": self.target, "at": self.at}
        payload["count"] = self.count
        if self.delay_s:
            payload["delay_s"] = self.delay_s
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultRule":
        known = {key: payload[key] for key in cls.__dataclass_fields__ if key in payload}
        unknown = set(payload) - set(known)
        if unknown:
            raise ValueError(f"unknown FaultRule fields: {sorted(unknown)}")
        return cls(**known)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, picklable schedule of fault rules.

    The plan travels wherever configuration travels: through
    :class:`ServeConfig` across the shard-worker pickle boundary, and as a
    JSON file behind the CLI ``--fault-plan`` flag.  An empty plan is the
    (cheap) default everywhere.
    """

    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    def __bool__(self) -> bool:
        return bool(self.rules)

    def for_op(self, op: str) -> Tuple[FaultRule, ...]:
        """Every rule of one fault operation."""
        return tuple(rule for rule in self.rules if rule.op == op)

    def with_rule(self, rule: FaultRule) -> "FaultPlan":
        return replace(self, rules=self.rules + (rule,))

    def to_dict(self) -> Dict[str, object]:
        return {"rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FaultPlan":
        rules = payload.get("rules", [])
        if not isinstance(rules, Sequence) or isinstance(rules, (str, bytes)):
            raise ValueError("FaultPlan 'rules' must be a list of rule objects")
        unknown = set(payload) - {"rules"}
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(rules=tuple(FaultRule.from_dict(rule) for rule in rules))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--fault-plan`` format)."""
        with open(Path(path), "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    @classmethod
    def none(cls) -> "FaultPlan":
        return cls()


# ----------------------------------------------------------------------
# Runtime injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Counts injection-site occurrences and fires the plan's rules.

    One injector instance owns one set of monotonic occurrence counters, so
    components that must count independently (each shard worker process,
    the front-end, the router) each build their own injector from the same
    shared plan.  Every fired fault is appended to :attr:`fired`, giving
    chaos tests an exact ledger to reconcile metrics counters against.
    """

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan.none()
        self._counts: Dict[Tuple[str, str], int] = {}
        #: ledger of fired faults: ``(op, target, occurrence)`` in fire order.
        self.fired: List[Tuple[str, str, int]] = []

    def __bool__(self) -> bool:
        return bool(self.plan)

    def occurrences(self, op: str, target: str) -> int:
        """How many occurrences of ``(op, target)`` have been counted."""
        return self._counts.get((op, target), 0)

    def fired_count(self, op: str, target: Optional[str] = None) -> int:
        """How many faults of ``op`` (optionally on ``target``) have fired."""
        return sum(
            1
            for fired_op, fired_target, _ in self.fired
            if fired_op == op and (target is None or fired_target == target)
        )

    def check(self, op: str, target: str) -> Optional[FaultRule]:
        """Count one occurrence of ``(op, target)``; return the rule if it fires.

        The occurrence counter advances on *every* call, fired or not —
        schedules stay aligned with the component's own monotonic counters
        (frames enqueued, replies written) rather than with fault history.
        """
        if op not in FAULT_OPS:
            raise ValueError(f"unknown fault op '{op}'")
        if not self.plan:
            return None
        key = (op, target)
        occurrence = self._counts.get(key, 0)
        self._counts[key] = occurrence + 1
        for rule in self.plan.rules:
            if rule.op == op and rule.matches(target, occurrence):
                self.fired.append((op, target, occurrence))
                return rule
        return None

    # ------------------------------------------------------------------
    # Byte-mangling helpers for the wire/spill corruption ops
    # ------------------------------------------------------------------
    @staticmethod
    def corrupt_bytes(data: bytes, seed: int = 0) -> bytes:
        """Deterministically flip a handful of bytes inside ``data``.

        Used by the ``corrupt_frame`` and ``corrupt_spill`` ops.  Offsets
        are drawn from a seeded PRNG over the second half of the buffer, so
        a wire frame's header survives (the peer reads a full frame and
        fails *decoding* it) while the payload does not.
        """
        if len(data) < 2:
            return bytes(byte ^ 0xFF for byte in data)
        mangled = bytearray(data)
        rng = random.Random(seed)
        start = len(mangled) // 2
        for _ in range(max(1, min(8, len(mangled) - start))):
            offset = rng.randrange(start, len(mangled))
            mangled[offset] ^= 0xFF
        return bytes(mangled)

    @staticmethod
    def truncate_bytes(data: bytes) -> bytes:
        """Cut an encoded frame short (half its length, at least one byte)."""
        return data[: max(1, len(data) // 2)]

    def corrupt_file(self, path: Union[str, Path], seed: int = 0) -> None:
        """Flip bytes inside a file on disk (the ``corrupt_spill`` op)."""
        path = Path(path)
        path.write_bytes(self.corrupt_bytes(path.read_bytes(), seed=seed))


def maybe_injector(
    plan: Optional[FaultPlan],
    injector: Optional[FaultInjector] = None,
) -> Optional[FaultInjector]:
    """Build an injector from a plan unless one was passed explicitly.

    The standard constructor-kwarg pattern: components accept either a
    ready-made :class:`FaultInjector` (tests share one ledger) or just the
    plan (production builds a private injector), and ``None``/empty plans
    cost nothing on the hot path.
    """
    if injector is not None:
        return injector
    if plan:
        return FaultInjector(plan)
    return None
