"""Configuration of the streaming pose-serving subsystem.

One frozen :class:`ServeConfig` object describes how a :class:`PoseServer`
schedules work: how many cross-user requests a micro-batch may coalesce, the
latency budget a request carries, how deep the pending queue may grow before
backpressure kicks in, and how much per-user frame history each session
retains for streaming fusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .faults import FaultPlan
from .policy import AdapterPolicy
from .scheduling import SchedulingPolicy

__all__ = ["ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Scheduling and capacity knobs of the serving layer.

    Attributes
    ----------
    max_batch_size:
        Upper bound on the number of pending requests one micro-batch may
        coalesce across users.  Enqueueing the ``max_batch_size``-th request
        triggers an immediate flush.
    max_delay_ms:
        Default latency budget of a request that names no traffic class:
        its deadline is its arrival time plus this delay.  Deadlines only
        feed accounting — a request served past its deadline counts in
        ``deadline_misses`` — and never close a batch: a batch closes when
        it is full (:meth:`PoseServer.enqueue` flushes at
        ``max_batch_size``) or when its caller flushes (every socket round
        flushes at once).  With an explicit ``scheduling`` policy, per-class
        budgets replace this single knob.
    max_queue_depth:
        Bound of the pending-request queue; a request that arrives at this
        depth is subject to the ``overflow`` policy.  Because enqueue
        flushes at ``max_batch_size``, the queue never grows past that, so
        the bound only fires when ``max_queue_depth < max_batch_size``.
    overflow:
        Backpressure policy when the queue is at ``max_queue_depth``:
        ``"drop_oldest"`` (default) drops the oldest pending request (its
        :class:`PendingPrediction` resolves to the dropped state) so fresh
        frames stay relevant, ``"reject"`` raises on the incoming request
        instead.
    ring_capacity:
        Number of frames of per-user history each session retains for the
        streaming fusion window.  ``None`` derives ``2M + 1`` from the
        estimator's fusion setting.
    max_sessions:
        Bound on concurrently tracked user sessions; the least recently
        active session is evicted beyond it.
    gemm_block:
        Width of the fixed-shape GEMM blocks of the batch-invariant shared
        parameter kernel (:class:`repro.serve.SharedParameterKernel`).
        ``None`` uses ``max_batch_size``.  Every micro-batch — including a
        single-request one — is computed with GEMMs of exactly this width,
        so a frame's bits never depend on its co-riders.  They may depend
        on its slot in the block at some widths: within one server any
        batch composition yields the same bits only where the BLAS computes
        every column of a block alike.  On OpenBLAS 0.3.31 (one or two
        threads) that held at 2, 4, 8, 16, 32 and 64 — every shipped width
        — and not at 5, 6 or 7; ``scripts/blas_regimes.py`` lists where a
        BLAS changes PoseCNN's bits with the width.
        Comparing *different* servers bitwise (e.g. the unbatched reference
        in ``tests/serve``) additionally requires pinning both to the same
        ``gemm_block``: different block widths use differently shaped GEMMs
        and may differ in the last bits.
    adapter:
        The per-user adaptation policy (:class:`repro.serve.AdapterPolicy`):
        scope, rank, training hyper-parameters, and hot/warm/cold tier
        budgets.  A server's ``policy`` argument wins over it; ``None``
        with no ``policy`` argument uses the default all-scope policy.
    scheduling:
        The deadline-accounting and admission-control policy
        (:class:`repro.serve.SchedulingPolicy`): the traffic-class table
        with per-class latency budgets, per-user token-bucket rate limits
        enforced at the front-end, and the ``retry_after`` shed hint.
        ``None`` derives the policy from ``max_delay_ms``
        (``interactive`` = exactly that budget, ``bulk`` = 10x it).  Like
        every other field it crosses the worker pickle boundary, so shard
        processes account identically.
    fault_plan:
        Optional deterministic fault-injection schedule
        (:class:`repro.serve.FaultPlan`) for chaos testing and manual
        chaos runs (``--fault-plan``).  Like every other field it crosses
        the worker pickle boundary inside :class:`repro.serve.worker.ShardFactory`,
        which is how ``worker_crash`` rules reach shard worker processes.
        ``None`` (the default) injects nothing and costs nothing.
    """

    max_batch_size: int = 32
    max_delay_ms: float = 5.0
    max_queue_depth: int = 256
    overflow: str = "drop_oldest"
    ring_capacity: Optional[int] = None
    max_sessions: int = 1024
    gemm_block: Optional[int] = None
    adapter: Optional[AdapterPolicy] = None
    scheduling: Optional[SchedulingPolicy] = None
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.overflow not in ("drop_oldest", "reject"):
            raise ValueError(f"unknown overflow policy '{self.overflow}'")
        if self.ring_capacity is not None and self.ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.gemm_block is not None and self.gemm_block < 2:
            raise ValueError("gemm_block must be >= 2 (width-1 GEMMs hit the gemv kernel)")

    @property
    def scheduler(self) -> SchedulingPolicy:
        """The effective scheduling policy (derived from ``max_delay_ms``
        when no explicit ``scheduling`` policy is set)."""
        if self.scheduling is not None:
            return self.scheduling
        return SchedulingPolicy.from_delay(self.max_delay_ms)

    @property
    def block_width(self) -> int:
        """Effective GEMM block width of the shared-parameter kernel."""
        return self.gemm_block if self.gemm_block is not None else max(2, self.max_batch_size)
