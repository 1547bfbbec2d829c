"""The :class:`ExecutionPlan` — the one execution-policy object.

Every compute layer — synthetic dataset generation, bulk feature building,
the batched radar engine, meta-training and the experiment drivers — takes
the same plan, so one object switches the whole stack between the batched
kernels and their per-frame / per-task reference twins, and between serial
and multi-process execution.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExecutionPlan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """Execution policy shared by every compute layer.

    Attributes
    ----------
    vectorized:
        ``True`` (default) routes radar synthesis, feature building and
        meta-learning inner loops through the batched kernels; ``False``
        selects the frame-at-a-time / task-at-a-time reference paths (used
        by the equivalence tests and throughput benchmarks).
    workers:
        Number of worker processes for shardable stages (synthetic dataset
        generation, bulk feature building, meta-training).  ``1`` (default)
        runs in-process; higher values fan contiguous shards out over a
        process pool via :func:`repro.runtime.map_shards`.  Per-shard
        seeding makes results bitwise independent of this knob — it only
        changes the wall clock.
    """

    vectorized: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def reference(cls) -> "ExecutionPlan":
        """The per-frame / per-task reference plan."""
        return cls(vectorized=False)
