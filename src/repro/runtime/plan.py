"""The :class:`ExecutionPlan` — the one execution-policy object.

The plan is taken only where its choices pay: synthetic dataset generation
(batched or per-frame synthesis, serial or sharded over processes), the
batched radar engine and figure 2's driver (batched or per-frame radar).
Feature building and meta-training have one path each and take no plan.
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
        ``True`` (default) routes radar synthesis through the batched
        kernels; ``False`` selects the frame-at-a-time reference path (used
        by the equivalence tests and throughput benchmarks).
    workers:
        Number of worker processes for synthetic dataset generation.  ``1``
        (default) runs in-process; higher values fan contiguous session
        shards out over a process pool via :func:`repro.runtime.map_shards`.
        Per-session seeding makes results bitwise independent of this knob —
        it only changes the wall clock.
    """

    vectorized: bool = True
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @classmethod
    def reference(cls) -> "ExecutionPlan":
        """The per-frame reference plan."""
        return cls(vectorized=False)
