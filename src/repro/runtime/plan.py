"""The :class:`ExecutionPlan` — one object owning execution policy.

Parallelism used to be smeared across layers: the batched engine had its own
knobs (:class:`repro.engine.BatchPlan`), the serving layer its own scheduling
config, and dataset generation none at all.  The runtime layer centralizes
the *policy* half of that story: how many worker processes to use, how work
is cut into shards, which radar backend to select and how built features are
cached.  Every compute layer — synthetic dataset generation, the batched
engine, the experiment drivers and multi-shard serving — consults the same
plan, so one object switches the whole stack between serial, vectorized and
multi-process execution.

:class:`repro.engine.BatchPlan` is retained as a thin compatibility façade
(a subclass adding nothing), so existing engine-facing code keeps working
while new code can type against :class:`ExecutionPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["ExecutionPlan"]


@dataclass(frozen=True)
class ExecutionPlan:
    """Execution policy shared by every compute layer.

    Attributes
    ----------
    vectorized:
        Master switch: ``True`` (default) routes radar synthesis, feature
        building and meta-learning inner loops through the batched kernels;
        ``False`` selects the frame-at-a-time / task-at-a-time reference
        paths (used by the equivalence tests and throughput benchmarks).
    batch_size:
        Number of radar frames processed per vectorized chunk.  Bounds peak
        memory of the signal-chain backend (each frame's data cube is a
        ``(samples, chirps, antennas)`` complex array).
    workers:
        Number of worker processes for shardable stages (synthetic dataset
        generation, bulk feature building).  ``1`` (default) runs in-process;
        higher values fan shards out over a process pool via
        :func:`repro.runtime.map_shards`.  Per-shard seeding makes results
        bitwise independent of this knob — it only changes the wall clock.
    shard_size:
        Number of work items per shard when fanning out; ``None`` cuts the
        work into ``workers`` contiguous shards.  Smaller shards load-balance
        better when item costs are uneven, at slightly higher IPC cost.
    cache_policy:
        ``"memory"`` memoizes built feature/label arrays in the in-process
        content-addressed LRU cache (:mod:`repro.dataset.cache`);
        ``"disk"`` additionally spills entries to ``cache_dir`` so other
        processes (and later runs) reuse them; ``"none"`` rebuilds on every
        call.
    cache_capacity:
        Maximum number of cached feature datasets when caching is enabled.
    cache_dir:
        Directory of the on-disk cache tier (required when ``cache_policy``
        is ``"disk"``).
    cache_disk_capacity:
        Maximum number of persisted entries before the oldest are evicted.
    backend:
        Optional radar-backend override (``"geometric"`` or ``"signal"``)
        applied by engine helpers that construct pipelines; ``None`` keeps
        the caller's configured backend.  This selects the *radar* synthesis
        model.
    """

    vectorized: bool = True
    batch_size: int = 64
    workers: int = 1
    shard_size: Optional[int] = None
    cache_policy: str = "memory"
    cache_capacity: int = 16
    cache_dir: Optional[str] = None
    cache_disk_capacity: int = 64
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if self.cache_policy not in ("none", "memory", "disk"):
            raise ValueError(f"unknown cache policy '{self.cache_policy}'")
        if self.cache_policy == "disk" and not self.cache_dir:
            raise ValueError("cache_policy='disk' requires cache_dir")
        if self.cache_capacity < 1:
            raise ValueError("cache_capacity must be >= 1")
        if self.cache_disk_capacity < 1:
            raise ValueError("cache_disk_capacity must be >= 1")
        if self.backend is not None and self.backend not in ("geometric", "signal"):
            raise ValueError(
                f"unknown radar backend '{self.backend}' (expected 'geometric' or 'signal')"
            )

    @classmethod
    def reference(cls) -> "ExecutionPlan":
        """The per-frame / per-task reference plan (no vectorization, no cache)."""
        return cls(vectorized=False, cache_policy="none")

    def with_workers(self, workers: int) -> "ExecutionPlan":
        """Return a copy of this plan with a different worker count."""
        return replace(self, workers=workers)
