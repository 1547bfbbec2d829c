"""``repro.runtime`` — the shared execution-policy layer.

One subsystem owns *how* work executes so no other layer has to:

* :class:`ExecutionPlan` — worker count, shard layout, vectorization,
  feature-cache policy and radar-backend override in one frozen object.
  :class:`repro.engine.BatchPlan` is a thin compatibility façade over it.
* :func:`map_shards` / :func:`shard_items` / :func:`merge_shards` — the
  fan-out primitive: contiguous shards, optional process pool, results in
  shard order.
* :func:`seed_for_key` / :func:`rng_for_key` / :func:`spawn_shard_seeds` —
  per-work-item seeding, the invariant that makes sharded stages bitwise
  independent of the worker count.
* :func:`shard_for` — stable hash assignment of keys (serving users) onto
  shards.
* :func:`pool_context` — the one process-lifecycle policy (start method)
  shared by the shard pools and the serving shard workers.

Consumers: synthetic dataset generation and bulk feature building shard on
:func:`map_shards`; the batched engine reads its vectorization/cache policy
from the plan; :class:`repro.serve.ProcessShardedPoseServer` places users
with :func:`shard_for`, derives its worker processes from
:func:`pool_context` and seeds each shard with :func:`seed_for_key`; the
experiment drivers and CLI thread one plan through all of it.
"""

from .plan import ExecutionPlan
from .pool import map_shards, merge_shards, pool_context, shard_for, shard_items
from .seeding import rng_for_key, seed_for_key, spawn_shard_seeds

__all__ = [
    "ExecutionPlan",
    "map_shards",
    "merge_shards",
    "pool_context",
    "rng_for_key",
    "seed_for_key",
    "shard_for",
    "shard_items",
    "spawn_shard_seeds",
]
