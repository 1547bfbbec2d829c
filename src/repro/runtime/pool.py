"""Worker pools, shard layout and result merging.

:func:`map_shards` is the one fan-out primitive of the runtime layer: cut a
list of work items into one contiguous shard per worker, apply a function to
every shard — in-process for one worker, over a process pool otherwise — and
return the per-shard results *in shard order*, so merging is a plain
concatenation and the output is independent of scheduling.

Design constraints:

* **Determinism** — shard layout is a pure function of ``(len(items),
  workers)``; results are returned in submission order
  (``ProcessPoolExecutor.map`` preserves it), and stochastic stages draw
  per-item randomness (:mod:`repro.runtime.seeding`), so worker count never
  changes bits.
* **Portability** — the pool prefers the cheap ``fork`` start method where
  the platform offers it and falls back to ``spawn`` elsewhere, which is why
  shard functions must be module-level callables (or ``functools.partial``
  of one): they cross a pickle boundary.
* **No pool for trivial work** — one worker or one shard short-circuits to a
  plain loop; callers never pay process start-up for small inputs.
"""

from __future__ import annotations

import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["shard_items", "map_shards", "merge_shards", "pool_context", "shard_for"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")


def shard_items(items: Sequence[ItemT], num_shards: int) -> List[List[ItemT]]:
    """Cut ``items`` into ``num_shards`` contiguous, order-preserving shards.

    The items are spread as evenly as possible (sizes differ by at most
    one).  Empty shards are never produced.
    """
    items = list(items)
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if not items:
        return []
    num_shards = min(num_shards, len(items))
    base, extra = divmod(len(items), num_shards)
    shards: List[List[ItemT]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        shards.append(items[start : start + size])
        start += size
    return shards


def pool_context(start_method: Optional[str] = None) -> multiprocessing.context.BaseContext:
    """The multiprocessing context every runtime consumer shares.

    Defaults to the cheapest available start method — ``fork`` where the OS
    has it (child processes inherit large read-only state, e.g. a trained
    estimator, copy-on-write), ``spawn`` elsewhere.  Both the shard pools
    here and the serving shard workers (:mod:`repro.serve.worker`) derive
    their processes from this one policy, so a deployment overrides the
    start method in exactly one place.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def map_shards(
    fn: Callable[[List[ItemT]], ResultT],
    items: Sequence[ItemT],
    workers: int = 1,
) -> List[ResultT]:
    """Apply ``fn`` to each of ``workers`` shards of ``items``; results come
    back in order.

    With one worker or one shard the call degenerates to a serial loop in
    this process; otherwise shards run on a process pool, so ``fn`` must be
    picklable — a module-level function or a :func:`functools.partial` of
    one.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shards = shard_items(items, num_shards=workers)
    if len(shards) <= 1:
        return [fn(shard) for shard in shards]
    with ProcessPoolExecutor(max_workers=len(shards), mp_context=pool_context()) as pool:
        return list(pool.map(fn, shards))


def merge_shards(per_shard: Sequence[Sequence[ResultT]]) -> List[ResultT]:
    """Concatenate per-shard result lists back into one flat, ordered list."""
    merged: List[ResultT] = []
    for shard in per_shard:
        merged.extend(shard)
    return merged


def shard_for(key: object, num_shards: int) -> int:
    """Stable shard assignment of an arbitrary key (e.g. a serving user id).

    Uses CRC32 of ``str(key)`` rather than :func:`hash` so the assignment is
    identical across processes and interpreter runs — a user always lands on
    the same shard, which is what keeps per-shard session state and adapted
    parameter sets consistent.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    return zlib.crc32(str(key).encode()) % num_shards
