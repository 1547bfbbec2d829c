"""Tests of the runtime fan-out primitives (shard layout, pools, hashing)."""

from __future__ import annotations

import os
from functools import partial

import pytest

from repro.runtime import map_shards, merge_shards, shard_for, shard_items


def _square_shard(items):
    """Module-level so it crosses the process pool's pickle boundary."""
    return [item * item for item in items]


def _shard_pid(items):
    return [os.getpid() for _ in items]


class TestShardItems:
    def test_even_split(self):
        assert shard_items([1, 2, 3, 4], num_shards=2) == [[1, 2], [3, 4]]

    def test_uneven_split_differs_by_at_most_one(self):
        shards = shard_items(list(range(10)), num_shards=4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]
        assert merge_shards(shards) == list(range(10))

    def test_more_shards_than_items_produces_no_empties(self):
        shards = shard_items([1, 2], num_shards=8)
        assert shards == [[1], [2]]

    def test_empty_items(self):
        assert shard_items([], num_shards=3) == []


class TestMapShards:
    def test_serial_path(self):
        results = map_shards(_square_shard, [1, 2, 3], workers=1)
        assert merge_shards(results) == [1, 4, 9]

    def test_pooled_results_preserve_order(self):
        items = list(range(37))
        results = map_shards(_square_shard, items, workers=3)
        assert merge_shards(results) == [i * i for i in items]

    def test_pooled_equals_serial(self):
        items = list(range(20))
        serial = merge_shards(map_shards(_square_shard, items, workers=1))
        pooled = merge_shards(map_shards(_square_shard, items, workers=4))
        assert serial == pooled

    def test_work_actually_leaves_the_process(self):
        pids = set(merge_shards(map_shards(_shard_pid, list(range(8)), workers=2)))
        assert os.getpid() not in pids

    def test_partial_is_picklable(self):
        fn = partial(_square_shard)
        results = map_shards(fn, [2, 3], workers=2)
        assert merge_shards(results) == [4, 9]

    def test_empty_items(self):
        assert map_shards(_square_shard, [], workers=4) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            map_shards(_square_shard, [1], workers=0)


class TestShardFor:
    def test_stable_and_in_range(self):
        for key in ("alice", "user-042", 7, ("a", 1)):
            index = shard_for(key, 4)
            assert 0 <= index < 4
            assert shard_for(key, 4) == index  # deterministic

    def test_distributes_users(self):
        assignments = {shard_for(f"user-{i:03d}", 4) for i in range(64)}
        assert assignments == {0, 1, 2, 3}

    def test_single_shard(self):
        assert shard_for("anyone", 1) == 0

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_for("x", 0)
