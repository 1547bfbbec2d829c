"""Tests of the content-addressed feature cache (:mod:`repro.dataset.cache`)."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.dataset.cache import FeatureCache
from repro.dataset.features import FeatureMapBuilder
from repro.dataset.sample import LabelledFrame
from repro.radar.pointcloud import PointCloudFrame


def make_samples(count: int, seed: int) -> list[LabelledFrame]:
    rng = np.random.default_rng(seed)
    samples = []
    for index in range(count):
        points = np.column_stack(
            [
                rng.uniform(-1.0, 1.0, 20),
                rng.uniform(0.5, 4.0, 20),
                rng.uniform(0.0, 2.0, 20),
                rng.normal(0.0, 1.0, 20),
                rng.uniform(0.0, 30.0, 20),
            ]
        )
        samples.append(
            LabelledFrame(
                cloud=PointCloudFrame(points),
                joints=rng.normal(size=(19, 3)),
                subject_id=1,
                movement_name="squat",
                frame_index=index,
            )
        )
    return samples


class TestFeatureCache:
    def test_hit_returns_identical_arrays(self):
        cache = FeatureCache()
        samples = make_samples(8, seed=0)
        builder = FeatureMapBuilder()
        first_features, first_labels = cache.get_or_build(samples, builder)
        second_features, second_labels = cache.get_or_build(samples, builder)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        np.testing.assert_array_equal(first_features, second_features)
        np.testing.assert_array_equal(first_labels, second_labels)
        reference_features, reference_labels = builder.build_dataset(samples)
        np.testing.assert_allclose(first_features, reference_features)
        np.testing.assert_allclose(first_labels, reference_labels)

    def test_invalidates_on_builder_config_change(self):
        """The satellite requirement: a config change must miss the cache."""
        cache = FeatureCache()
        samples = make_samples(6, seed=1)
        narrow = FeatureMapBuilder(x_grid_range=(-0.9, 0.9))
        wide = FeatureMapBuilder(x_grid_range=(-1.5, 1.5))
        features_narrow, _ = cache.get_or_build(samples, narrow)
        features_wide, _ = cache.get_or_build(samples, wide)
        assert cache.stats.misses == 2 and cache.stats.hits == 0
        assert not np.allclose(features_narrow, features_wide)
        # Re-requesting either configuration now hits its own entry.
        cache.get_or_build(samples, narrow)
        cache.get_or_build(samples, wide)
        assert cache.stats.hits == 2

    def test_invalidates_on_data_change(self):
        cache = FeatureCache()
        builder = FeatureMapBuilder()
        cache.get_or_build(make_samples(6, seed=2), builder)
        cache.get_or_build(make_samples(6, seed=3), builder)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_lru_eviction(self):
        cache = FeatureCache(capacity=2)
        builder = FeatureMapBuilder()
        batches = [make_samples(4, seed=10 + index) for index in range(3)]
        for batch in batches:
            cache.get_or_build(batch, builder)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (seed=10) was evicted; re-requesting it misses.
        cache.get_or_build(batches[0], builder)
        assert cache.stats.misses == 4

    def test_cached_arrays_are_read_only(self):
        cache = FeatureCache()
        features, labels = cache.get_or_build(make_samples(4, seed=4), FeatureMapBuilder())
        with pytest.raises(ValueError):
            features[0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            labels[0, 0] = 1.0

    def test_random_selection_bypasses_cache(self):
        cache = FeatureCache()
        samples = make_samples(4, seed=5)
        builder = FeatureMapBuilder(layout="sorted", selection="random")
        rng = np.random.default_rng(0)
        cache.get_or_build(samples, builder, rng=rng)
        cache.get_or_build(samples, builder, rng=rng)
        assert len(cache) == 0
        assert cache.stats.misses == 2

    def test_clear(self):
        cache = FeatureCache()
        cache.get_or_build(make_samples(4, seed=6), FeatureMapBuilder())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.requests == 0


class TestDiskSpill:
    """The satellite requirement: optional persistence for cross-process reuse."""

    def test_fresh_instance_recovers_entries_from_disk(self, tmp_path):
        samples = make_samples(8, seed=20)
        builder = FeatureMapBuilder()
        writer = FeatureCache(cache_dir=tmp_path)
        features, labels = writer.get_or_build(samples, builder)
        assert writer.stats.misses == 1
        assert len(list(tmp_path.glob("*.npz"))) == 1

        # A second instance (simulating another process) hits disk, not a
        # rebuild, and returns bitwise-identical arrays.
        reader = FeatureCache(cache_dir=tmp_path)
        recovered_features, recovered_labels = reader.get_or_build(samples, builder)
        assert reader.stats.disk_hits == 1 and reader.stats.misses == 0
        np.testing.assert_array_equal(recovered_features, features)
        np.testing.assert_array_equal(recovered_labels, labels)
        # Once recovered, the entry lives in memory.
        reader.get_or_build(samples, builder)
        assert reader.stats.hits == 1

    def test_disk_entries_are_read_only(self, tmp_path):
        samples = make_samples(4, seed=21)
        FeatureCache(cache_dir=tmp_path).get_or_build(samples, FeatureMapBuilder())
        reader = FeatureCache(cache_dir=tmp_path)
        features, _ = reader.get_or_build(samples, FeatureMapBuilder())
        with pytest.raises(ValueError):
            features[0, 0, 0, 0] = 1.0

    def test_disk_eviction_bounds_the_directory(self, tmp_path):
        cache = FeatureCache(cache_dir=tmp_path, disk_capacity=2)
        for index in range(4):
            cache.get_or_build(make_samples(4, seed=30 + index), FeatureMapBuilder())
        assert len(list(tmp_path.glob("*.npz"))) == 2
        assert cache.stats.disk_evictions == 2

    def test_corrupt_disk_entry_is_rebuilt_and_replaced(self, tmp_path):
        samples = make_samples(4, seed=40)
        builder = FeatureMapBuilder()
        writer = FeatureCache(cache_dir=tmp_path)
        expected, _ = writer.get_or_build(samples, builder)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(b"not an npz archive")

        reader = FeatureCache(cache_dir=tmp_path)
        rebuilt, _ = reader.get_or_build(samples, builder)
        assert reader.stats.misses == 1 and reader.stats.disk_hits == 0
        np.testing.assert_array_equal(rebuilt, expected)

    def test_torn_entry_is_counted_logged_and_removed(self, tmp_path, caplog, monkeypatch):
        samples = make_samples(4, seed=41)
        builder = FeatureMapBuilder()
        FeatureCache(cache_dir=tmp_path).get_or_build(samples, builder)
        (entry,) = tmp_path.glob("*.npz")
        entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])

        reader = FeatureCache(cache_dir=tmp_path)
        # Keep the rebuild off disk, so the torn entry's removal shows.
        monkeypatch.setattr(reader, "_spill_to_disk", lambda *args: None)
        with caplog.at_level(logging.WARNING, logger="repro.dataset.cache"):
            features, labels = reader.get_or_build(samples, builder)
        lines = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.dataset.cache"
        ]
        assert len(lines) == 1
        assert lines[0]["event"] == "feature_cache_corrupt"
        assert lines[0]["path"] == str(entry)
        assert lines[0]["reason"].startswith("BadZipFile: ")
        assert reader.stats.disk_corrupt == 1
        assert reader.stats.as_dict()["disk_corrupt"] == 1
        assert reader.stats.misses == 1 and reader.stats.disk_hits == 0
        assert not entry.exists()
        fresh_features, fresh_labels = FeatureCache().get_or_build(samples, builder)
        np.testing.assert_array_equal(features, fresh_features)
        np.testing.assert_array_equal(labels, fresh_labels)

    def test_failed_disk_write_is_counted_logged_and_served(self, tmp_path, caplog):
        samples = make_samples(4, seed=42)
        builder = FeatureMapBuilder()
        cache_dir = tmp_path / "cache"
        cache = FeatureCache(cache_dir=cache_dir)
        cache_dir.rmdir()  # the disk tier vanishes under the cache
        with caplog.at_level(logging.WARNING, logger="repro.dataset.cache"):
            features, labels = cache.get_or_build(samples, builder)
        lines = [
            json.loads(record.getMessage())
            for record in caplog.records
            if record.name == "repro.dataset.cache"
        ]
        assert len(lines) == 1
        assert lines[0]["event"] == "feature_cache_write_failed"
        assert lines[0]["path"] == str(cache_dir / f"{cache.key_for(samples, builder)}.npz")
        assert lines[0]["reason"].startswith("FileNotFoundError: ")
        assert cache.stats.disk_write_failed == 1
        assert cache.stats.as_dict()["disk_write_failed"] == 1
        assert cache.stats.misses == 1
        fresh_features, fresh_labels = FeatureCache().get_or_build(samples, builder)
        np.testing.assert_array_equal(features, fresh_features)
        np.testing.assert_array_equal(labels, fresh_labels)
        cache.get_or_build(samples, builder)  # the build is still memoized
        assert cache.stats.hits == 1

    def test_hit_rate_counts_disk_hits(self, tmp_path):
        samples = make_samples(4, seed=50)
        builder = FeatureMapBuilder()
        FeatureCache(cache_dir=tmp_path).get_or_build(samples, builder)
        reader = FeatureCache(cache_dir=tmp_path)
        reader.get_or_build(samples, builder)
        assert reader.stats.hit_rate == 1.0
        assert reader.stats.as_dict()["disk_hits"] == 1
