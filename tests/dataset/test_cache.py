"""Tests of the content-addressed feature cache (:mod:`repro.dataset.cache`)."""

from __future__ import annotations

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

