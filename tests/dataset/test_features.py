"""Tests for point-cloud feature-map construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset.features import FeatureMapBuilder, FeatureNormalization
from repro.radar.pointcloud import PointCloudFrame


def frame_from(points):
    return PointCloudFrame(np.asarray(points, dtype=float))


def random_frame(n=30, seed=0):
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [
            rng.uniform(-0.8, 0.8, n),
            rng.uniform(1.5, 3.5, n),
            rng.uniform(0.0, 1.9, n),
            rng.normal(0, 0.5, n),
            rng.uniform(0, 30, n),
        ]
    )
    return frame_from(points)


class TestNormalization:
    def test_maps_midpoints_to_zero(self):
        norm = FeatureNormalization(x_range=(-1.0, 1.0), y_range=(0.0, 4.0))
        points = np.array([[0.0, 2.0, 1.25, 0.0, 15.0]])
        out = norm.apply(points)
        assert out[0, 0] == pytest.approx(0.0)
        assert out[0, 1] == pytest.approx(0.0)

    def test_output_clipped(self):
        norm = FeatureNormalization()
        points = np.array([[100.0, -50.0, 100.0, 100.0, 1000.0]])
        out = norm.apply(points)
        assert np.all(np.abs(out) <= 1.5)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            FeatureNormalization().apply(np.zeros((3, 4)))


class TestBuilderConfiguration:
    def test_default_shape_is_mars_8x8x5(self):
        builder = FeatureMapBuilder()
        assert builder.feature_shape == (5, 8, 8)
        assert builder.num_channels == 5

    def test_rejects_inconsistent_point_budget(self):
        with pytest.raises(ValueError):
            FeatureMapBuilder(num_points=60, grid_height=8, grid_width=8)

    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError):
            FeatureMapBuilder(layout="voxel")

    def test_rejects_unknown_sort(self):
        with pytest.raises(ValueError):
            FeatureMapBuilder(sort_axis="random")

    def test_rejects_bad_grid_range(self):
        with pytest.raises(ValueError):
            FeatureMapBuilder(x_grid_range=(1.0, -1.0))


class TestProjectionLayout:
    def test_output_shape(self):
        builder = FeatureMapBuilder(layout="projection")
        assert builder.build(random_frame()).shape == (5, 8, 8)

    def test_empty_frame_gives_zero_map(self):
        builder = FeatureMapBuilder(layout="projection")
        np.testing.assert_allclose(builder.build(PointCloudFrame.empty()), 0.0)

    def test_single_point_occupies_single_cell(self):
        builder = FeatureMapBuilder(layout="projection")
        frame = frame_from([[0.0, 2.5, 1.0, 0.1, 20.0]])
        feature_map = builder.build(frame)
        occupied = np.abs(feature_map).sum(axis=0) > 0
        assert occupied.sum() == 1

    def test_point_lands_in_expected_cell(self):
        builder = FeatureMapBuilder(layout="projection", x_grid_range=(-1.0, 1.0), z_grid_range=(0.0, 2.0))
        # x = -0.99 -> column 0; z = 1.99 -> row 0 (top of the image).
        frame = frame_from([[-0.99, 2.0, 1.99, 0.0, 10.0]])
        feature_map = builder.build(frame)
        occupied = np.argwhere(np.abs(feature_map).sum(axis=0) > 0)
        np.testing.assert_array_equal(occupied, [[0, 0]])

    def test_out_of_range_points_ignored(self):
        builder = FeatureMapBuilder(layout="projection")
        frame = frame_from([[5.0, 2.0, 1.0, 0.0, 10.0], [0.0, 2.0, 5.0, 0.0, 10.0]])
        np.testing.assert_allclose(builder.build(frame), 0.0)

    def test_more_points_occupy_more_cells(self):
        builder = FeatureMapBuilder(layout="projection")
        sparse = builder.build(random_frame(n=8, seed=1))
        dense = builder.build(random_frame(n=60, seed=1))
        occupied_sparse = (np.abs(sparse).sum(axis=0) > 0).sum()
        occupied_dense = (np.abs(dense).sum(axis=0) > 0).sum()
        assert occupied_dense > occupied_sparse

    def test_cell_values_are_weighted_averages_in_normalized_range(self):
        builder = FeatureMapBuilder(layout="projection")
        feature_map = builder.build(random_frame(n=50, seed=2))
        assert np.all(np.abs(feature_map) <= 1.5)

    def test_intensity_weighting_prefers_strong_points(self):
        builder = FeatureMapBuilder(layout="projection", x_grid_range=(-1.0, 1.0), z_grid_range=(0.0, 2.0))
        # Two points in the same cell with very different doppler and intensity.
        frame = frame_from(
            [
                [0.01, 2.0, 1.01, -2.0, 0.0],   # weak return
                [0.02, 2.0, 1.02, 2.0, 40.0],   # strong return
            ]
        )
        feature_map = builder.build(frame)
        row, col = np.argwhere(np.abs(feature_map).sum(axis=0) > 0)[0]
        doppler_channel = feature_map[3, row, col]
        assert doppler_channel > 0.5  # dominated by the strong +2 m/s return


class TestSortedLayout:
    def test_output_shape(self):
        builder = FeatureMapBuilder(layout="sorted")
        assert builder.build(random_frame()).shape == (5, 8, 8)

    def test_zero_padding_for_sparse_frames(self):
        builder = FeatureMapBuilder(layout="sorted")
        feature_map = builder.build(random_frame(n=5))
        flattened = feature_map.transpose(1, 2, 0).reshape(64, 5)
        # Exactly 5 non-zero rows (barring pathological zero points).
        non_zero_rows = np.sum(np.abs(flattened).sum(axis=1) > 0)
        assert non_zero_rows == 5

    def test_truncates_to_point_budget(self):
        builder = FeatureMapBuilder(layout="sorted", selection="intensity")
        feature_map = builder.build(random_frame(n=200))
        flattened = feature_map.transpose(1, 2, 0).reshape(64, 5)
        assert np.sum(np.abs(flattened).sum(axis=1) > 0) == 64

    def test_intensity_selection_keeps_strongest(self):
        builder = FeatureMapBuilder(layout="sorted", selection="intensity", sort_axis="none")
        points = np.zeros((100, 5))
        points[:, 0] = 0.5
        points[:, 4] = np.arange(100)  # increasing intensity
        frame = frame_from(points)
        feature_map = builder.build(frame)
        intensities = feature_map[4].reshape(-1)
        # The weakest kept point must be at least as strong as every dropped one.
        norm = FeatureNormalization()
        kept_raw_min = 36  # points 36..99 are the strongest 64
        expected_min = norm.apply(points[kept_raw_min : kept_raw_min + 1])[0, 4]
        assert intensities.min() >= expected_min - 1e-9

    def test_random_selection_uses_rng(self, rng):
        builder = FeatureMapBuilder(layout="sorted", selection="random")
        a = builder.build(random_frame(n=200), rng=np.random.default_rng(0))
        b = builder.build(random_frame(n=200), rng=np.random.default_rng(0))
        np.testing.assert_allclose(a, b)

    def test_random_selection_without_rng_is_deterministic(self):
        builder = FeatureMapBuilder(layout="sorted", selection="random")
        frame = random_frame(n=200)
        np.testing.assert_array_equal(builder.build(frame), builder.build(frame))

    def test_random_selection_draws_anew_from_a_shared_rng(self):
        builder = FeatureMapBuilder(layout="sorted", selection="random")
        frame = random_frame(n=200)
        rng = np.random.default_rng(0)
        first = builder.build(frame, rng=rng)
        assert not np.array_equal(builder.build(frame, rng=rng), first)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_random_selection_draws_anew_for_each_frame_of_a_batch(self, vectorized):
        """Without an rng, one call's frames share one generator: two frames
        with equal point counts draw different rows, and the call as a whole
        is deterministic."""
        builder = FeatureMapBuilder(layout="sorted", selection="random")
        frame = random_frame(n=200)
        batch = builder.build_batch([frame, frame], vectorized=vectorized)
        assert not np.array_equal(batch[0], batch[1])
        again = builder.build_batch([frame, frame], vectorized=vectorized)
        np.testing.assert_array_equal(again, batch)

    def test_spatial_sort_orders_by_height(self):
        builder = FeatureMapBuilder(layout="sorted", sort_axis="spatial")
        points = np.zeros((10, 5))
        points[:, 2] = np.linspace(0.0, 1.8, 10)
        points[:, 1] = 2.0
        feature_map = builder.build(frame_from(points))
        z_channel = feature_map[2].reshape(-1)[:10]
        assert np.all(np.diff(z_channel) <= 1e-9)  # descending height


class TestBatchConstruction:
    def test_build_batch_shape(self):
        builder = FeatureMapBuilder()
        batch = builder.build_batch([random_frame(seed=i) for i in range(4)])
        assert batch.shape == (4, 5, 8, 8)

    def test_build_batch_empty(self):
        builder = FeatureMapBuilder()
        assert builder.build_batch([]).shape == (0, 5, 8, 8)

    def test_build_dataset(self, tiny_dataset):
        builder = FeatureMapBuilder()
        samples = list(tiny_dataset)[:10]
        features, labels = builder.build_dataset(samples)
        assert features.shape == (10, 5, 8, 8)
        assert labels.shape == (10, 57)
        np.testing.assert_allclose(labels[0], samples[0].label_vector)

    def test_build_dataset_empty(self):
        features, labels = FeatureMapBuilder().build_dataset([])
        assert features.shape[0] == 0 and labels.shape[0] == 0

    def test_custom_grid_size(self):
        builder = FeatureMapBuilder(num_points=36, grid_height=6, grid_width=6)
        assert builder.build(random_frame()).shape == (5, 6, 6)
