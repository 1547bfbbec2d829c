"""Numerical equivalence of the batched engine and the per-frame/per-task paths.

The batched execution engine reorganizes the computation — it must not
change the answers.  These tests pin every vectorized stage to its reference
twin: the deterministic stages (signal chain, feature maps, grouped
adaptation) must agree within floating-point reduction tolerance, and the
stochastic geometric backend must agree in distribution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.body.motion import MotionSynthesizer
from repro.body.subjects import default_subjects
from repro.body.surface import BodyScatteringModel
from repro.core.finetune import FineTuneConfig, FineTuner
from repro.core.models import PoseCNN
from repro.dataset.features import FeatureMapBuilder
from repro.dataset.loader import ArrayDataset
from repro.dataset.synthetic import SyntheticDatasetConfig, SyntheticDatasetGenerator
from repro.engine import BatchedRadarEngine
from repro.radar import (
    GeometricPipeline,
    RadarConfig,
    SceneBatch,
    SignalChainPipeline,
    ca_cfar_2d,
    ca_cfar_2d_batch,
    range_doppler_processing,
    range_doppler_processing_batch,
    scene_batch_from_world,
)
from repro.radar.pointcloud import PointCloudFrame
from repro.radar.signal_chain import RadarDataCube
from repro.runtime import ExecutionPlan
from repro.serve import AdapterPolicy, AdapterRegistry


@pytest.fixture(scope="module")
def radar_config() -> RadarConfig:
    return RadarConfig.low_resolution()


@pytest.fixture(scope="module")
def world_batch(radar_config):
    """Random world-frame scatterer arrays for a small frame batch."""
    rng = np.random.default_rng(7)
    frames, slots = 5, 40
    positions = rng.uniform([-1.0, 1.2, 0.0], [1.0, 3.8, 2.1], size=(frames, slots, 3))
    velocities = rng.normal(0.0, 0.6, size=(frames, slots, 3))
    rcs = rng.uniform(0.05, 3.0, size=(frames, slots))
    return scene_batch_from_world(positions, velocities, rcs, radar_config)


class TestSignalChainEquivalence:
    def test_batched_pipeline_matches_per_frame(self, radar_config, world_batch):
        """Noise-free batched signal chain == per-frame, point for point."""
        rng = np.random.default_rng(0)
        pipeline = SignalChainPipeline(config=radar_config, add_noise=False)
        sequential = [
            pipeline.process_scene(world_batch.scene(i), rng)
            for i in range(len(world_batch))
        ]
        batched = pipeline.process_batch(world_batch, rng).to_frames()
        assert len(sequential) == len(batched)
        for frame_seq, frame_bat in zip(sequential, batched):
            assert frame_seq.points.shape == frame_bat.points.shape
            np.testing.assert_allclose(frame_seq.points, frame_bat.points, atol=1e-8)

    def test_range_doppler_batch_matches_per_frame(self, radar_config, world_batch):
        rng = np.random.default_rng(1)
        from repro.radar import synthesize_data_cube_batch

        cubes = synthesize_data_cube_batch(
            world_batch, radar_config, rng=rng, add_noise=True
        )
        spectra, power = range_doppler_processing_batch(cubes, radar_config)
        for index in range(len(world_batch)):
            reference = range_doppler_processing(
                RadarDataCube(samples=cubes[index], config=radar_config)
            )
            np.testing.assert_allclose(spectra[index], reference.spectrum, atol=1e-9)
            np.testing.assert_allclose(power[index], reference.power, atol=1e-9)

    def test_cfar_batch_matches_per_frame(self, rng):
        power = rng.gamma(1.0, 1.0, size=(4, 32, 24))
        power[1, 10, 12] = 400.0
        power[3, 5, 3] = 250.0
        batched = ca_cfar_2d_batch(power)
        for index in range(power.shape[0]):
            np.testing.assert_array_equal(batched[index], ca_cfar_2d(power[index]))


class TestGeometricBatch:
    def test_batch_statistics_match_sequential(self, radar_config):
        """Batched geometric generation matches the per-frame path in distribution."""
        subject = default_subjects()[0]
        scattering = BodyScatteringModel(points_per_segment=5)
        synthesizer = MotionSynthesizer(frame_rate=10.0)
        trajectory = synthesizer.synthesize(
            subject, "squat", duration=12.0, rng=np.random.default_rng(3)
        )
        pipeline = GeometricPipeline(config=radar_config)
        engine_vec = BatchedRadarEngine(plan=ExecutionPlan())
        engine_ref = BatchedRadarEngine(plan=ExecutionPlan.reference())

        vec = engine_vec.point_cloud_sequence(
            scattering, trajectory, pipeline, np.random.default_rng(5)
        )
        ref = engine_ref.point_cloud_sequence(
            scattering, trajectory, pipeline, np.random.default_rng(5)
        )
        assert len(vec) == len(ref) == trajectory.num_frames
        mean_vec = vec.mean_points_per_frame()
        mean_ref = ref.mean_points_per_frame()
        assert mean_vec > 0 and mean_ref > 0
        # Same detection model, different draw order: sparsity within 25%.
        assert abs(mean_vec - mean_ref) / mean_ref < 0.25

    def test_batch_deterministic_given_seed(self, radar_config, world_batch):
        pipeline = GeometricPipeline(config=radar_config)
        first = pipeline.process_batch(world_batch, np.random.default_rng(11))
        second = pipeline.process_batch(world_batch, np.random.default_rng(11))
        np.testing.assert_array_equal(first.points, second.points)
        np.testing.assert_array_equal(first.offsets, second.offsets)


class TestFeatureBatchEquivalence:
    @pytest.fixture(scope="class")
    def ragged_frames(self):
        rng = np.random.default_rng(13)
        frames = []
        for _ in range(23):
            count = int(rng.integers(0, 110))
            points = np.column_stack(
                [
                    rng.uniform(-1.3, 1.3, count),
                    rng.uniform(0.4, 4.6, count),
                    rng.uniform(-0.1, 2.3, count),
                    rng.normal(0.0, 1.0, count),
                    rng.uniform(-8.0, 38.0, count),
                ]
            ) if count else np.zeros((0, 5))
            frames.append(PointCloudFrame(points))
        return frames

    @pytest.mark.parametrize(
        "layout,sort_axis",
        [
            ("projection", "spatial"),
            ("sorted", "spatial"),
            ("sorted", "intensity"),
            ("sorted", "none"),
        ],
    )
    def test_vectorized_matches_reference(self, ragged_frames, layout, sort_axis):
        builder = FeatureMapBuilder(layout=layout, sort_axis=sort_axis)
        vectorized = builder.build_batch(ragged_frames)
        reference = builder.build_batch(ragged_frames, vectorized=False)
        np.testing.assert_allclose(vectorized, reference, atol=1e-10)

    def test_vectorized_matches_per_frame_build(self, ragged_frames):
        builder = FeatureMapBuilder()
        vectorized = builder.build_batch(ragged_frames)
        for index, frame in enumerate(ragged_frames):
            np.testing.assert_allclose(vectorized[index], builder.build(frame), atol=1e-10)

    def test_empty_batch(self):
        builder = FeatureMapBuilder()
        assert builder.build_batch([]).shape == (0, 5, 8, 8)


class TestDatasetGenerationPaths:
    def test_vectorized_dataset_same_shape_and_sparsity(self):
        config = SyntheticDatasetConfig(
            subject_ids=(1,),
            movement_names=("squat",),
            seconds_per_pair=6.0,
            seed=123,
        )
        generator = SyntheticDatasetGenerator(config)
        sequential = generator.generate(plan=ExecutionPlan.reference())
        vectorized = generator.generate(plan=ExecutionPlan())
        assert len(sequential) == len(vectorized) == config.expected_frames
        mean_seq = np.mean([s.cloud.num_points for s in sequential])
        mean_vec = np.mean([s.cloud.num_points for s in vectorized])
        assert mean_seq > 0 and mean_vec > 0
        assert abs(mean_vec - mean_seq) / mean_seq < 0.25
        # Labels are RNG-order independent up to the motion synthesis, which
        # both paths share draw-for-draw.
        np.testing.assert_allclose(sequential[0].joints, vectorized[0].joints)


class TestFineTunePopulation:
    def test_population_matches_sequential_finetuner(self):
        """All-layer adaptation of a user population (the serving tier's
        ``AdapterRegistry``) equals, bit for bit, the core ``FineTuner`` run
        per user from the same base model."""

        def make_dataset(count, seed):
            rng = np.random.default_rng(seed)
            return ArrayDataset(rng.normal(size=(count, 5, 8, 8)), rng.normal(size=(count, 57)))

        base = PoseCNN(seed=0)
        adaptation = {user: make_dataset(48, 100 + user) for user in range(2)}
        config = FineTuneConfig(epochs=4, scope="all", optimizer="sgd", batch_size=16)

        registry = AdapterRegistry(
            base, policy=AdapterPolicy(scope="all", epochs=4, batch_size=16)
        )
        population = registry.adapt_many(adaptation)
        for user, data in adaptation.items():
            reference = base.clone()
            FineTuner(reference, config).finetune(data)
            for p_ref, p_pop in zip(reference.parameters(), population[user]):
                np.testing.assert_array_equal(p_ref.data, p_pop)


class TestSceneBatchInterop:
    def test_round_trip_through_scenes(self, world_batch):
        scenes = world_batch.scenes()
        packed = SceneBatch.from_scenes(scenes)
        for index, scene in enumerate(scenes):
            count = len(scene)
            np.testing.assert_allclose(
                packed.positions[index, :count], scene.positions()
            )
            assert packed.valid[index, :count].all()
            assert not packed.valid[index, count:].any()

    def test_fov_mask_matches_scene_filter(self, radar_config, world_batch):
        mask = world_batch.fov_mask(radar_config)
        for index in range(len(world_batch)):
            filtered = world_batch.scene(index).within_field_of_view(radar_config)
            assert mask[index].sum() == len(filtered)
