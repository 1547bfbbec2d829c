"""Tests for the high-level FusePoseEstimator API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.finetune import FineTuneConfig
from repro.core.maml import MetaLearningConfig
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.core.pipeline import FuseConfig, FusePoseEstimator
from repro.core.training import TrainingConfig
from repro.dataset.loader import ArrayDataset
from repro.dataset.splits import per_movement_split


def small_estimator(num_context_frames=1):
    """An estimator with a reduced model so the tests stay fast."""
    config = FuseConfig(
        num_context_frames=num_context_frames,
        training=TrainingConfig(epochs=3, batch_size=32),
        meta=MetaLearningConfig(
            meta_iterations=3, tasks_per_batch=2, support_size=16, query_size=16
        ),
        finetune=FineTuneConfig(epochs=2),
    )
    model = PoseCNN(
        PoseCNNConfig(conv_channels=(8, 8), hidden_units=32), seed=config.model_seed
    )
    return FusePoseEstimator(config, model=model)


class TestPreparation:
    def test_prepare_shapes(self, tiny_dataset):
        estimator = small_estimator()
        arrays = estimator.prepare(tiny_dataset[:20])
        assert arrays.features.shape == (20, 5, 8, 8)
        assert arrays.labels.shape == (20, 57)

    def test_prepare_applies_fusion(self, tiny_dataset):
        fused = small_estimator(num_context_frames=1).prepare(tiny_dataset[:30])
        single = small_estimator(num_context_frames=0).prepare(tiny_dataset[:30])
        # Fused feature maps should have more occupied cells on average.
        occupied_fused = (np.abs(fused.features).sum(axis=1) > 0).mean()
        occupied_single = (np.abs(single.features).sum(axis=1) > 0).mean()
        assert occupied_fused > occupied_single

    def test_to_arrays_passthrough(self, tiny_arrays):
        estimator = small_estimator()
        assert estimator.to_arrays(tiny_arrays) is tiny_arrays

    def test_second_prepare_hits_the_feature_cache(self, tiny_dataset):
        estimator = FusePoseEstimator(FuseConfig(num_context_frames=1))
        first = estimator.prepare(tiny_dataset[:10])
        second = estimator.prepare(tiny_dataset[:10])
        assert estimator.feature_cache.stats.misses == 1
        assert estimator.feature_cache.stats.hits == 1
        np.testing.assert_array_equal(second.features, first.features)
        np.testing.assert_array_equal(second.labels, first.labels)

    def test_to_arrays_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            small_estimator().to_arrays([1, 2, 3])


class TestTraining:
    def test_supervised_training_reduces_error(self, tiny_dataset):
        estimator = small_estimator()
        split = per_movement_split(tiny_dataset)
        train = estimator.prepare(split.train)
        test = estimator.prepare(split.test)
        before = estimator.evaluate(test).mae_average
        estimator.fit_supervised(train, epochs=8)
        after = estimator.evaluate(test).mae_average
        assert after < before
        assert estimator.training_history is not None

    def test_meta_training_runs(self, tiny_dataset):
        estimator = small_estimator()
        history = estimator.fit_meta(tiny_dataset[:60], meta_iterations=2)
        assert len(history.query_loss) == 2
        assert estimator.meta_history is history

    def test_adapt_records_result(self, tiny_dataset):
        estimator = small_estimator()
        adaptation = tiny_dataset[:20]
        evaluation = tiny_dataset[20:40]
        result = estimator.adapt(adaptation, evaluation_sets={"new": evaluation}, epochs=2)
        assert len(result.curves["new"]) == 2
        assert estimator.finetune_result is result


class TestPrediction:
    def test_predict_from_feature_array(self):
        estimator = small_estimator()
        joints = estimator.predict(np.zeros((3, 5, 8, 8)))
        assert joints.shape == (3, 19, 3)

    def test_predict_from_pose_dataset(self, tiny_dataset):
        estimator = small_estimator()
        joints = estimator.predict(tiny_dataset[:5])
        assert joints.shape == (5, 19, 3)

    def test_predict_from_raw_frames(self, tiny_dataset):
        estimator = small_estimator()
        frames = [sample.cloud for sample in list(tiny_dataset)[:6]]
        joints = estimator.predict(frames)
        assert joints.shape == (6, 19, 3)

    def test_predictions_in_scene_ballpark_after_training(self, tiny_dataset):
        estimator = small_estimator()
        split = per_movement_split(tiny_dataset)
        estimator.fit_supervised(estimator.prepare(split.train), epochs=10)
        joints = estimator.predict(split.test[:10])
        # Depth (y) predictions should be in front of the radar, heights plausible.
        assert 0.5 < joints[..., 1].mean() < 4.0
        assert -0.5 < joints[..., 2].mean() < 2.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, tiny_dataset):
        estimator = small_estimator()
        estimator.fit_supervised(estimator.prepare(tiny_dataset[:40]), epochs=2)
        features = np.random.default_rng(0).normal(size=(4, 5, 8, 8))
        expected = estimator.predict(features)

        path = estimator.save(tmp_path / "fuse_model.npz")
        fresh = small_estimator()
        fresh.load(path)
        np.testing.assert_allclose(fresh.predict(features), expected)

    def test_evaluate_accepts_arrays_and_datasets(self, tiny_dataset, tiny_arrays):
        estimator = small_estimator()
        report_a = estimator.evaluate(tiny_dataset[:10])
        report_b = estimator.evaluate(ArrayDataset(tiny_arrays.features[:10], tiny_arrays.labels[:10]))
        assert report_a.num_samples == report_b.num_samples == 10
