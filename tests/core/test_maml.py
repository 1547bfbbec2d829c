"""Tests for the meta-learning trainer (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.evaluation import evaluate_model
from repro.core.maml import MetaLearningConfig, MetaTrainer
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.dataset.loader import ArrayDataset


def small_model(seed=0):
    return PoseCNN(PoseCNNConfig(conv_channels=(8, 8), hidden_units=32), seed=seed)


def toy_data(n=160, seed=0):
    """A learnable toy regression: labels are linear images of pooled features."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 5, 8, 8))
    mixing = rng.normal(size=(5, 57)) * 0.1
    labels = features.mean(axis=(2, 3)) @ mixing + 1.0
    return ArrayDataset(features, labels)


class TestMetaLearningConfig:
    def test_defaults_valid(self):
        MetaLearningConfig()

    def test_paper_scale_matches_section_41(self):
        config = MetaLearningConfig.paper_scale()
        assert config.meta_iterations == 20_000
        assert config.tasks_per_batch == 32
        assert config.support_size == 1_000
        assert config.meta_lr == pytest.approx(0.001)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            MetaLearningConfig(meta_iterations=0)
        with pytest.raises(ValueError):
            MetaLearningConfig(inner_lr=0.0)
        with pytest.raises(ValueError):
            MetaLearningConfig(algorithm="second-order")
        with pytest.raises(ValueError):
            MetaLearningConfig(warmstart_epochs=-1)


class TestMetaTrainer:
    def test_history_lengths(self):
        config = MetaLearningConfig(
            meta_iterations=4, tasks_per_batch=2, support_size=16, query_size=16
        )
        trainer = MetaTrainer(small_model(), config)
        history = trainer.meta_train(toy_data())
        assert len(history.query_loss) == 4
        assert len(history.support_loss) == 4

    def test_parameters_change(self):
        config = MetaLearningConfig(
            meta_iterations=3, tasks_per_batch=2, support_size=16, query_size=16
        )
        model = small_model()
        before = [p.data.copy() for p in model.parameters()]
        MetaTrainer(model, config).meta_train(toy_data())
        changed = any(
            not np.allclose(prev, param.data) for prev, param in zip(before, model.parameters())
        )
        assert changed

    def test_no_leftover_gradients(self):
        config = MetaLearningConfig(
            meta_iterations=2, tasks_per_batch=2, support_size=8, query_size=8
        )
        model = small_model()
        MetaTrainer(model, config).meta_train(toy_data(64))
        assert all(p.grad is None for p in model.parameters())

    def test_query_loss_decreases_on_toy_problem(self):
        config = MetaLearningConfig(
            meta_iterations=40, tasks_per_batch=2, support_size=32, query_size=32, meta_lr=2e-3
        )
        trainer = MetaTrainer(small_model(), config)
        history = trainer.meta_train(toy_data())
        early = np.mean(history.query_loss[:5])
        late = np.mean(history.query_loss[-5:])
        assert late < early

    def test_validation_tracked_at_requested_interval(self):
        config = MetaLearningConfig(
            meta_iterations=6, tasks_per_batch=2, support_size=16, query_size=16
        )
        trainer = MetaTrainer(small_model(), config)
        history = trainer.meta_train(toy_data(), validation_data=toy_data(32, seed=1), validation_every=3)
        assert history.validation_iterations == [3, 6]
        assert len(history.validation_mae_cm) == 2

    def test_iteration_override(self):
        config = MetaLearningConfig(
            meta_iterations=50, tasks_per_batch=2, support_size=8, query_size=8
        )
        history = MetaTrainer(small_model(), config).meta_train(toy_data(64), meta_iterations=2)
        assert len(history.query_loss) == 2

    def test_warmstart_improves_initial_fit(self):
        data = toy_data()
        no_warm = small_model(seed=2)
        warm = small_model(seed=2)
        cfg_no_warm = MetaLearningConfig(
            meta_iterations=1, tasks_per_batch=1, support_size=16, query_size=16
        )
        cfg_warm = MetaLearningConfig(
            meta_iterations=1, tasks_per_batch=1, support_size=16, query_size=16,
            warmstart_epochs=10, warmstart_batch_size=32,
        )
        MetaTrainer(no_warm, cfg_no_warm).meta_train(data)
        MetaTrainer(warm, cfg_warm).meta_train(data)
        assert (
            evaluate_model(warm, data).mae_average < evaluate_model(no_warm, data).mae_average
        )

    def test_reptile_mode_runs_and_changes_parameters(self):
        config = MetaLearningConfig(
            meta_iterations=3, tasks_per_batch=2, support_size=16, query_size=16, algorithm="reptile"
        )
        model = small_model()
        before = [p.data.copy() for p in model.parameters()]
        history = MetaTrainer(model, config).meta_train(toy_data())
        assert len(history.query_loss) == 3
        assert any(
            not np.allclose(prev, p.data) for prev, p in zip(before, model.parameters())
        )

    def test_adapted_model_beats_initial_on_support_task(self):
        """After meta-training, one inner step on a task must reduce its loss."""
        data = toy_data()
        config = MetaLearningConfig(
            meta_iterations=25, tasks_per_batch=2, support_size=32, query_size=32, meta_lr=2e-3
        )
        trainer = MetaTrainer(small_model(), config)
        history = trainer.meta_train(data)
        # Support loss (pre-adaptation) should exceed query loss (post-adaptation)
        # on average in the later iterations: adaptation helps.
        later = slice(-10, None)
        assert np.mean(history.query_loss[later]) <= np.mean(history.support_loss[later]) * 1.05

    def test_history_as_dict(self):
        config = MetaLearningConfig(
            meta_iterations=2, tasks_per_batch=1, support_size=8, query_size=8
        )
        history = MetaTrainer(small_model(), config).meta_train(toy_data(32))
        payload = history.as_dict()
        assert set(payload) == {
            "query_loss",
            "support_loss",
            "validation_mae_cm",
            "validation_iterations",
        }


class TestShardedMetaTraining:
    """``plan.workers`` shards the task loop over processes without moving a bit."""

    @pytest.mark.parametrize("algorithm", ["fomaml", "reptile"])
    def test_sharded_training_is_bitwise_identical_to_serial(self, algorithm):
        from repro.runtime import ExecutionPlan

        config = MetaLearningConfig(
            meta_iterations=3,
            tasks_per_batch=4,
            support_size=16,
            query_size=16,
            algorithm=algorithm,
        )
        data = toy_data()
        results = {}
        for workers in (1, 2):
            model = small_model(seed=7)
            history = MetaTrainer(model, config, ExecutionPlan(workers=workers)).meta_train(
                data
            )
            results[workers] = (
                [p.data.copy() for p in model.parameters()],
                list(history.query_loss),
                list(history.support_loss),
            )
        serial_params, serial_query, serial_support = results[1]
        sharded_params, sharded_query, sharded_support = results[2]
        assert serial_query == sharded_query
        assert serial_support == sharded_support
        for serial, sharded in zip(serial_params, sharded_params):
            np.testing.assert_array_equal(serial, sharded)
