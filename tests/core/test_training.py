"""Tests for supervised training."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import nn
from repro.core import FuseConfig, FusePoseEstimator
from repro.core.evaluation import evaluate_model
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.core.training import SupervisedTrainer, TrainingConfig
from repro.dataset.loader import ArrayDataset, BatchLoader

from ..nn.conftest import ReferenceAdam, bits, composed_linear


def small_model():
    return PoseCNN(PoseCNNConfig(conv_channels=(8, 8), hidden_units=64), seed=0)


def toy_data(n=64, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 5, 8, 8))
    labels = rng.normal(scale=0.2, size=(n, 57)) + 1.0
    return ArrayDataset(features, labels)


class TestTrainingConfig:
    def test_defaults_follow_paper(self):
        config = TrainingConfig()
        assert config.batch_size == 128
        assert config.loss == "l1"

    def test_loss_function_selection(self):
        assert TrainingConfig(loss="l1").loss_function().__name__ == "l1_loss"
        assert TrainingConfig(loss="l2").loss_function().__name__ == "mse_loss"
        assert TrainingConfig(loss="huber").loss_function().__name__ == "huber_loss"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainingConfig(loss="hinge")


class TestSupervisedTrainer:
    def test_loss_decreases(self):
        data = toy_data()
        trainer = SupervisedTrainer(small_model(), TrainingConfig(epochs=15, batch_size=32, seed=0))
        history = trainer.fit(data)
        assert history.train_loss[-1] < history.train_loss[0] * 0.7

    def test_validation_curve_recorded(self):
        data = toy_data()
        val = toy_data(n=32, seed=1)
        trainer = SupervisedTrainer(small_model(), TrainingConfig(epochs=4, batch_size=32))
        history = trainer.fit(data, validation_data=val)
        assert len(history.validation_mae_cm) == 4
        assert history.best_validation_epoch() is not None

    def test_no_validation_curve_when_not_provided(self):
        trainer = SupervisedTrainer(small_model(), TrainingConfig(epochs=2, batch_size=32))
        history = trainer.fit(toy_data())
        assert history.validation_mae_cm == []
        assert history.best_validation_epoch() is None

    def test_fit_leaves_no_gradients(self):
        """A trained model ships without its last step's gradients: pickled
        (as it is to every serving process) it is about its parameters."""
        model = small_model()
        SupervisedTrainer(model, TrainingConfig(epochs=2, batch_size=32)).fit(toy_data())
        assert all(p.grad is None for p in model.parameters())
        parameter_bytes = sum(p.data.nbytes for p in model.parameters())
        assert len(pickle.dumps(model)) <= 1.05 * parameter_bytes

    def test_epoch_override(self):
        trainer = SupervisedTrainer(small_model(), TrainingConfig(epochs=10, batch_size=32))
        history = trainer.fit(toy_data(), epochs=3)
        assert len(history.train_loss) == 3

    def test_training_improves_mae_on_training_distribution(self):
        data = toy_data(n=96)
        model = small_model()
        before = evaluate_model(model, data).mae_average
        SupervisedTrainer(model, TrainingConfig(epochs=20, batch_size=32)).fit(data)
        after = evaluate_model(model, data).mae_average
        assert after < 0.6 * before

    def test_history_as_dict(self):
        trainer = SupervisedTrainer(small_model(), TrainingConfig(epochs=2, batch_size=32))
        history = trainer.fit(toy_data(), validation_data=toy_data(n=16, seed=2))
        payload = history.as_dict()
        assert set(payload) == {"train_loss", "validation_mae_cm"}

    def test_train_epoch_returns_mean_loss(self):
        data = toy_data()
        trainer = SupervisedTrainer(small_model(), TrainingConfig(epochs=1, batch_size=32))
        loader = BatchLoader(data, batch_size=32, shuffle=False)
        loss = trainer.train_epoch(loader)
        assert loss > 0


class TestTrainingArithmetic:
    """Supervised training runs the fused linear op and the scratch-buffer
    Adam step; its weights are bitwise those of the composed reference."""

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    def test_fit_equals_composed_reference_bitwise(self, weight_decay, monkeypatch):
        data = toy_data(n=80, seed=3)
        config = TrainingConfig(epochs=3, batch_size=32, weight_decay=weight_decay, seed=2)
        model = PoseCNN(PoseCNNConfig(), seed=4)
        SupervisedTrainer(model, config).fit(data)

        reference = PoseCNN(PoseCNNConfig(), seed=4)
        monkeypatch.setattr(
            nn.Linear, "forward", lambda self, x: composed_linear(x, self.weight, self.bias)
        )
        trainer = SupervisedTrainer(reference, config)
        trainer.optimizer = ReferenceAdam(
            reference.parameters(), lr=config.learning_rate, weight_decay=weight_decay
        )
        trainer.fit(data)

        initial = PoseCNN(PoseCNNConfig(), seed=4).parameters()
        for (name, param), (_, expected), start in zip(
            model.named_parameters(), reference.named_parameters(), initial
        ):
            assert bits(param.data) == bits(expected.data), name
            assert bits(param.data) != bits(start.data), name

    def test_trained_estimator_pickles_to_its_parameters(self, tiny_dataset):
        """Optimizer temporaries live on the optimizer, which training drops,
        and prepared features are not kept: a trained estimator pickles to
        its parameters and small metadata."""
        estimator = FusePoseEstimator(
            FuseConfig(num_context_frames=1, training=TrainingConfig(epochs=1, batch_size=64))
        )
        estimator.fit_supervised(estimator.prepare(tiny_dataset))
        parameter_bytes = sum(p.data.nbytes for p in estimator.model.parameters())
        assert len(pickle.dumps(estimator)) <= parameter_bytes + 64 * 1024
