"""Tests for online fine-tuning."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.finetune import FineTuneConfig, FineTuner
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.core.training import SupervisedTrainer, TrainingConfig
from repro.dataset.loader import ArrayDataset


def small_model(seed=0):
    return PoseCNN(PoseCNNConfig(conv_channels=(8, 8), hidden_units=32), seed=seed)


def shifted_data(n=48, seed=0, offset=0.0):
    """Toy data whose labels depend on the features plus a distribution shift."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 5, 8, 8))
    mixing = np.random.default_rng(99).normal(size=(5, 57)) * 0.1
    labels = features.mean(axis=(2, 3)) @ mixing + offset
    return ArrayDataset(features, labels)


@pytest.fixture
def pretrained():
    """A model fit to the 'original' distribution."""
    model = small_model()
    SupervisedTrainer(model, TrainingConfig(epochs=15, batch_size=16)).fit(shifted_data(seed=1))
    return model


class TestFineTuneConfig:
    def test_defaults(self):
        config = FineTuneConfig()
        assert config.scope == "all"
        assert config.optimizer == "sgd"

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            FineTuneConfig(epochs=0)
        with pytest.raises(ValueError):
            FineTuneConfig(scope="first")
        with pytest.raises(ValueError):
            FineTuneConfig(optimizer="lbfgs")
        with pytest.raises(ValueError):
            FineTuneConfig(learning_rate=0.0)


class TestFineTuner:
    def test_curve_lengths(self, pretrained):
        new_data = shifted_data(seed=2, offset=0.3)
        result = FineTuner(pretrained, FineTuneConfig(epochs=4)).finetune(
            new_data, evaluation_sets={"new": new_data}
        )
        assert len(result.curves["new"]) == 4
        assert len(result.curve_with_initial("new")) == 5
        assert len(result.train_loss) == 4

    def test_adaptation_improves_new_data(self, pretrained):
        new_data = shifted_data(seed=3, offset=0.4)
        result = FineTuner(
            pretrained, FineTuneConfig(epochs=15, optimizer="adam", learning_rate=1e-2)
        ).finetune(new_data, evaluation_sets={"new": new_data})
        curve = result.curve_with_initial("new")
        assert curve[-1] < curve[0] * 0.7

    def test_forgetting_is_measurable(self, pretrained):
        original = shifted_data(seed=1)
        new_data = shifted_data(seed=4, offset=0.8)
        result = FineTuner(
            pretrained, FineTuneConfig(epochs=15, optimizer="adam", learning_rate=1e-2)
        ).finetune(new_data, evaluation_sets={"original": original, "new": new_data})
        original_curve = result.curve_with_initial("original")
        # Adapting to a shifted distribution must degrade the original fit.
        assert original_curve[-1] > original_curve[0]

    def test_last_layer_scope_freezes_backbone(self, pretrained):
        backbone_before = [p.data.copy() for p in pretrained.parameters()[:-2]]
        last_before = [p.data.copy() for p in pretrained.last_layer_parameters()]
        new_data = shifted_data(seed=5, offset=0.5)
        FineTuner(pretrained, FineTuneConfig(epochs=3, scope="last")).finetune(new_data)
        backbone_after = pretrained.parameters()[:-2]
        last_after = pretrained.last_layer_parameters()
        for before, after in zip(backbone_before, backbone_after):
            np.testing.assert_allclose(before, after.data)
        assert any(
            not np.allclose(before, after.data) for before, after in zip(last_before, last_after)
        )

    @pytest.mark.parametrize("scope", ["last", "all"])
    def test_finetune_leaves_no_gradients(self, pretrained, scope):
        FineTuner(pretrained, FineTuneConfig(epochs=2, scope=scope)).finetune(
            shifted_data(seed=7, offset=0.5)
        )
        assert all(p.grad is None for p in pretrained.parameters())
        parameter_bytes = sum(p.data.nbytes for p in pretrained.parameters())
        assert len(pickle.dumps(pretrained)) <= 1.05 * parameter_bytes

    def test_all_scope_changes_backbone(self, pretrained):
        backbone_before = [p.data.copy() for p in pretrained.parameters()[:-2]]
        new_data = shifted_data(seed=6, offset=0.5)
        FineTuner(pretrained, FineTuneConfig(epochs=3, scope="all")).finetune(new_data)
        assert any(
            not np.allclose(before, after.data)
            for before, after in zip(backbone_before, pretrained.parameters()[:-2])
        )

    def test_adam_optimizer_option(self, pretrained):
        new_data = shifted_data(seed=7, offset=0.3)
        result = FineTuner(
            pretrained, FineTuneConfig(epochs=3, optimizer="adam", learning_rate=1e-3)
        ).finetune(new_data, evaluation_sets={"new": new_data})
        assert len(result.curves["new"]) == 3

    def test_initial_mae_recorded_before_any_update(self, pretrained):
        new_data = shifted_data(seed=8, offset=0.3)
        from repro.core.evaluation import evaluate_model

        expected_initial = evaluate_model(pretrained, new_data).mae_average
        result = FineTuner(pretrained, FineTuneConfig(epochs=1)).finetune(
            new_data, evaluation_sets={"new": new_data}
        )
        assert result.initial_mae_cm["new"] == pytest.approx(expected_initial)

    def test_mae_at_epoch_clamps_to_curve_end(self, pretrained):
        new_data = shifted_data(seed=9)
        result = FineTuner(pretrained, FineTuneConfig(epochs=2)).finetune(
            new_data, evaluation_sets={"new": new_data}
        )
        assert result.mae_at_epoch("new", 100) == result.curve_with_initial("new")[-1]
        assert result.mae_at_epoch("new", 0) == result.initial_mae_cm["new"]

    def test_unknown_curve_raises(self, pretrained):
        new_data = shifted_data(seed=10)
        result = FineTuner(pretrained, FineTuneConfig(epochs=1)).finetune(new_data)
        with pytest.raises(KeyError):
            result.curve_with_initial("new")

    def test_empty_adaptation_set_raises(self, pretrained):
        with pytest.raises(ValueError):
            FineTuner(pretrained, FineTuneConfig()).finetune(
                ArrayDataset(np.zeros((0, 5, 8, 8)), np.zeros((0, 57)))
            )

    def test_epoch_override(self, pretrained):
        new_data = shifted_data(seed=11)
        result = FineTuner(pretrained, FineTuneConfig(epochs=20)).finetune(
            new_data, evaluation_sets={"new": new_data}, epochs=2
        )
        assert len(result.curves["new"]) == 2
