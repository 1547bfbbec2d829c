"""Tests for the meta-learning trainer (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core.evaluation import evaluate_model
from repro.core.maml import MetaLearningConfig, MetaTrainer
from repro.core.models import PoseCNN, PoseCNNConfig
from repro.core.tasks import TaskSampler
from repro.core.training import TrainingConfig
from repro.dataset.loader import ArrayDataset

from ..nn.conftest import bits


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


def composed_meta_train(model, config, data):
    """Algorithm 1 written out step by step, one task at a time.

    Per task: restore θ, take ``inner_steps`` SGD steps on the support set,
    then the query gradient (FOMAML) or one more adaptation on the query
    set and the displacement ``(θ - θ') / inner_lr`` (Reptile).  The task
    gradients are summed, scaled by ``1 / len(tasks)`` and applied with one
    Adam step.  Returns the per-iteration mean support and query losses.
    """
    loss_fn = TrainingConfig(loss=config.loss).loss_function()
    params = model.parameters()
    adam = nn.Adam(params, lr=config.meta_lr)
    sampler = TaskSampler(
        data,
        support_size=config.support_size,
        query_size=config.query_size,
        tasks_per_batch=config.tasks_per_batch,
    )
    rng = np.random.default_rng(config.seed)

    def loss_on(subset):
        return loss_fn(model.forward(nn.Tensor(subset.features)), nn.Tensor(subset.labels))

    def adapt(subset):
        for _ in range(config.inner_steps):
            model.zero_grad()
            loss = loss_on(subset)
            loss.backward()
            for param in params:
                param.data = param.data - config.inner_lr * param.grad
        return loss.item()

    support_means, query_means = [], []
    for _ in range(config.meta_iterations):
        tasks = sampler.sample_batch(rng)
        theta = [param.data.copy() for param in params]
        total = [np.zeros_like(initial) for initial in theta]
        support_losses, query_losses = [], []
        for task in tasks:
            for param, initial in zip(params, theta):
                param.data = initial.copy()
            support_losses.append(adapt(task.support))
            if config.algorithm == "fomaml":
                model.zero_grad()
                loss = loss_on(task.query)
                loss.backward()
                query_losses.append(loss.item())
                gradients = [param.grad for param in params]
            else:
                adapt(task.query)
                with nn.no_grad():
                    query_losses.append(loss_on(task.query).item())
                gradients = [
                    (initial - param.data) / config.inner_lr
                    for param, initial in zip(params, theta)
                ]
            for accumulator, gradient in zip(total, gradients):
                accumulator += gradient
        for param, initial, gradient in zip(params, theta, total):
            param.data = initial.copy()
            param.grad = gradient * (1.0 / len(tasks))
        adam.step()
        support_means.append(float(np.mean(support_losses)))
        query_means.append(float(np.mean(query_losses)))
    return support_means, query_means


class TestMetaStepArithmetic:
    """``MetaTrainer`` runs Algorithm 1 task by task; its weights and losses
    are bitwise those of the composed reference."""

    @pytest.mark.parametrize("algorithm", ["fomaml", "reptile"])
    def test_meta_train_equals_composed_reference_bitwise(self, algorithm):
        config = MetaLearningConfig(
            meta_iterations=2,
            tasks_per_batch=3,
            support_size=16,
            query_size=16,
            inner_steps=2,
            algorithm=algorithm,
        )
        data = toy_data()
        model = small_model(seed=7)
        history = MetaTrainer(model, config).meta_train(data)

        reference = small_model(seed=7)
        support_means, query_means = composed_meta_train(reference, config, data)

        assert history.support_loss == support_means
        assert history.query_loss == query_means
        initial = small_model(seed=7).parameters()
        for (name, param), (_, expected), start in zip(
            model.named_parameters(), reference.named_parameters(), initial
        ):
            assert bits(param.data) == bits(expected.data), name
            assert bits(param.data) != bits(start.data), name
