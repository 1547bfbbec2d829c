"""Online fine-tuning of a deployed model (Section 3.3.3 / 4.3).

After deployment, a small number of frames from a new user or movement
(:math:`D_{test}`, 200 frames in the paper) become available.  Fine-tuning
updates the model on those frames — either every layer or only the final
fully connected layer — while the evaluation tracks two curves per epoch:

* MAE on the remaining (unseen) new-user frames — how quickly the model
  adapts (Figures 3b / 4b);
* MAE on the original training distribution — how much the model forgets
  (Figures 3a / 4a).

The FUSE claim is that a meta-learned initialization adapts within ~5 epochs
without catastrophic forgetting, whereas the supervised baseline needs ~4x
more epochs and forgets the original data in the process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import nn
from ..dataset.loader import ArrayDataset, BatchLoader
from ..engine.functional import (
    batched_forward,
    gradient_step,
    replicate_parameters,
    supports_batched_execution,
)
from .evaluation import evaluate_model, mae_per_axis_cm
from .models import PoseCNN
from .training import TrainingConfig

__all__ = ["FineTuneConfig", "FineTuneResult", "FineTuner", "finetune_population"]


@dataclass(frozen=True)
class FineTuneConfig:
    """Hyper-parameters of online fine-tuning.

    Attributes
    ----------
    epochs:
        Number of passes over the fine-tuning frames (the paper sweeps up to
        50 and reports 5-epoch / intersection / 50-epoch snapshots).
    scope:
        ``"all"`` fine-tunes every layer; ``"last"`` only the final FC layer.
    optimizer:
        ``"sgd"`` (default) performs plain gradient steps — the same update
        rule as the meta-learning inner loop, i.e. the step the FUSE
        initialization was optimized for; ``"adam"`` is also supported.
        Both models in a comparison always use the same setting.
    learning_rate / batch_size / loss:
        Optimization settings (L1 loss throughout, as in the paper).
    """

    epochs: int = 50
    scope: str = "all"
    optimizer: str = "sgd"
    learning_rate: float = 1e-2
    batch_size: int = 32
    loss: str = "l1"
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.scope not in ("all", "last"):
            raise ValueError(f"unknown fine-tuning scope '{self.scope}'")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown fine-tuning optimizer '{self.optimizer}'")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class FineTuneResult:
    """Per-epoch MAE curves produced by fine-tuning.

    ``curves`` maps an evaluation-set name (e.g. ``"new"``, ``"original"``)
    to the list of MAE values in cm, one entry per epoch; index 0 of
    ``initial_mae_cm`` holds the pre-fine-tuning value of each curve.
    """

    curves: Dict[str, List[float]] = field(default_factory=dict)
    initial_mae_cm: Dict[str, float] = field(default_factory=dict)
    train_loss: List[float] = field(default_factory=list)
    scope: str = "all"

    def curve_with_initial(self, name: str) -> List[float]:
        """Return ``[initial, epoch1, epoch2, ...]`` for one evaluation set."""
        if name not in self.curves:
            raise KeyError(f"no curve named '{name}'; available: {sorted(self.curves)}")
        return [self.initial_mae_cm[name], *self.curves[name]]

    def mae_at_epoch(self, name: str, epoch: int) -> float:
        """MAE of curve ``name`` after ``epoch`` fine-tuning epochs (0 = initial)."""
        series = self.curve_with_initial(name)
        epoch = min(epoch, len(series) - 1)
        return series[epoch]


class FineTuner:
    """Fine-tunes a trained :class:`PoseCNN` on a small adaptation set."""

    def __init__(self, model: PoseCNN, config: Optional[FineTuneConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else FineTuneConfig()
        self._loss_fn = TrainingConfig(loss=self.config.loss).loss_function()
        parameters = (
            model.parameters() if self.config.scope == "all" else model.last_layer_parameters()
        )
        if self.config.optimizer == "adam":
            self.optimizer: nn.Optimizer = nn.Adam(parameters, lr=self.config.learning_rate)
        else:
            self.optimizer = nn.SGD(parameters, lr=self.config.learning_rate)

    def finetune(
        self,
        adaptation_data: ArrayDataset,
        evaluation_sets: Optional[Dict[str, ArrayDataset]] = None,
        epochs: Optional[int] = None,
        verbose: bool = False,
    ) -> FineTuneResult:
        """Fine-tune on ``adaptation_data`` while tracking MAE curves.

        Parameters
        ----------
        adaptation_data:
            The small set of new-scenario frames available online.
        evaluation_sets:
            Named feature/label datasets evaluated after every epoch;
            typically ``{"new": ..., "original": ...}``.
        epochs:
            Override the configured epoch count.
        """
        if len(adaptation_data) == 0:
            raise ValueError("adaptation_data must not be empty")
        epochs = epochs if epochs is not None else self.config.epochs
        evaluation_sets = evaluation_sets or {}

        result = FineTuneResult(scope=self.config.scope)
        for name, dataset in evaluation_sets.items():
            result.curves[name] = []
            result.initial_mae_cm[name] = evaluate_model(self.model, dataset).mae_average

        loader = BatchLoader(
            adaptation_data,
            batch_size=min(self.config.batch_size, len(adaptation_data)),
            shuffle=self.config.shuffle,
            seed=self.config.seed,
        )
        for epoch in range(1, epochs + 1):
            self.model.train()
            losses: List[float] = []
            for features, labels in loader:
                self.optimizer.zero_grad()
                self.model.zero_grad()
                predictions = self.model(nn.Tensor(features))
                loss = self._loss_fn(predictions, nn.Tensor(labels))
                loss.backward()
                self.optimizer.step()
                losses.append(loss.item())
            result.train_loss.append(float(np.mean(losses)) if losses else 0.0)

            for name, dataset in evaluation_sets.items():
                report = evaluate_model(self.model, dataset)
                result.curves[name].append(report.mae_average)
            if verbose:
                summary = ", ".join(
                    f"{name} {result.curves[name][-1]:.2f} cm" for name in evaluation_sets
                )
                print(f"fine-tune epoch {epoch:3d}: loss {result.train_loss[-1]:.4f} {summary}")
        # Leave no gradients behind (see SupervisedTrainer.fit).
        self.model.zero_grad()
        return result


def finetune_population(
    models: Sequence[PoseCNN],
    adaptation_sets: Sequence[ArrayDataset],
    evaluation_sets: Optional[Sequence[Dict[str, ArrayDataset]]] = None,
    config: Optional[FineTuneConfig] = None,
    epochs: Optional[int] = None,
) -> List[FineTuneResult]:
    """Fine-tune several deployed models on their own adaptation sets at once.

    This batches the *scenario* dimension of online adaptation: every model
    (e.g. the supervised baseline and the meta-learned FUSE model, or one
    model per newly onboarded user) is adapted in parallel through the
    task-batched functional kernels, sharing one grouped forward/backward
    call per mini-batch instead of a Python loop over scenarios.

    Restrictions compared to :class:`FineTuner`: all models must share one
    architecture, all adaptation sets must have equal sizes (so mini-batches
    stack), and only the ``"all"`` scope with the plain SGD update rule is
    supported — exactly the setting the FUSE initialization was optimized
    for.  Results match running :class:`FineTuner` per model with the same
    configuration (shared shuffling seed) up to floating-point reduction
    order.  The adapted parameters are written back into each model.
    """
    config = config if config is not None else FineTuneConfig()
    if config.scope != "all":
        raise ValueError("finetune_population only supports scope='all'")
    if config.optimizer != "sgd":
        raise ValueError("finetune_population only supports the sgd optimizer")
    if len(models) == 0 or len(models) != len(adaptation_sets):
        raise ValueError("one adaptation set per model is required")
    sizes = {len(dataset) for dataset in adaptation_sets}
    if len(sizes) != 1 or 0 in sizes:
        raise ValueError("adaptation sets must be non-empty and equally sized")
    template = models[0]
    if not supports_batched_execution(template):
        raise ValueError("model architecture has no task-batched kernels")
    evaluation_sets = list(evaluation_sets) if evaluation_sets is not None else [
        {} for _ in models
    ]
    if len(evaluation_sets) != len(models):
        raise ValueError("one evaluation-set mapping per model is required")

    num_models = len(models)
    epochs = epochs if epochs is not None else config.epochs
    size = sizes.pop()
    batch_size = min(config.batch_size, size)

    # Stack per-model parameters: slice t holds model t's weights.
    params = replicate_parameters(template, num_models)
    for slot, model in enumerate(models):
        for stacked, param in zip(params, model.parameters()):
            stacked.data[slot] = param.data

    features = np.stack([dataset.features for dataset in adaptation_sets])
    labels = np.stack([dataset.labels for dataset in adaptation_sets])

    results = [FineTuneResult(scope=config.scope) for _ in models]

    def evaluate_all() -> List[Dict[str, float]]:
        maes: List[Dict[str, float]] = [{} for _ in models]
        all_names = sorted(set().union(*(named.keys() for named in evaluation_sets)))
        with nn.no_grad():
            for name in all_names:
                datasets = [named.get(name) for named in evaluation_sets]
                eval_sizes = {len(d) for d in datasets if d is not None}
                if all(d is not None for d in datasets) and len(eval_sizes) == 1:
                    # Every model evaluates an equally sized set under this
                    # name (the common case): one stacked forward for all.
                    x = nn.Tensor(np.stack([d.features for d in datasets]))
                    predictions = batched_forward(template, params, x).numpy()
                    for slot, dataset in enumerate(datasets):
                        maes[slot][name] = float(
                            mae_per_axis_cm(predictions[slot], dataset.labels).mean()
                        )
                    continue
                for slot, dataset in enumerate(datasets):
                    if dataset is None:
                        continue
                    single = [nn.Tensor(p.data[slot][None]) for p in params]
                    predictions = batched_forward(
                        template, single, nn.Tensor(dataset.features[None])
                    ).numpy()[0]
                    maes[slot][name] = float(
                        mae_per_axis_cm(predictions, dataset.labels).mean()
                    )
        return maes

    for slot, row in enumerate(evaluate_all()):
        for name, value in row.items():
            results[slot].curves[name] = []
            results[slot].initial_mae_cm[name] = value

    for epoch in range(epochs):
        # Mirror BatchLoader's shuffling so per-model curves match the
        # sequential FineTuner run with the same seed.
        indices = np.arange(size)
        if config.shuffle:
            indices = np.random.default_rng(config.seed + epoch).permutation(size)
        epoch_losses = np.zeros(num_models)
        num_batches = 0
        for start in range(0, size, batch_size):
            batch = indices[start : start + batch_size]
            x = nn.Tensor(features[:, batch])
            y = nn.Tensor(labels[:, batch])
            predictions = batched_forward(template, params, x)
            losses = nn.per_task_loss(predictions, y, config.loss)
            losses.sum().backward()
            epoch_losses += losses.data
            num_batches += 1
            params = gradient_step(params, config.learning_rate)

        for slot, row in enumerate(evaluate_all()):
            results[slot].train_loss.append(float(epoch_losses[slot] / max(num_batches, 1)))
            for name, value in row.items():
                results[slot].curves[name].append(value)

    # Write the adapted parameters back into the deployed models.
    for slot, model in enumerate(models):
        for stacked, param in zip(params, model.parameters()):
            param.data = stacked.data[slot].copy()
    return results
