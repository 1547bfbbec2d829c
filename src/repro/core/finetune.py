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
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..dataset.loader import ArrayDataset, BatchLoader
from .evaluation import evaluate_model
from .models import PoseCNN
from .training import TrainingConfig

__all__ = ["FineTuneConfig", "FineTuneResult", "FineTuner"]


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

