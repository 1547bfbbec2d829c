"""Supervised training of the pose-estimation CNN.

This is the baseline training procedure the paper compares against: plain
mini-batch gradient descent with the Adam optimizer and the L1 (mean absolute
error) loss over joint coordinates (Section 3.1.2 / 4.1), 128-sample batches
and up to 150 epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from .. import nn
from ..dataset.loader import ArrayDataset, BatchLoader
from .evaluation import evaluate_model
from .models import PoseCNN

__all__ = ["TrainingConfig", "TrainingHistory", "SupervisedTrainer"]

LossFunction = Callable[[nn.Tensor, nn.Tensor], nn.Tensor]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyper-parameters of supervised training.

    Defaults follow Section 4.2 of the paper (Adam, L1 loss, batch size 128);
    the epoch count is configured per experiment because the paper-scale 150
    epochs are only needed at full dataset size.
    """

    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 1e-3
    weight_decay: float = 0.0
    loss: str = "l1"
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.loss not in ("l1", "l2", "huber"):
            raise ValueError(f"unknown loss '{self.loss}'")

    def loss_function(self) -> LossFunction:
        """Return the configured loss function."""
        return {"l1": nn.l1_loss, "l2": nn.mse_loss, "huber": nn.huber_loss}[self.loss]


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    train_loss: List[float] = field(default_factory=list)
    validation_mae_cm: List[float] = field(default_factory=list)

    def best_validation_epoch(self) -> Optional[int]:
        """1-based epoch with the lowest validation MAE (``None`` if unused)."""
        if not self.validation_mae_cm:
            return None
        return int(np.argmin(self.validation_mae_cm)) + 1

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "train_loss": list(self.train_loss),
            "validation_mae_cm": list(self.validation_mae_cm),
        }


class SupervisedTrainer:
    """Trains a :class:`PoseCNN` with conventional supervised learning."""

    def __init__(self, model: PoseCNN, config: Optional[TrainingConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else TrainingConfig()
        self.optimizer = nn.Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        self.history = TrainingHistory()
        self._loss_fn = self.config.loss_function()

    def train_epoch(self, loader: BatchLoader) -> float:
        """Run one training epoch; returns the mean batch loss."""
        self.model.train()
        losses: List[float] = []
        for features, labels in loader:
            self.optimizer.zero_grad()
            predictions = self.model(nn.Tensor(features))
            loss = self._loss_fn(predictions, nn.Tensor(labels))
            loss.backward()
            self.optimizer.step()
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else 0.0

    def fit(
        self,
        train_data: ArrayDataset,
        validation_data: Optional[ArrayDataset] = None,
        epochs: Optional[int] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for the configured number of epochs.

        Parameters
        ----------
        train_data:
            Feature/label arrays used for gradient updates.
        validation_data:
            Optional held-out set evaluated after every epoch (MAE in cm).
        epochs:
            Override the configured epoch count.
        verbose:
            Print a one-line summary per epoch.
        """
        epochs = epochs if epochs is not None else self.config.epochs
        loader = BatchLoader(
            train_data,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            seed=self.config.seed,
        )
        for epoch in range(1, epochs + 1):
            train_loss = self.train_epoch(loader)
            self.history.train_loss.append(train_loss)
            if validation_data is not None and len(validation_data) > 0:
                report = evaluate_model(self.model, validation_data)
                self.history.validation_mae_cm.append(report.mae_average)
                if verbose:
                    print(
                        f"epoch {epoch:3d}: train loss {train_loss:.4f} "
                        f"val MAE {report.mae_average:.2f} cm"
                    )
            elif verbose:
                print(f"epoch {epoch:3d}: train loss {train_loss:.4f}")
        # The last step's gradients are dead weight: a trained model pickled
        # to a serving process would otherwise carry one per parameter.
        self.model.zero_grad()
        return self.history
