"""Meta-learning for mmWave pose estimation (Algorithm 1 of the paper).

The second FUSE contribution: instead of training the CNN to minimize error
on the available data, meta-training optimizes the *initialization* so that a
few gradient steps on a handful of new samples (a new user or movement)
produce a good model.  The procedure follows MAML:

1. sample a batch of tasks from the fused training data (Definition 2),
2. for every task, take the support subset and perform an inner gradient
   step with the sample-level learning rate ``alpha`` (Eq. 5),
3. evaluate the adapted parameters on the task's query subset,
4. update the initial parameters from the summed query losses with the
   task-level meta learning rate ``beta`` (Eq. 6).

Two meta-gradient estimators are provided:

* ``"fomaml"`` (default) — first-order MAML: the outer gradient is the query
  loss gradient evaluated at the adapted parameters.  This is the standard
  approximation used by most practical MAML deployments; it preserves the
  support/query structure that distinguishes meta-learning from transfer
  learning (the property the paper emphasizes in Section 3.3.2).
* ``"reptile"`` — the Reptile estimator (outer gradient is the parameter
  displacement after adapting on the task), provided for the ablation study.

The second-order MAML term (differentiating through the inner update) is not
implemented; see DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..dataset.loader import ArrayDataset
from .evaluation import evaluate_model
from .models import PoseCNN
from .tasks import Task, TaskSampler
from .training import TrainingConfig

__all__ = ["MetaLearningConfig", "MetaTrainingHistory", "MetaTrainer"]


@dataclass(frozen=True)
class MetaLearningConfig:
    """Hyper-parameters of meta-training.

    The paper's full-scale values are 20,000 meta-iterations, 32 tasks per
    iteration, 1,000-frame support/query sets, ``alpha = 0.1`` and
    ``beta = 0.001``.  The defaults here are CI-scale but keep the paper's
    learning rates; experiment drivers override the sizes explicitly.

    ``warmstart_epochs`` optionally runs a few plain supervised epochs before
    the meta-iterations begin.  At the paper's 20,000-iteration budget this is
    unnecessary (and the faithful setting is 0); at CI scale it compensates
    for the ~100x smaller meta-iteration budget so that the meta-learned
    initialization starts from a sensible operating point.  DESIGN.md records
    this as an explicit deviation.
    """

    meta_iterations: int = 300
    tasks_per_batch: int = 8
    support_size: int = 64
    query_size: int = 64
    # The paper reports alpha = 0.1; with this repository's feature scaling
    # and NumPy substrate that step size makes the inner loop overshoot and
    # meta-training diverge, so the default is one order of magnitude lower.
    # EXPERIMENTS.md records this deviation.
    inner_lr: float = 0.01
    meta_lr: float = 0.001
    inner_steps: int = 1
    algorithm: str = "fomaml"
    loss: str = "l1"
    seed: int = 0
    warmstart_epochs: int = 0
    warmstart_lr: float = 1e-3
    warmstart_batch_size: int = 128

    def __post_init__(self) -> None:
        if self.meta_iterations < 1:
            raise ValueError("meta_iterations must be >= 1")
        if self.warmstart_epochs < 0:
            raise ValueError("warmstart_epochs must be non-negative")
        if self.tasks_per_batch < 1:
            raise ValueError("tasks_per_batch must be >= 1")
        if self.inner_lr <= 0 or self.meta_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if self.algorithm not in ("fomaml", "reptile"):
            raise ValueError(f"unknown meta-learning algorithm '{self.algorithm}'")
        if self.loss not in ("l1", "l2", "huber"):
            raise ValueError(f"unknown loss '{self.loss}'")

    @classmethod
    def paper_scale(cls) -> "MetaLearningConfig":
        """The hyper-parameters reported in Section 4.1 of the paper.

        ``inner_lr`` keeps this repository's stable default rather than the
        paper's 0.1 (see the class docstring for the rationale).
        """
        return cls(
            meta_iterations=20_000,
            tasks_per_batch=32,
            support_size=1_000,
            query_size=1_000,
            meta_lr=0.001,
        )


@dataclass
class MetaTrainingHistory:
    """Per-iteration meta-training statistics."""

    query_loss: List[float] = field(default_factory=list)
    support_loss: List[float] = field(default_factory=list)
    validation_mae_cm: List[float] = field(default_factory=list)
    validation_iterations: List[int] = field(default_factory=list)

    def as_dict(self) -> Dict[str, List[float]]:
        return {
            "query_loss": list(self.query_loss),
            "support_loss": list(self.support_loss),
            "validation_mae_cm": list(self.validation_mae_cm),
            "validation_iterations": list(self.validation_iterations),
        }


class MetaTrainer:
    """Meta-trains a :class:`PoseCNN` following Algorithm 1.

    Tasks run one at a time through the model itself: restore the initial
    parameters, adapt on the support set, take the task's meta gradient,
    and after the last task apply the summed gradients in one meta step.
    """

    def __init__(self, model: PoseCNN, config: Optional[MetaLearningConfig] = None) -> None:
        self.model = model
        self.config = config if config is not None else MetaLearningConfig()
        self.history = MetaTrainingHistory()
        self._loss_fn = TrainingConfig(loss=self.config.loss).loss_function()
        # The outer update of Eq. 6 is a gradient step on the initial
        # parameters; the paper uses Adam as the optimizer, so the meta
        # gradient is fed through Adam with learning rate beta.
        self._meta_optimizer = nn.Adam(self.model.parameters(), lr=self.config.meta_lr)

    # ------------------------------------------------------------------
    # Parameter bookkeeping
    # ------------------------------------------------------------------
    def _snapshot(self) -> List[np.ndarray]:
        return [param.data.copy() for param in self.model.parameters()]

    def _restore(self, snapshot: List[np.ndarray]) -> None:
        for param, saved in zip(self.model.parameters(), snapshot):
            param.data = saved.copy()

    # ------------------------------------------------------------------
    # Inner loop
    # ------------------------------------------------------------------
    def _inner_adapt(self, task: Task) -> float:
        """Adapt the current parameters on the task's support set (Eq. 5).

        Returns the final support loss.  The update is plain gradient descent
        with the sample-level learning rate ``alpha``, applied in place.
        """
        support_loss = 0.0
        for _ in range(self.config.inner_steps):
            self.model.zero_grad()
            predictions = self.model(nn.Tensor(task.support.features))
            loss = self._loss_fn(predictions, nn.Tensor(task.support.labels))
            loss.backward()
            support_loss = loss.item()
            for param in self.model.parameters():
                if param.grad is not None:
                    param.data = param.data - self.config.inner_lr * param.grad
        return support_loss

    def _query_gradient(self, task: Task) -> tuple[List[np.ndarray], float]:
        """Gradient of the query loss at the adapted parameters (Eq. 6 term)."""
        self.model.zero_grad()
        predictions = self.model(nn.Tensor(task.query.features))
        loss = self._loss_fn(predictions, nn.Tensor(task.query.labels))
        loss.backward()
        grads = [
            param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
            for param in self.model.parameters()
        ]
        return grads, loss.item()

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def _warmstart(self, train_data: ArrayDataset, verbose: bool = False) -> None:
        """Run a few supervised epochs before meta-training (CI-scale only)."""
        from .training import SupervisedTrainer

        cfg = self.config
        if verbose:
            print(f"[meta] warm start: {cfg.warmstart_epochs} supervised epochs")
        warm_config = TrainingConfig(
            epochs=cfg.warmstart_epochs,
            batch_size=cfg.warmstart_batch_size,
            learning_rate=cfg.warmstart_lr,
            loss=cfg.loss,
            seed=cfg.seed,
        )
        SupervisedTrainer(self.model, warm_config).fit(train_data)

    # ------------------------------------------------------------------
    # Meta-training
    # ------------------------------------------------------------------
    def meta_train(
        self,
        train_data: ArrayDataset,
        validation_data: Optional[ArrayDataset] = None,
        meta_iterations: Optional[int] = None,
        validation_every: int = 50,
        verbose: bool = False,
    ) -> MetaTrainingHistory:
        """Run meta-training on the fused, feature-mapped training data."""
        cfg = self.config
        iterations = meta_iterations if meta_iterations is not None else cfg.meta_iterations
        if cfg.warmstart_epochs > 0:
            self._warmstart(train_data, verbose=verbose)
        sampler = TaskSampler(
            dataset=train_data,
            support_size=min(cfg.support_size, len(train_data)),
            query_size=min(cfg.query_size, len(train_data)),
            tasks_per_batch=cfg.tasks_per_batch,
        )
        rng = np.random.default_rng(cfg.seed)
        parameters = self.model.parameters()

        for iteration in range(1, iterations + 1):
            tasks = sampler.sample_batch(rng)
            theta = self._snapshot()
            meta_gradients = [np.zeros_like(param.data) for param in parameters]
            support_losses = []
            query_losses = []

            for task in tasks:
                self._restore(theta)
                support_losses.append(self._inner_adapt(task))
                if cfg.algorithm == "fomaml":
                    grads, query_loss = self._query_gradient(task)
                    for accumulator, grad in zip(meta_gradients, grads):
                        accumulator += grad
                else:  # reptile
                    # One extra adaptation step on the query set, then use
                    # the total parameter displacement as the meta gradient.
                    self._inner_adapt(Task(support=task.query, query=task.query))
                    with nn.no_grad():
                        predictions = self.model(nn.Tensor(task.query.features))
                        query_loss = self._loss_fn(
                            predictions, nn.Tensor(task.query.labels)
                        ).item()
                    for accumulator, param, initial in zip(meta_gradients, parameters, theta):
                        accumulator += (initial - param.data) / cfg.inner_lr
                query_losses.append(query_loss)

            # Outer update (Eq. 6): restore the initial parameters and apply
            # the summed query gradients through the meta optimizer.
            self._restore(theta)
            scale = 1.0 / len(tasks)
            for param, gradient in zip(parameters, meta_gradients):
                param.grad = gradient * scale
            self._meta_optimizer.step()
            self.model.zero_grad()

            self.history.support_loss.append(float(np.mean(support_losses)))
            self.history.query_loss.append(float(np.mean(query_losses)))

            if validation_data is not None and (
                iteration % validation_every == 0 or iteration == iterations
            ):
                report = evaluate_model(self.model, validation_data)
                self.history.validation_mae_cm.append(report.mae_average)
                self.history.validation_iterations.append(iteration)
                if verbose:
                    print(
                        f"meta-iteration {iteration:5d}: query loss "
                        f"{self.history.query_loss[-1]:.4f}, val MAE {report.mae_average:.2f} cm"
                    )
            elif verbose and iteration % max(1, iterations // 10) == 0:
                print(
                    f"meta-iteration {iteration:5d}: query loss {self.history.query_loss[-1]:.4f}"
                )
        return self.history
