"""Shared runner for the adaptation experiments (Table 2, Figures 3-4).

Section 4.3 of the paper compares two models on the worst-case leave-out
split (user 4 and the "right limb extension" movement excluded from
training):

* **baseline** — the MARS CNN on single-frame input, trained with plain
  supervised learning on :math:`D_{train}`;
* **FUSE** — the same CNN on fused (3-frame) input, meta-trained with
  Algorithm 1.

Both deployed models are then fine-tuned on the small online set (200 frames
in the paper) and evaluated after every epoch on (a) the held-back original
data — measuring forgetting — and (b) the remaining new-scenario frames —
measuring adaptation.  The experiment is run twice: fine-tuning all layers
(Figure 3) and only the last FC layer (Figure 4); Table 2 summarizes both.

Offline training is done once per scale and reused across the two
fine-tuning scopes (the fine-tuning step restores the trained weights before
each run), which keeps the benchmark wall-clock manageable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from ..core.evaluation import epochs_to_reach, intersection_epoch
from ..core.finetune import FineTuneConfig, FineTuneResult, FineTuner
from ..core.maml import MetaTrainer
from ..core.models import PoseCNN
from ..core.pipeline import FuseConfig, FusePoseEstimator
from ..core.training import SupervisedTrainer
from ..dataset.loader import ArrayDataset
from ..dataset.splits import AdaptationSplit, leave_out_split
from ..dataset.synthetic import generate_dataset
from .scale import ExperimentScale, get_scale

__all__ = ["ModelCurves", "AdaptationResult", "run_adaptation", "clear_cache"]


@dataclass
class ModelCurves:
    """Fine-tuning curves of one model under one fine-tuning scope."""

    finetune: FineTuneResult
    initial_original_mae: float
    initial_new_mae: float

    def original_curve(self) -> list[float]:
        """Original-data MAE per epoch, starting at epoch 0 (before tuning)."""
        return self.finetune.curve_with_initial("original")

    def new_curve(self) -> list[float]:
        """New-data MAE per epoch, starting at epoch 0 (before tuning)."""
        return self.finetune.curve_with_initial("new")


@dataclass
class AdaptationResult:
    """Everything Table 2 and Figures 3-4 need."""

    scale_name: str
    split_description: str
    curves: Dict[str, Dict[str, ModelCurves]] = field(default_factory=dict)
    # curves[scope][model] with scope in {"all", "last"} and
    # model in {"baseline", "fuse"}.

    def model_curves(self, scope: str, model: str) -> ModelCurves:
        return self.curves[scope][model]

    # ------------------------------------------------------------------
    # Table 2 statistics
    # ------------------------------------------------------------------
    def summary_rows(self, scope: str, snapshot_epochs: tuple[int, int] = (5, 50)) -> list[dict]:
        """Rows mirroring Table 2 for one fine-tuning scope."""
        baseline = self.curves[scope]["baseline"]
        fuse = self.curves[scope]["fuse"]
        early, late = snapshot_epochs
        crossover = intersection_epoch(baseline.new_curve()[1:], fuse.new_curve()[1:])
        rows = []
        for label, epoch in (
            (f"{early} epochs", early),
            ("Intersection", crossover if crossover is not None else late),
            (f"{late} epochs", late),
        ):
            rows.append(
                {
                    "snapshot": label,
                    "baseline_original": baseline.finetune.mae_at_epoch("original", epoch),
                    "baseline_new": baseline.finetune.mae_at_epoch("new", epoch),
                    "fuse_original": fuse.finetune.mae_at_epoch("original", epoch),
                    "fuse_new": fuse.finetune.mae_at_epoch("new", epoch),
                }
            )
        return rows

    def adaptation_speedup(self, scope: str, epoch_budget: int = 5) -> Optional[float]:
        """How many times longer the baseline needs to match FUSE at ``epoch_budget``.

        The paper's headline "4x faster" claim: FUSE reaches its 5-epoch MAE
        on the new data; the statistic is the ratio of the baseline's
        epochs-to-match over FUSE's budget.
        """
        baseline = self.curves[scope]["baseline"]
        fuse = self.curves[scope]["fuse"]
        fuse_curve = fuse.new_curve()
        target = min(fuse_curve[1 : epoch_budget + 1])
        baseline_epochs = epochs_to_reach(baseline.new_curve()[1:], target)
        if baseline_epochs is None:
            return None
        return baseline_epochs / float(epoch_budget)

    def forgetting(self, scope: str, model: str, epoch: int = 50) -> float:
        """Increase of original-data MAE after ``epoch`` fine-tuning epochs (cm)."""
        curves = self.curves[scope][model]
        series = curves.original_curve()
        epoch = min(epoch, len(series) - 1)
        return series[epoch] - series[0]


# In-process cache so Table 2 / Figure 3 / Figure 4 drivers (and their
# benchmarks) share one offline-training run per scale.  Keyed by the whole
# scale with the worker count normalised to 1: every budget and the dataset
# path are part of a result's identity, the worker count is not.
_RESULT_CACHE: Dict[ExperimentScale, AdaptationResult] = {}


def clear_cache() -> None:
    """Drop cached adaptation results (used by tests)."""
    _RESULT_CACHE.clear()


def _prepare_arrays(
    estimator: FusePoseEstimator, split: AdaptationSplit
) -> Dict[str, ArrayDataset]:
    """Fuse + featurize every partition of the adaptation split."""
    return {
        "train": estimator.prepare(split.train),
        "finetune": estimator.prepare(split.finetune),
        "new": estimator.prepare(split.evaluation),
        "original": estimator.prepare(split.original_eval),
    }


def _finetune_from(
    model: PoseCNN,
    trained_state: Dict[str, np.ndarray],
    config: FineTuneConfig,
    arrays: Dict[str, ArrayDataset],
) -> FineTuneResult:
    """Restore offline-trained weights and fine-tune on the adaptation set."""
    model.load_state_dict(trained_state)
    tuner = FineTuner(model, config)
    return tuner.finetune(
        arrays["finetune"],
        evaluation_sets={"original": arrays["original"], "new": arrays["new"]},
    )


def run_adaptation(
    scale: ExperimentScale | str = "ci",
    use_cache: bool = True,
    verbose: bool = False,
) -> AdaptationResult:
    """Run (or fetch) the full adaptation experiment for one scale."""
    scale = get_scale(scale) if isinstance(scale, str) else scale
    cache_key = replace(scale, plan=replace(scale.plan, workers=1))
    if use_cache and cache_key in _RESULT_CACHE:
        return _RESULT_CACHE[cache_key]

    dataset = generate_dataset(scale.dataset, plan=scale.plan)
    split = leave_out_split(dataset, finetune_frames=scale.finetune_frames)

    # ------------------------------------------------------------------
    # Offline training
    # ------------------------------------------------------------------
    baseline_estimator = FusePoseEstimator(
        FuseConfig(num_context_frames=0, training=scale.training, model_seed=0)
    )
    baseline_arrays = _prepare_arrays(baseline_estimator, split)
    if verbose:
        print(f"[adaptation] offline supervised training ({scale.training.epochs} epochs)")
    SupervisedTrainer(baseline_estimator.model, scale.training).fit(baseline_arrays["train"])
    baseline_state = baseline_estimator.model.state_dict()

    fuse_estimator = FusePoseEstimator(
        FuseConfig(num_context_frames=1, meta=scale.meta, model_seed=1)
    )
    fuse_arrays = _prepare_arrays(fuse_estimator, split)
    if verbose:
        print(f"[adaptation] offline meta-training ({scale.meta.meta_iterations} iterations)")
    MetaTrainer(fuse_estimator.model, scale.meta).meta_train(fuse_arrays["train"])
    fuse_state = fuse_estimator.model.state_dict()

    # ------------------------------------------------------------------
    # Online fine-tuning, both scopes
    # ------------------------------------------------------------------
    result = AdaptationResult(scale_name=scale.name, split_description=split.describe())
    scope_configs = {"all": scale.finetune_all, "last": scale.finetune_last}
    for scope, finetune_config in scope_configs.items():
        if verbose:
            print(f"[adaptation] fine-tuning scope '{scope}'")
        baseline_result = _finetune_from(
            baseline_estimator.model, baseline_state, finetune_config, baseline_arrays
        )
        fuse_result = _finetune_from(
            fuse_estimator.model, fuse_state, finetune_config, fuse_arrays
        )
        result.curves[scope] = {
            "baseline": ModelCurves(
                finetune=baseline_result,
                initial_original_mae=baseline_result.initial_mae_cm["original"],
                initial_new_mae=baseline_result.initial_mae_cm["new"],
            ),
            "fuse": ModelCurves(
                finetune=fuse_result,
                initial_original_mae=fuse_result.initial_mae_cm["original"],
                initial_new_mae=fuse_result.initial_mae_cm["new"],
            ),
        }

    if use_cache:
        _RESULT_CACHE[cache_key] = result
    return result
