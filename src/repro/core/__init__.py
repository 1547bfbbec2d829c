"""``repro.core`` — the FUSE framework (the paper's contribution).

Multi-frame point-cloud fusion (Section 3.2), the MARS baseline CNN, plain
supervised training, meta-learning (Algorithm 1), online fine-tuning
(Section 3.3.3), evaluation metrics and the high-level
:class:`FusePoseEstimator` API.
"""

from .evaluation import (
    PoseErrorReport,
    epochs_to_reach,
    evaluate_model,
    intersection_epoch,
    mae_cm,
    mae_per_axis_cm,
    per_joint_mae_cm,
)
from .finetune import FineTuneConfig, FineTuneResult, FineTuner
from .fusion import FrameFusion, fuse_dataset
from .maml import MetaLearningConfig, MetaTrainer, MetaTrainingHistory
from .models import PoseCNN, PoseCNNConfig, build_baseline_model, build_fuse_model
from .pipeline import FuseConfig, FusePoseEstimator
from .tasks import Task, TaskSampler
from .training import SupervisedTrainer, TrainingConfig, TrainingHistory

__all__ = [
    "FrameFusion",
    "fuse_dataset",
    "PoseCNN",
    "PoseCNNConfig",
    "build_baseline_model",
    "build_fuse_model",
    "TrainingConfig",
    "TrainingHistory",
    "SupervisedTrainer",
    "Task",
    "TaskSampler",
    "MetaLearningConfig",
    "MetaTrainer",
    "MetaTrainingHistory",
    "FineTuneConfig",
    "FineTuneResult",
    "FineTuner",
    "PoseErrorReport",
    "evaluate_model",
    "mae_cm",
    "mae_per_axis_cm",
    "per_joint_mae_cm",
    "epochs_to_reach",
    "intersection_epoch",
    "FuseConfig",
    "FusePoseEstimator",
]
