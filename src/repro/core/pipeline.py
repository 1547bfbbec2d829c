"""High-level FUSE API.

:class:`FusePoseEstimator` ties the pieces together behind one object: frame
fusion (Section 3.2), feature-map construction, the CNN model, offline
training (supervised or meta-learned) and online adaptation/inference.  The
examples and the experiment drivers are written against this API.

Typical usage::

    from repro.core import FusePoseEstimator, FuseConfig
    from repro.dataset import generate_dataset, SyntheticDatasetConfig

    dataset = generate_dataset(SyntheticDatasetConfig.ci_scale())
    estimator = FusePoseEstimator(FuseConfig(num_context_frames=1))
    estimator.fit_meta(dataset)             # offline meta-training
    estimator.adapt(new_user_samples)       # few-shot online fine-tuning
    joints = estimator.predict(frames)      # (N, 19, 3) joint coordinates
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from .. import nn
from ..dataset.features import FeatureMapBuilder
from ..dataset.loader import ArrayDataset
from ..dataset.sample import PoseDataset
from ..radar.pointcloud import PointCloudFrame
from .evaluation import PoseErrorReport, evaluate_model
from .finetune import FineTuneConfig, FineTuneResult, FineTuner
from .fusion import FrameFusion
from .maml import MetaLearningConfig, MetaTrainer, MetaTrainingHistory
from .models import PoseCNN, build_fuse_model
from .training import SupervisedTrainer, TrainingConfig, TrainingHistory

__all__ = ["FuseConfig", "FusePoseEstimator"]


@dataclass(frozen=True)
class FuseConfig:
    """Configuration of the end-to-end FUSE estimator.

    Attributes
    ----------
    num_context_frames:
        The fusion meta-parameter ``M`` (1 = fuse three frames, the paper's
        recommended setting; 0 disables fusion, i.e. the MARS baseline input).
    feature_builder:
        Point-cloud-to-feature-map conversion settings.
    training:
        Supervised training hyper-parameters (used by :meth:`fit_supervised`
        and as the baseline in the comparison experiments).
    meta:
        Meta-training hyper-parameters (used by :meth:`fit_meta`).
    finetune:
        Online adaptation hyper-parameters (used by :meth:`adapt`).
    model_seed:
        Seed of the model's weight initialization.
    """

    num_context_frames: int = 1
    feature_builder: FeatureMapBuilder = field(default_factory=FeatureMapBuilder)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    meta: MetaLearningConfig = field(default_factory=MetaLearningConfig)
    finetune: FineTuneConfig = field(default_factory=FineTuneConfig)
    model_seed: int = 0


class FusePoseEstimator:
    """End-to-end mmWave human pose estimator implementing the FUSE framework."""

    def __init__(self, config: Optional[FuseConfig] = None, model: Optional[PoseCNN] = None) -> None:
        self.config = config if config is not None else FuseConfig()
        self.fusion = FrameFusion(num_context_frames=self.config.num_context_frames)
        self.feature_builder = self.config.feature_builder
        self.model = (
            model
            if model is not None
            else build_fuse_model(self.feature_builder, seed=self.config.model_seed)
        )
        self.training_history: Optional[TrainingHistory] = None
        self.meta_history: Optional[MetaTrainingHistory] = None
        self.finetune_result: Optional[FineTuneResult] = None

    # ------------------------------------------------------------------
    # Data preparation
    # ------------------------------------------------------------------
    def prepare(self, dataset: PoseDataset) -> ArrayDataset:
        """Fuse a labelled dataset and convert it to feature/label arrays.

        The arrays are built on every call; each driver prepares a split
        once and keeps the result.
        """
        fused = self.fusion.fuse_dataset(dataset)
        features, labels = self.feature_builder.build_dataset(fused)
        return ArrayDataset(features, labels)

    # ------------------------------------------------------------------
    # Offline training
    # ------------------------------------------------------------------
    def fit_supervised(
        self,
        train: PoseDataset | ArrayDataset,
        validation: Optional[PoseDataset | ArrayDataset] = None,
        epochs: Optional[int] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train with conventional supervised learning (the baseline recipe)."""
        train_arrays = self.to_arrays(train)
        validation_arrays = self.to_arrays(validation) if validation is not None else None
        trainer = SupervisedTrainer(self.model, self.config.training)
        self.training_history = trainer.fit(
            train_arrays, validation_arrays, epochs=epochs, verbose=verbose
        )
        return self.training_history

    def fit_meta(
        self,
        train: PoseDataset | ArrayDataset,
        validation: Optional[PoseDataset | ArrayDataset] = None,
        meta_iterations: Optional[int] = None,
        verbose: bool = False,
    ) -> MetaTrainingHistory:
        """Meta-train the initialization (Algorithm 1)."""
        train_arrays = self.to_arrays(train)
        validation_arrays = self.to_arrays(validation) if validation is not None else None
        trainer = MetaTrainer(self.model, self.config.meta)
        self.meta_history = trainer.meta_train(
            train_arrays,
            validation_data=validation_arrays,
            meta_iterations=meta_iterations,
            verbose=verbose,
        )
        return self.meta_history

    # ------------------------------------------------------------------
    # Online adaptation and inference
    # ------------------------------------------------------------------
    def adapt(
        self,
        new_data: PoseDataset | ArrayDataset,
        evaluation_sets: Optional[Dict[str, PoseDataset | ArrayDataset]] = None,
        epochs: Optional[int] = None,
        verbose: bool = False,
    ) -> FineTuneResult:
        """Fine-tune the deployed model on a few new-scenario frames."""
        adaptation_arrays = self.to_arrays(new_data)
        named_arrays = {
            name: self.to_arrays(dataset) for name, dataset in (evaluation_sets or {}).items()
        }
        tuner = FineTuner(self.model, self.config.finetune)
        self.finetune_result = tuner.finetune(
            adaptation_arrays, evaluation_sets=named_arrays, epochs=epochs, verbose=verbose
        )
        return self.finetune_result

    def predict(
        self, frames: Union[Sequence[PointCloudFrame], PoseDataset, np.ndarray]
    ) -> np.ndarray:
        """Predict joint coordinates.

        Accepts raw point-cloud frames (fused on the fly with the configured
        window), a labelled dataset, or pre-built feature maps.  Returns an
        ``(N, 19, 3)`` array of joint coordinates in metres.
        """
        if isinstance(frames, np.ndarray):
            features = frames
        elif isinstance(frames, PoseDataset):
            arrays = self.prepare(frames)
            features = arrays.features
        else:
            frame_list = list(frames)
            fused = self.fusion.fuse_sequence(frame_list)
            features = self.feature_builder.build_batch(fused)
        return self.model.predict_joints(features)

    def evaluate(self, dataset: PoseDataset | ArrayDataset) -> PoseErrorReport:
        """Evaluate the current model; returns the MAE report in cm."""
        arrays = self.to_arrays(dataset)
        return evaluate_model(self.model, arrays)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Serialize the model weights and key configuration to ``path``."""
        metadata = {
            "num_context_frames": self.config.num_context_frames,
            "feature_shape": list(self.feature_builder.feature_shape),
            "model_config": {
                "input_channels": self.model.config.input_channels,
                "input_height": self.model.config.input_height,
                "input_width": self.model.config.input_width,
                "conv_channels": list(self.model.config.conv_channels),
                "hidden_units": self.model.config.hidden_units,
                "output_dim": self.model.config.output_dim,
            },
        }
        return nn.save_model(self.model, path, metadata=metadata)

    def load(self, path: Union[str, Path]) -> None:
        """Load model weights previously produced by :meth:`save`."""
        nn.load_model_into(self.model, path)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def to_arrays(self, data: PoseDataset | ArrayDataset) -> ArrayDataset:
        """Coerce labelled or pre-built data to feature/label arrays.

        Labelled datasets run through :meth:`prepare` (fusion and feature
        building); array datasets pass through unchanged.
        """
        if isinstance(data, ArrayDataset):
            return data
        if isinstance(data, PoseDataset):
            return self.prepare(data)
        raise TypeError(f"expected PoseDataset or ArrayDataset, got {type(data).__name__}")
