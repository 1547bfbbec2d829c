"""Synthetic MARS-like dataset generation.

The FUSE paper evaluates on the MARS dataset: 40,083 labelled mmWave frames
of four subjects performing ten rehabilitation movements, recorded at 10 Hz
with a TI IWR1443 and labelled by a Kinect V2.  That data cannot be shipped
here, so this module regenerates a dataset with the same *structure* by
driving the kinematic body model (:mod:`repro.body`) through the radar
simulator (:mod:`repro.radar`):

* every (subject, movement) pair contributes one or more recording sessions,
* each session is a continuous 10 Hz sequence of sparse Eq. 1 point clouds,
* every frame is labelled with the 19-joint skeleton,
* an optional Kinect-style label noise model corrupts the ground truth the
  way a real depth-camera label pipeline would.

The generator is deterministic given its configuration and seed, and results
are memoized in-process so experiments and tests that share a configuration
do not pay the generation cost twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..body.motion import MotionSynthesizer
from ..body.movements import MOVEMENT_NAMES, get_movement
from ..body.subjects import SubjectProfile, default_subjects, make_subject
from ..body.surface import BodyScatteringModel
from ..radar.config import RadarConfig
from ..radar.pipeline import make_pipeline
from ..radar.scene import scene_batch_from_world
from ..runtime import ExecutionPlan, map_shards, merge_shards, rng_for_key
from .sample import LabelledFrame, PoseDataset

__all__ = [
    "SessionSpec",
    "SyntheticDatasetConfig",
    "SyntheticDatasetGenerator",
    "generate_dataset",
]


@dataclass(frozen=True)
class SyntheticDatasetConfig:
    """Configuration of the synthetic dataset generator.

    Attributes
    ----------
    subject_ids:
        Subjects to include (1-4 are the canonical MARS-like profiles).
    movement_names:
        Movements to include; defaults to all ten MARS movements.
    seconds_per_pair:
        Recording length (seconds) per (subject, movement) pair.  At the
        paper's scale, 40,083 frames / (4 subjects x 10 movements) / 10 Hz
        is roughly 100 s per pair.
    frame_rate:
        Label/point-cloud rate in Hz (10 Hz in MARS).
    sessions_per_pair:
        Number of independent recording sessions per pair; fusion never
        crosses session boundaries.
    radar_backend:
        ``"geometric"`` (default, fast) or ``"signal"`` (full FMCW chain).
    points_per_segment:
        Scatterer density of the body surface model.
    label_noise_std:
        Standard deviation (metres) of the Kinect-style label noise.
    seed:
        Master seed; every session derives its own child seed from it.
    """

    subject_ids: Tuple[int, ...] = (1, 2, 3, 4)
    movement_names: Tuple[str, ...] = MOVEMENT_NAMES
    seconds_per_pair: float = 20.0
    frame_rate: float = 10.0
    sessions_per_pair: int = 1
    radar_backend: str = "geometric"
    # A slightly elevated noise floor (relative to the signal-chain demo
    # default) reproduces the MARS-like sparsity of 20-40 points per frame.
    radar_config: RadarConfig = field(default_factory=lambda: RadarConfig(noise_figure_db=-26.0))
    points_per_segment: int = 5
    label_noise_std: float = 0.0
    seed: int = 2022

    def __post_init__(self) -> None:
        if not self.subject_ids:
            raise ValueError("at least one subject is required")
        if not self.movement_names:
            raise ValueError("at least one movement is required")
        for name in self.movement_names:
            get_movement(name)  # validates the name
        if self.seconds_per_pair <= 0:
            raise ValueError("seconds_per_pair must be positive")
        if self.sessions_per_pair < 1:
            raise ValueError("sessions_per_pair must be >= 1")
        if self.label_noise_std < 0:
            raise ValueError("label_noise_std must be non-negative")

    @property
    def expected_frames(self) -> int:
        """Total number of frames the generator will emit."""
        frames_per_session = int(round(self.seconds_per_pair * self.frame_rate))
        return (
            frames_per_session
            * self.sessions_per_pair
            * len(self.subject_ids)
            * len(self.movement_names)
        )

    def scaled(self, fraction: float) -> "SyntheticDatasetConfig":
        """Return a copy with ``seconds_per_pair`` scaled by ``fraction``."""
        if fraction <= 0:
            raise ValueError("fraction must be positive")
        return replace(self, seconds_per_pair=self.seconds_per_pair * fraction)

    @classmethod
    def mars_scale(cls) -> "SyntheticDatasetConfig":
        """A configuration matching the MARS dataset size (~40 k frames)."""
        return cls(seconds_per_pair=100.0)

    @classmethod
    def ci_scale(cls) -> "SyntheticDatasetConfig":
        """A small configuration for tests and CI-scale benchmarks."""
        return cls(seconds_per_pair=6.0)


# In-process memoization of generated datasets keyed by configuration and
# generation path (the batched path draws its randomness in a different
# order, so the two paths produce distinct — equally valid — datasets).
# Worker count is deliberately absent from the key: sharded generation is
# bitwise identical to serial generation (pinned by tests/dataset).
_DATASET_CACHE: Dict[Tuple[SyntheticDatasetConfig, bool], PoseDataset] = {}


@dataclass(frozen=True)
class SessionSpec:
    """One unit of sharded generation work: a single recording session.

    Every session owns a child seed derived from its coordinates (via
    :func:`repro.runtime.rng_for_key`), so the frames it produces do not
    depend on which shard — or which process — generates it.
    """

    subject_id: int
    movement_name: str
    session: int
    sequence_id: int


@dataclass
class SyntheticDatasetGenerator:
    """Generates :class:`PoseDataset` objects from a configuration."""

    config: SyntheticDatasetConfig = field(default_factory=SyntheticDatasetConfig)

    def _subject(self, subject_id: int) -> SubjectProfile:
        canonical = {profile.subject_id: profile for profile in default_subjects()}
        return canonical.get(subject_id, make_subject(subject_id))

    def generate_sequence(
        self,
        subject: SubjectProfile,
        movement_name: str,
        sequence_id: int,
        rng: np.random.Generator,
    ) -> List[LabelledFrame]:
        """Generate one continuous labelled recording session."""
        cfg = self.config
        synthesizer = MotionSynthesizer(frame_rate=cfg.frame_rate)
        trajectory = synthesizer.synthesize(
            subject,
            movement_name,
            duration=cfg.seconds_per_pair,
            rng=rng,
            start_phase=float(rng.uniform(0.0, 1.0)),
        )
        scattering = BodyScatteringModel(
            points_per_segment=cfg.points_per_segment, reflectivity=subject.reflectivity
        )
        pipeline = make_pipeline(cfg.radar_backend, config=cfg.radar_config)

        samples: List[LabelledFrame] = []
        for frame_index in range(trajectory.num_frames):
            positions, velocities = trajectory.frame(frame_index)
            scatterers = scattering.scatterers(positions, velocities, rng)
            cloud = pipeline.process_scatterers(
                scatterers,
                rng,
                timestamp=float(trajectory.timestamps[frame_index]),
                frame_index=frame_index,
            )
            joints = positions
            if cfg.label_noise_std > 0:
                joints = joints + rng.normal(0.0, cfg.label_noise_std, size=joints.shape)
            samples.append(
                LabelledFrame(
                    cloud=cloud,
                    joints=joints,
                    subject_id=subject.subject_id,
                    movement_name=movement_name,
                    sequence_id=sequence_id,
                    frame_index=frame_index,
                )
            )
        return samples

    def generate_sequence_batched(
        self,
        subject: SubjectProfile,
        movement_name: str,
        sequence_id: int,
        rng: np.random.Generator,
    ) -> List[LabelledFrame]:
        """Generate one recording session through the batched radar path.

        The whole trajectory is pushed through the scattering model and the
        radar backend as ``(frames, scatterers, ...)`` arrays — no per-frame
        Python loop over targets.  The random draw order differs from
        :meth:`generate_sequence`, so the two paths yield statistically
        equivalent (not sample-identical) datasets; each is deterministic
        given the seed.
        """
        cfg = self.config
        synthesizer = MotionSynthesizer(frame_rate=cfg.frame_rate)
        trajectory = synthesizer.synthesize(
            subject,
            movement_name,
            duration=cfg.seconds_per_pair,
            rng=rng,
            start_phase=float(rng.uniform(0.0, 1.0)),
        )
        scattering = BodyScatteringModel(
            points_per_segment=cfg.points_per_segment, reflectivity=subject.reflectivity
        )
        pipeline = make_pipeline(cfg.radar_backend, config=cfg.radar_config)

        positions, velocities, rcs = scattering.scatterer_batch(
            trajectory.positions, trajectory.velocities, rng
        )
        scene_batch = scene_batch_from_world(positions, velocities, rcs, cfg.radar_config)
        clouds = pipeline.process_batch(
            scene_batch,
            rng,
            timestamps=trajectory.timestamps,
            frame_indices=np.arange(trajectory.num_frames),
        )

        joints = trajectory.positions
        if cfg.label_noise_std > 0:
            joints = joints + rng.normal(0.0, cfg.label_noise_std, size=joints.shape)

        return [
            LabelledFrame(
                cloud=clouds.frame(frame_index),
                joints=joints[frame_index],
                subject_id=subject.subject_id,
                movement_name=movement_name,
                sequence_id=sequence_id,
                frame_index=frame_index,
            )
            for frame_index in range(trajectory.num_frames)
        ]

    def session_specs(self) -> List[SessionSpec]:
        """The full work list: one :class:`SessionSpec` per recording session."""
        cfg = self.config
        specs: List[SessionSpec] = []
        sequence_id = 0
        for subject_id in cfg.subject_ids:
            for movement_name in cfg.movement_names:
                for session in range(cfg.sessions_per_pair):
                    specs.append(
                        SessionSpec(subject_id, movement_name, session, sequence_id)
                    )
                    sequence_id += 1
        return specs

    def generate_session(self, spec: SessionSpec, vectorized: bool = True) -> List[LabelledFrame]:
        """Generate one session from its spec, with its own derived seed.

        The child seed depends only on the master seed and the session
        coordinates — adding subjects or movements does not reshuffle other
        sessions, and neither does the shard layout or the worker count.
        """
        cfg = self.config
        rng = rng_for_key(cfg.seed, spec.subject_id, spec.movement_name, spec.session)
        generate_one = self.generate_sequence_batched if vectorized else self.generate_sequence
        return generate_one(
            self._subject(spec.subject_id), spec.movement_name, spec.sequence_id, rng
        )

    def generate(self, plan: Optional[ExecutionPlan] = None) -> PoseDataset:
        """Generate the full dataset described by the configuration.

        ``plan.vectorized`` selects the batched radar/scattering path (the
        default without a plan); the per-frame path is retained as the
        reference implementation and for throughput comparisons.
        ``plan.workers > 1`` shards the sessions over a process pool
        (:func:`repro.runtime.map_shards`); per-session seeding makes the
        output bitwise identical to the serial run.
        """
        plan = plan if plan is not None else ExecutionPlan()
        cfg = self.config
        dataset = PoseDataset(name=f"synthetic-mars(seed={cfg.seed})")
        shard_results = map_shards(
            partial(_generate_session_shard, cfg, plan.vectorized),
            self.session_specs(),
            plan.workers,
        )
        dataset.extend(merge_shards(shard_results))
        return dataset


def _generate_session_shard(
    config: SyntheticDatasetConfig, vectorized: bool, specs: List[SessionSpec]
) -> List[LabelledFrame]:
    """Generate one shard of sessions (module-level: crosses the pool's
    pickle boundary)."""
    generator = SyntheticDatasetGenerator(config)
    frames: List[LabelledFrame] = []
    for spec in specs:
        frames.extend(generator.generate_session(spec, vectorized=vectorized))
    return frames


def generate_dataset(
    config: Optional[SyntheticDatasetConfig] = None,
    use_cache: bool = True,
    plan: Optional[ExecutionPlan] = None,
) -> PoseDataset:
    """Generate (or fetch from the in-process cache) a synthetic dataset.

    The generation path follows ``plan.vectorized`` (batched without a
    plan); the batched and reference paths draw randomness in different
    orders, so they are distinct cache entries.  The plan's worker count
    never affects contents, so cached datasets are shared across worker
    counts.
    """
    config = config if config is not None else SyntheticDatasetConfig()
    plan = plan if plan is not None else ExecutionPlan()
    cache_key = (config, plan.vectorized)
    if use_cache and cache_key in _DATASET_CACHE:
        return _DATASET_CACHE[cache_key]
    dataset = SyntheticDatasetGenerator(config).generate(plan=plan)
    if use_cache:
        _DATASET_CACHE[cache_key] = dataset
    return dataset
