"""Batched radar execution: whole trajectories through the signal chain.

:class:`BatchedRadarEngine` is the engine-side entry point for turning a
posed motion trajectory into a point-cloud sequence.  It samples the body
scatterers for every frame at once, packs them into a
:class:`repro.radar.SceneBatch` and pushes chunks of :data:`CHUNK_FRAMES`
frames through the radar backend's ``process_batch`` kernel; with
``plan.vectorized`` disabled it reproduces the historical frame-at-a-time
loop, which the throughput benchmark uses as its baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..body.motion import MotionTrajectory
from ..body.surface import BodyScatteringModel
from ..radar.pipeline import RadarPipeline
from ..radar.pointcloud import PointCloudSequence
from ..radar.scene import scene_batch_from_world
from ..runtime.plan import ExecutionPlan

__all__ = ["BatchedRadarEngine"]

#: Radar frames per vectorized chunk.  Bounds the peak memory of the
#: signal-chain backend (each frame's data cube is a ``(samples, chirps,
#: antennas)`` complex array).
CHUNK_FRAMES = 64


@dataclass
class BatchedRadarEngine:
    """Executes the radar stage of the hot path according to a plan."""

    plan: ExecutionPlan = field(default_factory=ExecutionPlan)

    def point_cloud_sequence(
        self,
        scattering: BodyScatteringModel,
        trajectory: MotionTrajectory,
        pipeline: RadarPipeline,
        rng: np.random.Generator,
    ) -> PointCloudSequence:
        """Convert a posed trajectory into one point cloud per frame.

        The vectorized path samples every frame's scatterers in one call and
        feeds :data:`CHUNK_FRAMES`-frame chunks through the backend's batched
        kernel; the reference path mirrors the original per-frame loop.
        """
        frame_rate = trajectory.frame_rate
        sequence = PointCloudSequence(frame_period=1.0 / frame_rate)

        if not self.plan.vectorized:
            for index in range(trajectory.num_frames):
                positions, velocities = trajectory.frame(index)
                scatterers = scattering.scatterers(positions, velocities, rng)
                sequence.append(
                    pipeline.process_scatterers(
                        scatterers,
                        rng,
                        timestamp=float(trajectory.timestamps[index]),
                        frame_index=index,
                    )
                )
            return sequence

        positions, velocities, rcs = scattering.scatterer_batch(
            trajectory.positions, trajectory.velocities, rng
        )
        num_frames = trajectory.num_frames
        for start in range(0, num_frames, CHUNK_FRAMES):
            stop = min(start + CHUNK_FRAMES, num_frames)
            chunk = scene_batch_from_world(
                positions[start:stop],
                velocities[start:stop],
                rcs[start:stop],
                pipeline.config,
            )
            batch = pipeline.process_batch(
                chunk,
                rng,
                timestamps=trajectory.timestamps[start:stop],
                frame_indices=np.arange(start, stop),
            )
            for frame in batch.to_frames():
                sequence.append(frame)
        return sequence
