"""Motion synthesis: turning a movement program into a joint trajectory.

Given a subject profile and a rehabilitation movement, the synthesizer places
the subject at their nominal standoff distance from the radar, runs the
movement's pose program over time (with subject-specific tempo, amplitude,
phase jitter and lateral sway) and returns the resulting joint-position
trajectory together with per-joint velocities.  This trajectory is both the
ground-truth label stream (what the Kinect would have reported) and the
input that drives the radar scattering simulation.

The movement's pose program runs once per frame; the resulting poses then go
through :func:`repro.body.kinematics.forward_kinematics` in one call per
recording.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kinematics import Pose, forward_kinematics, joint_velocities
from .movements import Movement, get_movement
from .skeleton import NUM_JOINTS
from .subjects import SubjectProfile

__all__ = ["MotionTrajectory", "MotionSynthesizer"]


@dataclass
class MotionTrajectory:
    """A synthesized motion sequence.

    Attributes
    ----------
    positions:
        Joint positions, shape ``(frames, 19, 3)`` in metres.
    velocities:
        Joint velocities, shape ``(frames, 19, 3)`` in m/s.
    timestamps:
        Frame timestamps in seconds, shape ``(frames,)``.
    subject_id / movement_name:
        Provenance of the sequence.
    frame_rate:
        Frames per second of the trajectory.
    """

    positions: np.ndarray
    velocities: np.ndarray
    timestamps: np.ndarray
    subject_id: int
    movement_name: str
    frame_rate: float

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        frames = self.positions.shape[0]
        if self.positions.shape != (frames, NUM_JOINTS, 3):
            raise ValueError(f"positions have invalid shape {self.positions.shape}")
        if self.velocities.shape != self.positions.shape:
            raise ValueError("velocities must match positions in shape")
        if self.timestamps.shape != (frames,):
            raise ValueError("timestamps must have one entry per frame")

    @property
    def num_frames(self) -> int:
        return int(self.positions.shape[0])

    @property
    def duration(self) -> float:
        """Total duration covered by the trajectory in seconds."""
        if self.num_frames == 0:
            return 0.0
        return float(self.num_frames) / self.frame_rate

    def frame(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(positions, velocities)`` of one frame."""
        return self.positions[index], self.velocities[index]


@dataclass
class MotionSynthesizer:
    """Generates :class:`MotionTrajectory` objects for subject/movement pairs.

    Parameters
    ----------
    frame_rate:
        Label sampling rate in Hz.  The MARS dataset labels frames at 10 Hz;
        the radar simulator may internally run faster and decimate.
    keep_feet_on_ground:
        Forwarded to :func:`repro.body.kinematics.forward_kinematics`.
    """

    frame_rate: float = 10.0
    keep_feet_on_ground: bool = True

    def __post_init__(self) -> None:
        if self.frame_rate <= 0:
            raise ValueError(f"frame_rate must be positive, got {self.frame_rate}")

    def synthesize(
        self,
        subject: SubjectProfile,
        movement: Movement | str | int,
        duration: float = 10.0,
        rng: Optional[np.random.Generator] = None,
        start_phase: float = 0.0,
    ) -> MotionTrajectory:
        """Synthesize ``duration`` seconds of ``subject`` performing ``movement``.

        The sequence contains repeated cycles of the movement with small
        random phase irregularities between repetitions and a slow lateral
        sway of the whole body, both scaled by the subject profile.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        movement = get_movement(movement)
        rng = rng if rng is not None else np.random.default_rng()

        skeleton = subject.skeleton()
        period = movement.period_for(subject)
        frame_period = 1.0 / self.frame_rate
        num_frames = max(2, int(round(duration * self.frame_rate)))
        timestamps = np.arange(num_frames) * frame_period

        # Smoothly varying phase noise: a random walk low-pass filtered so the
        # subject drifts ahead/behind the nominal tempo without jumps.
        jitter = _smooth_noise(num_frames, rng) * subject.phase_jitter
        sway_x = _smooth_noise(num_frames, rng) * subject.lateral_sway * 3.0
        sway_y = _smooth_noise(num_frames, rng) * subject.lateral_sway * 1.5

        body_offsets = np.stack(
            [sway_x, subject.standoff + sway_y, np.zeros(num_frames)], axis=1
        )
        poses = []
        for frame_index, t in enumerate(timestamps):
            phase = start_phase + t / period + jitter[frame_index]
            pose = movement.pose_at(phase, subject)
            poses.append(
                Pose(
                    rotations=pose.rotations,
                    root_position=pose.root_position,
                    root_offset=np.asarray(pose.root_offset, dtype=float)
                    + body_offsets[frame_index],
                )
            )
        positions = forward_kinematics(
            skeleton, poses, keep_feet_on_ground=self.keep_feet_on_ground
        )

        velocities = joint_velocities(positions, frame_period)
        return MotionTrajectory(
            positions=positions,
            velocities=velocities,
            timestamps=timestamps,
            subject_id=subject.subject_id,
            movement_name=movement.name,
            frame_rate=self.frame_rate,
        )


def _smooth_noise(length: int, rng: np.random.Generator, smoothing: int = 15) -> np.ndarray:
    """Zero-mean smooth noise in roughly ``[-1, 1]`` used for sway and jitter."""
    if length <= 0:
        return np.zeros(0)
    raw = rng.standard_normal(length + 2 * smoothing)
    kernel = np.hanning(2 * smoothing + 1)
    kernel /= kernel.sum()
    smooth = np.convolve(raw, kernel, mode="same")[smoothing : smoothing + length]
    scale = np.max(np.abs(smooth))
    if scale < 1e-12:
        return np.zeros(length)
    return smooth / scale
