"""Tests for motion synthesis (trajectory generation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.body.kinematics import Pose, joint_velocities
from repro.body.motion import MotionSynthesizer, MotionTrajectory, _smooth_noise
from repro.body.movements import MOVEMENT_NAMES, get_movement
from repro.body.skeleton import JOINT_INDEX, NUM_JOINTS
from repro.body.subjects import default_subjects

from .conftest import assert_bitwise_equal, per_frame_forward_kinematics


def per_frame_trajectory(synthesizer, subject, movement_name, duration, rng, start_phase):
    """Positions and velocities built one frame and one kinematics call at a
    time, drawing the same random streams in the same order as
    :meth:`MotionSynthesizer.synthesize`."""
    movement = get_movement(movement_name)
    skeleton = subject.skeleton()
    period = movement.period_for(subject)
    frame_period = 1.0 / synthesizer.frame_rate
    num_frames = max(2, int(round(duration * synthesizer.frame_rate)))
    timestamps = np.arange(num_frames) * frame_period
    jitter = _smooth_noise(num_frames, rng) * subject.phase_jitter
    sway_x = _smooth_noise(num_frames, rng) * subject.lateral_sway * 3.0
    sway_y = _smooth_noise(num_frames, rng) * subject.lateral_sway * 1.5
    positions = np.zeros((num_frames, NUM_JOINTS, 3))
    for frame_index, t in enumerate(timestamps):
        pose = movement.pose_at(start_phase + t / period + jitter[frame_index], subject)
        body_offset = np.array([sway_x[frame_index], subject.standoff + sway_y[frame_index], 0.0])
        pose = Pose(
            rotations=pose.rotations,
            root_position=pose.root_position,
            root_offset=np.asarray(pose.root_offset, dtype=float) + body_offset,
        )
        positions[frame_index] = per_frame_forward_kinematics(
            skeleton, pose, synthesizer.keep_feet_on_ground
        )
    return positions, joint_velocities(positions, frame_period)


class TestMotionSynthesizer:
    def test_trajectory_shapes(self, subject_one, rng):
        trajectory = MotionSynthesizer(frame_rate=10).synthesize(subject_one, "squat", 5.0, rng=rng)
        assert trajectory.positions.shape == (50, NUM_JOINTS, 3)
        assert trajectory.velocities.shape == (50, NUM_JOINTS, 3)
        assert trajectory.timestamps.shape == (50,)
        assert trajectory.num_frames == 50
        assert trajectory.duration == pytest.approx(5.0)

    def test_metadata_propagated(self, subject_one, rng):
        trajectory = MotionSynthesizer().synthesize(subject_one, "squat", 3.0, rng=rng)
        assert trajectory.subject_id == subject_one.subject_id
        assert trajectory.movement_name == "squat"

    def test_feet_stay_on_ground(self, subject_one, rng):
        trajectory = MotionSynthesizer().synthesize(subject_one, "squat", 5.0, rng=rng)
        foot_z = trajectory.positions[:, JOINT_INDEX["foot_left"], 2]
        ankle_z = trajectory.positions[:, JOINT_INDEX["ankle_left"], 2]
        assert np.minimum(foot_z, ankle_z).min() >= -1e-9
        assert np.minimum(foot_z, ankle_z).max() < 0.4

    def test_subject_standoff_respected(self, subject_one, rng):
        trajectory = MotionSynthesizer().synthesize(subject_one, "squat", 5.0, rng=rng)
        mean_depth = trajectory.positions[:, JOINT_INDEX["spine_base"], 1].mean()
        assert abs(mean_depth - subject_one.standoff) < 0.3

    def test_deterministic_given_seed(self, subject_one):
        synth = MotionSynthesizer()
        t1 = synth.synthesize(subject_one, "squat", 3.0, rng=np.random.default_rng(5))
        t2 = synth.synthesize(subject_one, "squat", 3.0, rng=np.random.default_rng(5))
        np.testing.assert_allclose(t1.positions, t2.positions)

    def test_different_seeds_differ(self, subject_one):
        synth = MotionSynthesizer()
        t1 = synth.synthesize(subject_one, "squat", 3.0, rng=np.random.default_rng(1))
        t2 = synth.synthesize(subject_one, "squat", 3.0, rng=np.random.default_rng(2))
        assert not np.allclose(t1.positions, t2.positions)

    @pytest.mark.parametrize("movement", MOVEMENT_NAMES)
    def test_every_movement_produces_motion(self, movement, subject_one, rng):
        trajectory = MotionSynthesizer().synthesize(subject_one, movement, 4.0, rng=rng)
        speed = np.linalg.norm(trajectory.velocities, axis=2)
        assert speed.max() > 0.1, f"{movement} produced no visible motion"
        assert speed.max() < 10.0, f"{movement} produced implausible velocities"

    def test_velocities_consistent_with_positions(self, subject_one, rng):
        trajectory = MotionSynthesizer(frame_rate=10).synthesize(subject_one, "squat", 4.0, rng=rng)
        # Central differences of positions should match the stored velocities.
        manual = np.gradient(trajectory.positions, 0.1, axis=0)
        np.testing.assert_allclose(trajectory.velocities, manual, atol=1e-9)

    def test_frame_accessor(self, subject_one, rng):
        trajectory = MotionSynthesizer().synthesize(subject_one, "squat", 2.0, rng=rng)
        positions, velocities = trajectory.frame(3)
        np.testing.assert_allclose(positions, trajectory.positions[3])
        np.testing.assert_allclose(velocities, trajectory.velocities[3])

    def test_invalid_duration_raises(self, subject_one, rng):
        with pytest.raises(ValueError):
            MotionSynthesizer().synthesize(subject_one, "squat", 0.0, rng=rng)

    def test_invalid_frame_rate_raises(self):
        with pytest.raises(ValueError):
            MotionSynthesizer(frame_rate=0.0)


class TestOneKinematicsPassPerRecording:
    """A recording's frames go through forward kinematics in one call; its
    positions and velocities are bitwise the frame-by-frame ones."""

    @pytest.mark.parametrize("movement", MOVEMENT_NAMES)
    def test_equals_frame_by_frame_reference(self, movement):
        subject = default_subjects()[MOVEMENT_NAMES.index(movement) % 4]
        synthesizer = MotionSynthesizer(frame_rate=10.0)
        trajectory = synthesizer.synthesize(
            subject, movement, 6.0, rng=np.random.default_rng(31), start_phase=0.37
        )
        positions, velocities = per_frame_trajectory(
            synthesizer, subject, movement, 6.0, np.random.default_rng(31), 0.37
        )
        assert_bitwise_equal(trajectory.positions, positions)
        assert_bitwise_equal(trajectory.velocities, velocities)

    def test_equals_frame_by_frame_reference_off_the_ground(self, subject_one):
        synthesizer = MotionSynthesizer(frame_rate=20.0, keep_feet_on_ground=False)
        trajectory = synthesizer.synthesize(
            subject_one, "left_front_lunge", 3.0, rng=np.random.default_rng(8)
        )
        positions, velocities = per_frame_trajectory(
            synthesizer, subject_one, "left_front_lunge", 3.0, np.random.default_rng(8), 0.0
        )
        assert_bitwise_equal(trajectory.positions, positions)
        assert_bitwise_equal(trajectory.velocities, velocities)


class TestMotionTrajectoryValidation:
    def test_rejects_mismatched_velocities(self, subject_one, rng):
        trajectory = MotionSynthesizer().synthesize(subject_one, "squat", 2.0, rng=rng)
        with pytest.raises(ValueError):
            MotionTrajectory(
                positions=trajectory.positions,
                velocities=trajectory.velocities[:-1],
                timestamps=trajectory.timestamps,
                subject_id=1,
                movement_name="squat",
                frame_rate=10.0,
            )

    def test_rejects_bad_timestamps(self, subject_one, rng):
        trajectory = MotionSynthesizer().synthesize(subject_one, "squat", 2.0, rng=rng)
        with pytest.raises(ValueError):
            MotionTrajectory(
                positions=trajectory.positions,
                velocities=trajectory.velocities,
                timestamps=trajectory.timestamps[:-2],
                subject_id=1,
                movement_name="squat",
                frame_rate=10.0,
            )
