"""Tests for rotations, forward kinematics and velocity estimation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.body.kinematics import (
    Pose,
    euler_rotation,
    forward_kinematics,
    ground_correction,
    interpolate_poses,
    joint_velocities,
    rotation_x,
    rotation_y,
    rotation_z,
)
from repro.body.skeleton import JOINT_INDEX, JOINT_NAMES, NUM_JOINTS, Skeleton
from repro.body.subjects import default_subjects

from .conftest import FOOT_JOINTS, assert_bitwise_equal, per_frame_forward_kinematics


class TestRotations:
    @pytest.mark.parametrize("factory", [rotation_x, rotation_y, rotation_z])
    def test_orthonormal(self, factory):
        rotation = factory(0.7)
        np.testing.assert_allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(rotation) == pytest.approx(1.0)

    @pytest.mark.parametrize("factory", [rotation_x, rotation_y, rotation_z])
    def test_zero_angle_is_identity(self, factory):
        np.testing.assert_allclose(factory(0.0), np.eye(3), atol=1e-15)

    def test_rotation_z_rotates_x_toward_y(self):
        rotated = rotation_z(np.pi / 2) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(rotated, [0.0, 1.0, 0.0], atol=1e-12)

    def test_rotation_x_rotates_y_toward_z(self):
        rotated = rotation_x(np.pi / 2) @ np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(rotated, [0.0, 0.0, 1.0], atol=1e-12)

    def test_euler_composition_order(self):
        np.testing.assert_allclose(
            euler_rotation(rx=0.3, ry=-0.2, rz=0.5),
            rotation_z(0.5) @ rotation_y(-0.2) @ rotation_x(0.3),
        )


class TestPose:
    def test_default_rotation_is_identity(self):
        np.testing.assert_allclose(Pose().rotation_for("head"), np.eye(3))

    def test_with_rotation_returns_new_pose(self):
        pose = Pose()
        updated = pose.with_rotation("knee_left", rotation_x(0.4))
        assert "knee_left" not in pose.rotations
        assert "knee_left" in updated.rotations

    def test_with_rotation_unknown_joint_raises(self):
        with pytest.raises(KeyError):
            Pose().with_rotation("tail", np.eye(3))

    def test_validate_accepts_proper_rotations(self):
        Pose(rotations={"hip_left": rotation_x(0.3)}).validate()

    def test_validate_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(rotations={"hip_left": np.eye(3) * 2.0}).validate()

    def test_validate_rejects_unknown_joint(self):
        with pytest.raises(KeyError):
            Pose(rotations={"nonexistent": np.eye(3)}).validate()


class TestForwardKinematics:
    def test_identity_pose_reproduces_neutral(self):
        skeleton = Skeleton()
        fk = forward_kinematics(skeleton, Pose(), keep_feet_on_ground=False)
        neutral = skeleton.neutral_joint_positions()
        np.testing.assert_allclose(fk, neutral, atol=1e-12)

    def test_bone_lengths_preserved_under_rotation(self):
        skeleton = Skeleton()
        pose = Pose(
            rotations={
                "shoulder_left": rotation_y(-1.2),
                "hip_right": rotation_x(-0.8),
                "knee_right": rotation_x(0.9),
            }
        )
        positions = forward_kinematics(skeleton, pose)
        expected = skeleton.bone_lengths()
        for (parent, child), length in expected.items():
            actual = np.linalg.norm(
                positions[JOINT_INDEX[child]] - positions[JOINT_INDEX[parent]]
            )
            assert actual == pytest.approx(length, abs=1e-9), f"{parent}->{child}"

    def test_arm_raise_lifts_wrist(self):
        skeleton = Skeleton()
        neutral = forward_kinematics(skeleton, Pose())
        raised = forward_kinematics(
            skeleton, Pose(rotations={"shoulder_left": rotation_y(-np.pi / 2)})
        )
        assert (
            raised[JOINT_INDEX["wrist_left"], 2]
            > neutral[JOINT_INDEX["wrist_left"], 2] + 0.3
        )

    def test_rotation_affects_only_subtree(self):
        skeleton = Skeleton()
        neutral = forward_kinematics(skeleton, Pose(), keep_feet_on_ground=False)
        posed = forward_kinematics(
            skeleton,
            Pose(rotations={"shoulder_left": rotation_y(-1.0)}),
            keep_feet_on_ground=False,
        )
        np.testing.assert_allclose(posed[JOINT_INDEX["head"]], neutral[JOINT_INDEX["head"]])
        np.testing.assert_allclose(
            posed[JOINT_INDEX["wrist_right"]], neutral[JOINT_INDEX["wrist_right"]]
        )
        assert not np.allclose(posed[JOINT_INDEX["wrist_left"]], neutral[JOINT_INDEX["wrist_left"]])

    def test_root_offset_translates_everything(self):
        skeleton = Skeleton()
        offset = np.array([0.2, 1.5, 0.0])
        base = forward_kinematics(skeleton, Pose(), keep_feet_on_ground=False)
        shifted = forward_kinematics(
            skeleton, Pose(root_offset=offset), keep_feet_on_ground=False
        )
        np.testing.assert_allclose(shifted, base + offset, atol=1e-12)

    def test_ground_contact_enforced_for_squat(self):
        skeleton = Skeleton()
        squat = Pose(
            rotations={
                "hip_left": rotation_x(-1.0),
                "hip_right": rotation_x(-1.0),
                "knee_left": rotation_x(1.3),
                "knee_right": rotation_x(1.3),
            }
        )
        positions = forward_kinematics(skeleton, squat, keep_feet_on_ground=True)
        foot_indices = [JOINT_INDEX[j] for j in ("foot_left", "foot_right", "ankle_left", "ankle_right")]
        assert positions[foot_indices, 2].min() == pytest.approx(0.0, abs=1e-9)


def random_poses(rng: np.random.Generator, frames: int) -> list:
    """Poses rotating a random subset of joints (none to all), half of them
    with an absolute root position, every one with a root offset."""
    poses = []
    for _ in range(frames):
        joints = rng.choice(JOINT_NAMES, size=int(rng.integers(0, NUM_JOINTS + 1)), replace=False)
        rotations = {str(joint): euler_rotation(*rng.uniform(-np.pi, np.pi, 3)) for joint in joints}
        if rng.random() < 0.25:
            # axis rotations carry exact (and signed) zeros
            rotations["shoulder_left"] = rotation_y(-np.pi / 2)
            rotations["knee_right"] = rotation_x(np.pi)
        root_position = None if rng.random() < 0.5 else rng.normal((0.1, 2.5, 1.0), 0.1)
        poses.append(
            Pose(rotations=rotations, root_position=root_position, root_offset=rng.normal(0.0, 0.2, 3))
        )
    return poses


class TestBatchedForwardKinematics:
    """One call composes every frame's rotations; each frame's positions are
    bitwise those of the frame-at-a-time loop."""

    @pytest.mark.parametrize("frames", [1, 120])
    @pytest.mark.parametrize("keep_feet_on_ground", [True, False])
    def test_equals_per_frame_loop_bitwise(self, frames, keep_feet_on_ground):
        rng = np.random.default_rng(frames)
        skeleton = default_subjects()[2].skeleton()
        poses = random_poses(rng, frames)
        batched = forward_kinematics(skeleton, poses, keep_feet_on_ground=keep_feet_on_ground)
        expected = np.stack(
            [per_frame_forward_kinematics(skeleton, pose, keep_feet_on_ground) for pose in poses]
        )
        assert_bitwise_equal(batched, expected)

    @pytest.mark.parametrize("keep_feet_on_ground", [True, False])
    def test_single_pose_is_the_batch_of_one(self, keep_feet_on_ground):
        skeleton = Skeleton()
        (pose,) = random_poses(np.random.default_rng(3), 1)
        single = forward_kinematics(skeleton, pose, keep_feet_on_ground=keep_feet_on_ground)
        assert single.shape == (NUM_JOINTS, 3)
        assert_bitwise_equal(
            single, forward_kinematics(skeleton, [pose], keep_feet_on_ground=keep_feet_on_ground)[0]
        )
        assert_bitwise_equal(
            single, per_frame_forward_kinematics(skeleton, pose, keep_feet_on_ground)
        )

    def test_frames_are_grounded_independently(self):
        skeleton = Skeleton()
        rest = Pose()
        squat = Pose(
            rotations={
                "hip_left": rotation_x(-1.0),
                "hip_right": rotation_x(-1.0),
                "knee_left": rotation_x(1.3),
                "knee_right": rotation_x(1.3),
            }
        )
        positions = forward_kinematics(skeleton, [rest, squat, rest])
        feet = [JOINT_INDEX[joint] for joint in FOOT_JOINTS]
        np.testing.assert_array_equal(positions[:, feet, 2].min(axis=1), 0.0)
        assert_bitwise_equal(positions[0], positions[2])

    def test_empty_sequence_gives_no_frames(self):
        assert forward_kinematics(Skeleton(), []).shape == (0, NUM_JOINTS, 3)


class TestGroundCorrection:
    def test_translates_to_floor(self):
        positions = Skeleton().neutral_joint_positions()
        floating = positions + np.array([0.0, 0.0, 0.5])
        corrected = ground_correction(floating)
        foot_indices = [JOINT_INDEX[j] for j in ("foot_left", "foot_right", "ankle_left", "ankle_right")]
        assert corrected[foot_indices, 2].min() == pytest.approx(0.0)

    def test_preserves_horizontal_coordinates(self):
        positions = Skeleton().neutral_joint_positions() + np.array([0.0, 0.0, 0.3])
        corrected = ground_correction(positions)
        np.testing.assert_allclose(corrected[:, :2], positions[:, :2])

    def test_stack_corrects_each_frame_like_one_frame(self):
        neutral = Skeleton().neutral_joint_positions()
        stack = np.stack([neutral + np.array([0.0, 0.0, lift]) for lift in (0.5, -0.2, 0.0)])
        corrected = ground_correction(stack)
        for frame, expected in zip(corrected, stack):
            assert_bitwise_equal(frame, ground_correction(expected))


class TestJointVelocities:
    def test_zero_for_static_trajectory(self):
        trajectory = np.repeat(Skeleton().neutral_joint_positions()[None], 10, axis=0)
        velocities = joint_velocities(trajectory, 0.1)
        np.testing.assert_allclose(velocities, 0.0)

    def test_constant_velocity_recovered(self):
        base = Skeleton().neutral_joint_positions()
        frames = 20
        trajectory = np.stack([base + np.array([0.05 * i, 0.0, 0.0]) for i in range(frames)])
        velocities = joint_velocities(trajectory, 0.1)
        np.testing.assert_allclose(velocities[..., 0], 0.5, atol=1e-9)
        np.testing.assert_allclose(velocities[..., 1:], 0.0, atol=1e-9)

    def test_single_frame_returns_zeros(self):
        trajectory = Skeleton().neutral_joint_positions()[None]
        np.testing.assert_allclose(joint_velocities(trajectory, 0.1), 0.0)

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            joint_velocities(np.zeros((5, 10, 3)), 0.1)

    def test_invalid_period_raises(self):
        with pytest.raises(ValueError):
            joint_velocities(np.zeros((5, NUM_JOINTS, 3)), 0.0)


class TestInterpolatePoses:
    def test_endpoint_weights(self):
        pose_a = Pose(rotations={"hip_left": rotation_x(0.5)})
        pose_b = Pose(rotations={"hip_left": rotation_x(-0.5)})
        np.testing.assert_allclose(
            interpolate_poses(pose_a, pose_b, 0.0).rotation_for("hip_left"),
            pose_a.rotation_for("hip_left"),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            interpolate_poses(pose_a, pose_b, 1.0).rotation_for("hip_left"),
            pose_b.rotation_for("hip_left"),
            atol=1e-12,
        )

    def test_midpoint_is_valid_rotation(self):
        pose_a = Pose(rotations={"shoulder_left": rotation_y(1.0)})
        pose_b = Pose(rotations={"shoulder_left": rotation_y(-1.0)})
        mid = interpolate_poses(pose_a, pose_b, 0.5).rotation_for("shoulder_left")
        np.testing.assert_allclose(mid @ mid.T, np.eye(3), atol=1e-9)

    def test_invalid_weight_raises(self):
        with pytest.raises(ValueError):
            interpolate_poses(Pose(), Pose(), 1.5)
