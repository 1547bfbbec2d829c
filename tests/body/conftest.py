"""Helpers shared by the body-model tests."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.body.kinematics import Pose
from repro.body.skeleton import JOINT_INDEX, JOINT_NAMES, JOINT_PARENTS, NUM_JOINTS, Skeleton

FOOT_JOINTS = ("foot_left", "foot_right", "ankle_left", "ankle_right")


def per_frame_forward_kinematics(
    skeleton: Skeleton, pose: Pose, keep_feet_on_ground: bool = True
) -> np.ndarray:
    """One frame of forward kinematics, walking the joints one at a time.

    The frame-at-a-time form the batched
    :func:`repro.body.kinematics.forward_kinematics` must reproduce bitwise:
    an explicit identity for every joint the pose leaves unrotated, each
    global rotation composed parent-then-local, and the ground correction
    applied to this frame alone.
    """
    offsets = skeleton.neutral_offsets()
    root = (
        np.array([0.0, 0.0, skeleton.hip_height])
        if pose.root_position is None
        else np.asarray(pose.root_position, dtype=float)
    )
    root = root + np.asarray(pose.root_offset, dtype=float)

    positions = np.zeros((NUM_JOINTS, 3))
    global_rotations: Dict[str, np.ndarray] = {}
    for name in JOINT_NAMES:
        parent = JOINT_PARENTS[name]
        local_rotation = pose.rotations.get(name, np.eye(3))
        if parent == name:
            global_rotations[name] = local_rotation
            positions[JOINT_INDEX[name]] = root
        else:
            parent_rotation = global_rotations[parent]
            global_rotations[name] = parent_rotation @ local_rotation
            positions[JOINT_INDEX[name]] = (
                positions[JOINT_INDEX[parent]] + parent_rotation @ offsets[name]
            )

    if keep_feet_on_ground:
        lowest = positions[[JOINT_INDEX[j] for j in FOOT_JOINTS], 2].min()
        positions[:, 2] -= lowest
    return positions


def assert_bitwise_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    """Same shape, dtype and bytes: signed zeros and every last bit count."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()
