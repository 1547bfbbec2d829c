"""Forward kinematics for the 19-joint skeleton.

A :class:`Pose` assigns a rotation to any subset of joints; the rotation is
applied to the subtree rooted at that joint, exactly like the joint angles of
an articulated figure.  :func:`forward_kinematics` composes those rotations
down the kinematic tree to produce world-space joint positions.

It does so for a whole recording at once: per joint, the frames' local
rotations (the identity where a pose sets none) are stacked into a
``(frames, 3, 3)`` array and composed parent-then-local with one stacked
``np.matmul``, so the Python walk over the 19 joints runs once per recording
rather than once per frame.  A single pose is the batch of one.  Each frame's
positions are bitwise those of composing that frame alone: a stacked product
of 3x3 operands equals the per-item product, identity factors included (a
property of the shipped numpy/OpenBLAS that ``tests/body`` pins).

The module also provides small helpers used by the movement generators:
axis-angle / Euler rotation matrices, ground-contact correction (so that a
squatting skeleton does not hover above the floor) and velocity estimation by
finite differences, which feeds the Doppler channel of the radar simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from .skeleton import JOINT_INDEX, JOINT_NAMES, JOINT_PARENTS, NUM_JOINTS, Skeleton

__all__ = [
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "euler_rotation",
    "Pose",
    "forward_kinematics",
    "ground_correction",
    "joint_velocities",
]

#: joints whose lowest point :func:`ground_correction` puts on the floor
_FOOT_INDICES = [
    JOINT_INDEX["foot_left"],
    JOINT_INDEX["foot_right"],
    JOINT_INDEX["ankle_left"],
    JOINT_INDEX["ankle_right"],
]


def rotation_x(angle: float) -> np.ndarray:
    """Rotation matrix about the x (lateral) axis; positive pitches forward."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle: float) -> np.ndarray:
    """Rotation matrix about the y (depth) axis; positive rolls to the right."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle: float) -> np.ndarray:
    """Rotation matrix about the z (vertical) axis; positive yaws left."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_rotation(rx: float = 0.0, ry: float = 0.0, rz: float = 0.0) -> np.ndarray:
    """Composite rotation ``Rz @ Ry @ Rx`` from Euler angles in radians."""
    return rotation_z(rz) @ rotation_y(ry) @ rotation_x(rx)


@dataclass
class Pose:
    """A body pose: per-joint rotations plus a root translation.

    Attributes
    ----------
    rotations:
        Mapping from joint name to a 3x3 rotation matrix applied to the
        subtree rooted at that joint.  Joints not present use the identity.
    root_position:
        Absolute world position of the spine base before ground correction.
        When ``None`` the skeleton's neutral hip height is used.
    root_offset:
        Additional translation applied on top of the (absolute or default)
        root position.  Movement programs use this to express "step forward"
        or "shift sideways" without knowing the subject's hip height.
    """

    rotations: Dict[str, np.ndarray] = field(default_factory=dict)
    root_position: Optional[np.ndarray] = None
    root_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def rotation_for(self, joint: str) -> np.ndarray:
        """Rotation assigned to ``joint`` (identity when unspecified)."""
        return self.rotations.get(joint, np.eye(3))

    def with_rotation(self, joint: str, rotation: np.ndarray) -> "Pose":
        """Return a copy of this pose with ``joint`` set to ``rotation``."""
        if joint not in JOINT_INDEX:
            raise KeyError(f"unknown joint '{joint}'")
        rotations = dict(self.rotations)
        rotations[joint] = np.asarray(rotation, dtype=float)
        return Pose(
            rotations=rotations,
            root_position=self.root_position,
            root_offset=self.root_offset.copy(),
        )

    def validate(self) -> None:
        """Check that every rotation is a proper 3x3 rotation matrix."""
        for joint, rotation in self.rotations.items():
            if joint not in JOINT_INDEX:
                raise KeyError(f"unknown joint '{joint}'")
            rotation = np.asarray(rotation)
            if rotation.shape != (3, 3):
                raise ValueError(f"rotation for '{joint}' must be 3x3, got {rotation.shape}")
            if not np.allclose(rotation @ rotation.T, np.eye(3), atol=1e-6):
                raise ValueError(f"rotation for '{joint}' is not orthonormal")


def forward_kinematics(
    skeleton: Skeleton,
    poses: Union[Pose, Sequence[Pose]],
    keep_feet_on_ground: bool = True,
) -> np.ndarray:
    """Compute world joint positions for one pose or a recording's poses.

    Parameters
    ----------
    skeleton:
        Subject-specific skeleton providing neutral-pose bone offsets.
    poses:
        One :class:`Pose`, or a sequence of poses (one per frame).
    keep_feet_on_ground:
        When ``True`` every frame is translated vertically so that its
        lowest foot/ankle touches the floor (``z = 0``).  This mimics how a
        real subject's feet stay planted during squats and lunges even though
        the kinematic root (the pelvis) drops.

    Returns
    -------
    Array of shape ``(19, 3)`` for a single pose, ``(frames, 19, 3)`` for a
    sequence.  A single pose is computed as a batch of one.
    """
    single = isinstance(poses, Pose)
    batch = [poses] if single else list(poses)
    if not batch:
        return np.zeros((0, NUM_JOINTS, 3))
    offsets = skeleton.neutral_offsets()
    neutral_root = np.array([0.0, 0.0, skeleton.hip_height])
    roots = np.array(
        [
            neutral_root
            if pose.root_position is None
            else np.asarray(pose.root_position, dtype=float)
            for pose in batch
        ]
    )
    roots = roots + np.array([np.asarray(pose.root_offset, dtype=float) for pose in batch])

    identity = np.eye(3)
    positions = np.zeros((len(batch), NUM_JOINTS, 3))
    global_rotations: Dict[str, np.ndarray] = {}

    for name in JOINT_NAMES:
        parent = JOINT_PARENTS[name]
        # (frames, 3, 3), the identity where a pose sets none: multiplying
        # by it, as the frame alone would, keeps the bits (signed zeros too).
        local_rotation = np.array([pose.rotations.get(name, identity) for pose in batch])
        if parent == name:
            global_rotations[name] = local_rotation
            positions[:, JOINT_INDEX[name]] = roots
        else:
            parent_rotation = global_rotations[parent]
            global_rotations[name] = parent_rotation @ local_rotation
            positions[:, JOINT_INDEX[name]] = (
                positions[:, JOINT_INDEX[parent]] + parent_rotation @ offsets[name]
            )

    if keep_feet_on_ground:
        positions = ground_correction(positions)
    return positions[0] if single else positions


def ground_correction(positions: np.ndarray) -> np.ndarray:
    """Translate the skeleton vertically so the lowest foot touches the floor.

    ``positions`` is one frame ``(19, 3)`` or a stack ``(frames, 19, 3)``;
    every frame is shifted by its own lowest foot/ankle height.
    """
    positions = np.asarray(positions, dtype=float).copy()
    lowest = positions[..., _FOOT_INDICES, 2].min(axis=-1)
    positions[..., 2] -= lowest[..., None]
    return positions


def joint_velocities(trajectory: np.ndarray, frame_period: float) -> np.ndarray:
    """Per-joint velocity estimates from a joint-position trajectory.

    Parameters
    ----------
    trajectory:
        Array of shape ``(frames, 19, 3)``.
    frame_period:
        Time between consecutive frames in seconds.

    Returns
    -------
    Array of the same shape containing central-difference velocities in m/s.
    The first and last frames use forward/backward differences.
    """
    trajectory = np.asarray(trajectory, dtype=float)
    if trajectory.ndim != 3 or trajectory.shape[1:] != (NUM_JOINTS, 3):
        raise ValueError(
            f"trajectory must have shape (frames, {NUM_JOINTS}, 3), got {trajectory.shape}"
        )
    if frame_period <= 0:
        raise ValueError(f"frame_period must be positive, got {frame_period}")
    if trajectory.shape[0] < 2:
        return np.zeros_like(trajectory)

    velocities = np.gradient(trajectory, frame_period, axis=0)
    return velocities


def interpolate_poses(pose_a: Pose, pose_b: Pose, weight: float) -> Pose:
    """Linear blend of two poses (rotations blended then re-orthonormalized).

    Useful for smoothing transitions between repetitions of a movement.
    """
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"weight must be in [0, 1], got {weight}")
    joints: Iterable[str] = set(pose_a.rotations) | set(pose_b.rotations)
    rotations: Dict[str, np.ndarray] = {}
    for joint in joints:
        blended = (1.0 - weight) * pose_a.rotation_for(joint) + weight * pose_b.rotation_for(joint)
        # Project back onto SO(3) via SVD.
        u, _, vt = np.linalg.svd(blended)
        rotation = u @ vt
        if np.linalg.det(rotation) < 0:
            u[:, -1] *= -1
            rotation = u @ vt
        rotations[joint] = rotation
    if pose_a.root_position is None and pose_b.root_position is None:
        root = None
    else:
        root_a = pose_a.root_position if pose_a.root_position is not None else pose_b.root_position
        root_b = pose_b.root_position if pose_b.root_position is not None else pose_a.root_position
        root = (1.0 - weight) * np.asarray(root_a) + weight * np.asarray(root_b)
    offset = (1.0 - weight) * np.asarray(pose_a.root_offset) + weight * np.asarray(pose_b.root_offset)
    return Pose(rotations=rotations, root_position=root, root_offset=offset)
