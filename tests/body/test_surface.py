"""Tests for the body-surface scattering model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.body.motion import MotionSynthesizer
from repro.body.skeleton import SKELETON_EDGES
from repro.body.surface import BodyScatteringModel


@pytest.fixture(scope="module")
def posed_frame():
    from repro.body.subjects import default_subjects

    subject = default_subjects()[0]
    trajectory = MotionSynthesizer().synthesize(
        subject, "squat", 3.0, rng=np.random.default_rng(0)
    )
    return trajectory.frame(15)


class TestScatteringModel:
    def test_scatterer_count(self, posed_frame, rng):
        positions, velocities = posed_frame
        model = BodyScatteringModel(points_per_segment=6)
        scatterers = model.scatterers(positions, velocities, rng)
        assert len(scatterers) == 6 * len(SKELETON_EDGES)

    def test_scatterer_array_shapes(self, posed_frame, rng):
        positions, velocities = posed_frame
        model = BodyScatteringModel(points_per_segment=4)
        pos, vel, rcs = model.scatterer_array(positions, velocities, rng)
        expected = 4 * len(SKELETON_EDGES)
        assert pos.shape == (expected, 3)
        assert vel.shape == (expected, 3)
        assert rcs.shape == (expected,)

    def test_rcs_positive(self, posed_frame, rng):
        positions, velocities = posed_frame
        _, _, rcs = BodyScatteringModel().scatterer_array(positions, velocities, rng)
        assert np.all(rcs > 0)

    def test_torso_reflects_more_than_wrist(self, posed_frame, rng):
        positions, velocities = posed_frame
        scatterers = BodyScatteringModel(points_per_segment=8).scatterers(positions, velocities, rng)
        torso = np.mean([s.rcs for s in scatterers if s.segment == "spine_mid"])
        wrist = np.mean([s.rcs for s in scatterers if s.segment == "wrist_left"])
        assert torso > 2.0 * wrist

    def test_scatterers_close_to_body(self, posed_frame, rng):
        positions, velocities = posed_frame
        pos, _, _ = BodyScatteringModel().scatterer_array(positions, velocities, rng)
        # Every scatterer must lie within half a metre of some joint.
        distances = np.linalg.norm(pos[:, None, :] - positions[None, :, :], axis=2).min(axis=1)
        assert distances.max() < 0.5

    def test_reflectivity_scales_rcs(self, posed_frame, rng):
        positions, velocities = posed_frame
        dim = BodyScatteringModel(reflectivity=0.5)
        bright = BodyScatteringModel(reflectivity=2.0)
        _, _, rcs_dim = dim.scatterer_array(positions, velocities, np.random.default_rng(1))
        _, _, rcs_bright = bright.scatterer_array(positions, velocities, np.random.default_rng(1))
        assert rcs_bright.mean() > 2.0 * rcs_dim.mean()

    def test_velocities_interpolated_from_joints(self, posed_frame, rng):
        positions, velocities = posed_frame
        scatterers = BodyScatteringModel().scatterers(positions, velocities, rng)
        max_joint_speed = np.linalg.norm(velocities, axis=1).max()
        for scatterer in scatterers:
            assert np.linalg.norm(scatterer.velocity) <= max_joint_speed + 1e-9

    def test_shape_mismatch_raises(self, posed_frame, rng):
        positions, velocities = posed_frame
        with pytest.raises(ValueError):
            BodyScatteringModel().scatterers(positions, velocities[:-1], rng)

    def test_invalid_configuration_raises(self):
        with pytest.raises(ValueError):
            BodyScatteringModel(points_per_segment=0)
        with pytest.raises(ValueError):
            BodyScatteringModel(surface_noise=-0.1)
        with pytest.raises(ValueError):
            BodyScatteringModel(reflectivity=0.0)
