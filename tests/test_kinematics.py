import numpy as np
import pytest
from hypothesis import given, settings

from softarm import kinematics
from softarm.geometry import RobotGeometry, SectionGeometry, default_geometry
from softarm.kinematics import (
    SERIES_SWITCH,
    Pose,
    SectionConfig,
    actuator_to_config,
    arc_coefficients,
    config_to_transform,
    forward_kinematics,
)
from softarm.rotations import orthonormalize, rot_y, rot_z

from oracles import fk_reference, rotation_angle_between
from strategies import actuator_vectors

GEOM = default_geometry()


class TestActuatorToConfig:
    def test_straight_section(self):
        cfg = actuator_to_config([0.0, 0.0, 0.0], GEOM.sections[0])
        assert cfg.is_straight
        assert cfg.phi == 0.0 and cfg.theta == 0.0
        assert cfg.arc_length == pytest.approx(0.15)

    def test_single_actuator_bend_frozen_values(self):
        # Direct evaluation of the actuator->configuration map for
        # l = (0.01, 0, 0) on a 0.04 m radius section.
        sec = SectionGeometry(radius=0.04)
        cfg = actuator_to_config([0.01, 0.0, 0.0], sec)
        assert cfg.s == pytest.approx(0.01, rel=1e-12)
        assert cfg.phi == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert cfg.lam == pytest.approx(0.92, rel=1e-12)
        assert cfg.theta == pytest.approx(np.pi, abs=1e-12)

    def test_equal_elongations_degenerate_to_straight(self):
        for c in (0.01, 0.05, 0.09):
            cfg = actuator_to_config([c, c, c], GEOM.sections[1])
            assert cfg.is_straight
            assert cfg.arc_length == pytest.approx(0.15 + c, rel=1e-12)

    def test_arc_length_identity(self):
        rng = np.random.default_rng(3)
        for sec in GEOM.sections:
            for _ in range(50):
                l = rng.uniform(0.0, 0.1, 3)
                cfg = actuator_to_config(l, sec)
                expected = sec.initial_length + l.mean()
                if not cfg.is_straight:
                    assert cfg.lam * cfg.phi == pytest.approx(expected, rel=1e-12)
                assert cfg.arc_length == pytest.approx(expected, rel=1e-12)

    def test_theta_covers_full_range(self):
        sec = GEOM.sections[0]
        thetas = []
        for l in ([0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01],
                  [0, 0.01, 0.01], [0.01, 0, 0.01], [0.01, 0.01, 0]):
            thetas.append(actuator_to_config(l, sec).theta)
        assert min(thetas) < -np.pi / 2
        assert max(thetas) > np.pi / 2


class TestConfigToTransform:
    def test_straight_is_pure_z_translation(self):
        cfg = actuator_to_config([0.0, 0.0, 0.0], GEOM.sections[0])
        pose = config_to_transform(cfg)
        np.testing.assert_allclose(pose.position, [0.0, 0.0, 0.15], atol=1e-15)
        np.testing.assert_allclose(pose.rotation, np.eye(3), atol=1e-15)

    def test_quarter_circle_frozen_values(self):
        # Hand expansion of the conjugated composition at theta=0,
        # phi=pi/2, lam=0.1: endpoint (0.1, 0, 0.1), frame Rot_y(pi/2).
        cfg = SectionConfig(s=1.0, phi=np.pi / 2, lam=0.1, theta=0.0,
                            arc_length=0.1 * np.pi / 2)
        pose = config_to_transform(cfg)
        np.testing.assert_allclose(pose.position, [0.1, 0.0, 0.1], atol=1e-15)
        np.testing.assert_allclose(pose.rotation, rot_y(np.pi / 2), atol=1e-15)

    def test_theta_pi_negates_x(self):
        base = SectionConfig(s=1.0, phi=0.8, lam=0.2, theta=0.0, arc_length=0.16)
        flipped = SectionConfig(s=1.0, phi=0.8, lam=0.2, theta=np.pi, arc_length=0.16)
        p0 = config_to_transform(base).position
        p1 = config_to_transform(flipped).position
        assert p1[0] == pytest.approx(-p0[0], rel=1e-12)
        assert p1[2] == pytest.approx(p0[2], rel=1e-12)

    def test_continuous_at_straight_limit(self):
        length = 0.15
        phi = 1e-8
        bent = SectionConfig(s=1e-8, phi=phi, lam=length / phi, theta=0.3,
                             arc_length=length)
        sentinel = SectionConfig(s=0.0, phi=0.0, lam=np.inf, theta=0.0,
                                 arc_length=length)
        p_bent = config_to_transform(bent)
        p_straight = config_to_transform(sentinel)
        assert np.linalg.norm(p_bent.position - p_straight.position) < 1e-6
        assert rotation_angle_between(p_bent.rotation, p_straight.rotation) < 1e-6


class TestForwardKinematics:
    def test_straight_stack(self):
        pose = forward_kinematics(np.zeros(9), GEOM)
        np.testing.assert_allclose(pose.position, [0.0, 0.0, 0.51], atol=1e-15)
        np.testing.assert_allclose(pose.rotation, rot_z(2 * np.pi / 3), atol=1e-15)

    def test_matches_manual_section_chain(self):
        q = np.zeros(9)
        q[0] = 0.01  # single-section bend
        pose = forward_kinematics(q, GEOM)
        position = np.zeros(3)
        rotation = np.eye(3)
        for i, sec in enumerate(GEOM.sections):
            T = config_to_transform(actuator_to_config(q[3 * i:3 * i + 3], sec))
            position = position + rotation @ T.position
            rotation = rotation @ T.rotation
            position = position + rotation @ np.array([0, 0, sec.plate_offset_length])
            rotation = rotation @ rot_z(sec.plate_offset_angle)
        np.testing.assert_allclose(pose.position, position, atol=1e-14)
        np.testing.assert_allclose(pose.rotation, rotation, atol=1e-14)

    def test_rotation_orthonormal_over_random_configs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = rng.uniform(0.0, 0.1, 9)
            R = forward_kinematics(q, GEOM).rotation
            assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9

    def test_position_bounded_by_total_arc_length(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = rng.uniform(0.0, 0.1, 9)
            bound = sum(
                sec.initial_length + q[3 * i:3 * i + 3].mean() + sec.plate_offset_length
                for i, sec in enumerate(GEOM.sections))
            assert np.linalg.norm(forward_kinematics(q, GEOM).position) <= bound + 1e-12

    def test_agrees_with_segment_sampled_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            q = rng.uniform(0.005, 0.095, 9)
            pose = forward_kinematics(q, GEOM)
            p_ref, R_ref = fk_reference(q, GEOM)
            assert np.linalg.norm(pose.position - p_ref) < 1e-6
            assert rotation_angle_between(pose.rotation, R_ref) < 1e-6

    def test_geometry_must_have_three_sections(self):
        two = RobotGeometry(sections=GEOM.sections[:2])
        with pytest.raises(ValueError, match="3 sections"):
            forward_kinematics(np.full(9, 0.05), two)

    def test_drifted_rotation_is_reorthonormalized(self, monkeypatch):
        qs = np.random.default_rng(14).uniform(0.0, 0.1, (19, 9))
        poses = [forward_kinematics(q, GEOM) for q in qs]
        fixed = []
        monkeypatch.setattr(kinematics, "FK_DRIFT_TOL", 0.0)
        monkeypatch.setattr(kinematics, "orthonormalize",
                            lambda R: fixed.append(R) or orthonormalize(R))
        for q, pose in zip(qs, poses):
            pose_fixed = forward_kinematics(q, GEOM)
            np.testing.assert_array_equal(pose_fixed.position, pose.position)
            np.testing.assert_allclose(pose_fixed.rotation, pose.rotation, rtol=0.0,
                                       atol=1e-15)
            rotation = pose_fixed.rotation
            assert np.linalg.norm(rotation.T @ rotation - np.eye(3)) < 1e-14
            assert np.linalg.det(rotation) > 0.0
        assert len(fixed) == len(qs)

    @settings(max_examples=60, deadline=None)
    @given(actuator_vectors())
    def test_matches_segment_sampled_reference(self, q):
        # Includes exactly straight and near-straight sections.
        pose = forward_kinematics(q, GEOM)
        p_ref, R_ref = fk_reference(q, GEOM)
        assert np.linalg.norm(pose.position - p_ref) < 1e-6
        assert rotation_angle_between(pose.rotation, R_ref) < 1e-6

    def test_single_section_arc_endpoint(self):
        # Pure bend of the distal section only: endpoint of that section is
        # the textbook circular arc rotated into the bending plane.
        q = np.zeros(9)
        q[6] = 0.03
        sec = GEOM.sections[2]
        cfg = actuator_to_config(q[6:9], sec)
        pose = config_to_transform(cfg)
        arc_endpoint = np.array([
            cfg.lam * (1 - np.cos(cfg.phi)), 0.0, cfg.lam * np.sin(cfg.phi)])
        np.testing.assert_allclose(pose.position, rot_z(cfg.theta) @ arc_endpoint,
                                   atol=1e-12)


class TestArcCoefficients:
    def test_closed_forms_above_the_series_switch(self):
        for phi in (0.3, 0.5, 1.0, 2.0):
            a, b, g, alpha, beta = arc_coefficients(phi * phi)
            s, c = np.sin(phi), np.cos(phi)
            assert a == pytest.approx(s / phi, rel=1e-14)
            assert b == pytest.approx((1 - c) / phi**2, rel=1e-12)
            assert g == pytest.approx((phi - s) / phi**3, rel=1e-12)
            assert alpha == pytest.approx((phi * c - s) / phi**3, rel=1e-12)
            assert beta == pytest.approx((phi * s - 2 * (1 - c)) / phi**4, rel=1e-11)

    def test_limits_at_straight(self):
        assert arc_coefficients(0.0) == (1.0, 0.5, 1 / 6, 1 / 6 - 0.5, -1 / 12)

    def test_continuous_across_the_series_switch(self):
        below = arc_coefficients(np.nextafter(SERIES_SWITCH, 0.0))
        above = arc_coefficients(SERIES_SWITCH)
        for lo, hi in zip(below, above):
            assert abs(hi - lo) <= 1e-10 * abs(hi)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.eye(3) + 1e-3)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.diag([1.0, 1.0, -1.0]))

    def test_compose_inverse_round_trip(self):
        rng = np.random.default_rng(5)
        a = Pose(rng.normal(size=3), rot_z(0.3) @ rot_y(1.1))
        b = Pose(rng.normal(size=3), rot_y(-0.7) @ rot_z(0.2))
        ab = a.compose(b)
        back = a.inverse().compose(ab)
        np.testing.assert_allclose(back.position, b.position, atol=1e-12)
        np.testing.assert_allclose(back.rotation, b.rotation, atol=1e-12)

    def test_transform_point(self):
        pose = Pose([1.0, 0.0, 0.0], rot_z(np.pi / 2))
        np.testing.assert_allclose(pose.transform_point([1.0, 0.0, 0.0]),
                                   [1.0, 1.0, 0.0], atol=1e-15)
