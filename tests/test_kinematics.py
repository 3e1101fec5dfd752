import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softarm import kinematics
from softarm.geometry import RobotGeometry, SectionGeometry, default_geometry
from softarm.jacobian import jacobian
from softarm.kinematics import (
    SERIES_SWITCH,
    Pose,
    arc_coefficients,
    forward_kinematics,
    forward_kinematics_many,
    section_chain,
)
from softarm.rotations import rot_y, rot_z

from conftest import section_fields
from oracles import fk_reference, rotation_angle_between
from strategies import KINDS, actuator_vectors, with_straight_sections

GEOM = default_geometry()


def textbook_arc(l, sec):
    """End point and rotation of a section in its base frame from its arc
    parameters: bending angle phi, bending-plane angle theta by the
    two-argument arctangent, radius arc / phi; a Z translation when straight."""
    l1, l2, l3 = l
    arc = sec.initial_length + (l1 + l2 + l3) / 3.0
    dx, dy = l2 + l3 - 2.0 * l1, np.sqrt(3.0) * (l3 - l2)
    phi = np.hypot(dx, dy) / (3.0 * sec.radius)
    if phi == 0.0:
        return np.array([0.0, 0.0, arc]), np.eye(3)
    lam, Rz = arc / phi, rot_z(np.arctan2(dy, dx))
    return (Rz @ [lam * (1.0 - np.cos(phi)), 0.0, lam * np.sin(phi)],
            Rz @ rot_y(phi) @ Rz.T)


def first_section(l, radius=0.06, initial_length=0.15):
    """The proximal section record of elongations ``l`` on a geometry with
    no plate offset or twist, with its arc end and the arc's rotation (the
    next section's base rotation)."""
    sec = SectionGeometry(radius=radius, initial_length=initial_length,
                          plate_offset_length=0.0, plate_offset_angle=0.0)
    q = np.concatenate([l, np.zeros(6)])
    first, second = map(section_fields,
                        section_chain(q, RobotGeometry(sections=(sec, sec, sec)))[2][:2])
    return first, np.array(first.arc_end), np.array(second.base_rotation)


class TestActuatorToConfig:
    """The actuator-to-arc-parameter map, as :func:`section_chain` reports it:
    c = phi (cos theta, sin theta) and the arc length."""

    def test_straight_section(self):
        section = section_fields(section_chain(np.zeros(9), GEOM)[2][0])
        assert section.c == (0.0, 0.0)
        assert section.arc == pytest.approx(0.15)

    def test_single_actuator_bend_frozen_values(self):
        # Direct evaluation of the actuator->configuration map for
        # l = (0.01, 0, 0) on a 0.04 m radius section.
        section = first_section([0.01, 0.0, 0.0], radius=0.04)[0]
        phi = np.hypot(*section.c)
        assert phi == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert section.arc / phi == pytest.approx(0.92, rel=1e-12)
        assert np.arctan2(section.c[1], section.c[0]) == pytest.approx(np.pi, abs=1e-12)

    def test_equal_elongations_degenerate_to_straight(self):
        for c in (0.01, 0.05, 0.09):
            section = section_fields(section_chain(np.full(9, c), GEOM)[2][1])
            assert section.c == (0.0, 0.0)
            assert section.arc == pytest.approx(0.15 + c, rel=1e-12)

    def test_arc_length_identity(self):
        # The arc length is L0 + mean(l); on a bent section the chord from
        # the section's base to its arc end is 2 (arc / phi) sin(phi / 2).
        rng = np.random.default_rng(3)
        for i, sec in enumerate(GEOM.sections):
            base = np.array([0.0, 0.0, sum(s.initial_length + s.plate_offset_length
                                           for s in GEOM.sections[:i])])
            for _ in range(50):
                l = rng.uniform(0.0, 0.1, 3)
                q = np.zeros(9)
                q[3 * i:3 * i + 3] = l
                section = section_fields(section_chain(q, GEOM)[2][i])
                expected = sec.initial_length + l.mean()
                phi = np.hypot(*section.c)
                if phi > 0.0:
                    chord = np.linalg.norm(np.array(section.arc_end) - base)
                    assert chord == pytest.approx(2 * expected / phi * np.sin(phi / 2),
                                                  rel=1e-12)
                assert section.arc == pytest.approx(expected, rel=1e-12)

    def test_theta_covers_full_range(self):
        thetas = []
        for l in ([0.01, 0, 0], [0, 0.01, 0], [0, 0, 0.01],
                  [0, 0.01, 0.01], [0.01, 0, 0.01], [0.01, 0.01, 0]):
            c0, c1 = section_fields(section_chain(np.concatenate([l, np.zeros(6)]), GEOM)[2][0]).c
            thetas.append(np.arctan2(c1, c0))
        assert min(thetas) < -np.pi / 2
        assert max(thetas) > np.pi / 2


class TestConfigToTransform:
    """The section transform from its arc parameters: the arc end point and
    rotation that :func:`section_chain` chains."""

    def test_straight_is_pure_z_translation(self):
        _, position, rotation = first_section([0.0, 0.0, 0.0])
        np.testing.assert_allclose(position, [0.0, 0.0, 0.15], atol=1e-15)
        np.testing.assert_allclose(rotation, np.eye(3), atol=1e-15)

    def test_quarter_circle_frozen_values(self):
        # Hand expansion of the conjugated composition at theta=0,
        # phi=pi/2, lam=0.1: endpoint (0.1, 0, 0.1), frame Rot_y(pi/2).
        # On a 0.04 m radius, l = (0, d, d) with d = 0.03 pi bends by
        # 2 d / 0.12 = pi/2 and L0 = 0.03 pi makes the arc 0.05 pi.
        d = 0.03 * np.pi
        _, position, rotation = first_section([0.0, d, d], radius=0.04, initial_length=d)
        np.testing.assert_allclose(position, [0.1, 0.0, 0.1], atol=1e-15)
        np.testing.assert_allclose(rotation, rot_y(np.pi / 2), atol=1e-15)

    def test_theta_pi_negates_x(self):
        # phi = 0.8 and arc 0.16 on a 0.025 m radius: l = (0, d, d) bends
        # toward +x, l = (4d/3, d/3, d/3) as far toward -x, same mean.
        d = 0.03
        p0 = first_section([0.0, d, d], radius=0.025, initial_length=0.14)[1]
        p1 = first_section([4 * d / 3, d / 3, d / 3], radius=0.025, initial_length=0.14)[1]
        assert p1[0] == pytest.approx(-p0[0], rel=1e-12)
        assert p1[2] == pytest.approx(p0[2], rel=1e-12)


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
            arc_end, arc_rotation = textbook_arc(q[3 * i:3 * i + 3], sec)
            position = position + rotation @ arc_end
            rotation = rotation @ arc_rotation
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
        section = section_fields(section_chain(q, GEOM)[2][2])
        base = np.array([0.0, 0.0, sum(s.initial_length + s.plate_offset_length
                                       for s in GEOM.sections[:2])])
        local_end = np.array(section.base_rotation).T @ (np.array(section.arc_end) - base)
        np.testing.assert_allclose(local_end, textbook_arc(q[6:9], sec)[0], atol=1e-12)


class TestGeometryConstants:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2).flatmap(with_straight_sections))
    def test_equal_geometries_give_identical_fk_and_jacobian(self, q):
        geom, other = default_geometry(), default_geometry()
        assert geom == other and geom is not other
        for a, b in ((forward_kinematics(q, geom), forward_kinematics(q, other)),
                     (forward_kinematics(q, geom), forward_kinematics(q, GEOM))):
            assert a.position.tobytes() == b.position.tobytes()
            assert a.rotation.tobytes() == b.rotation.tobytes()
        assert jacobian(q, geom).J.tobytes() == jacobian(q, other).J.tobytes()
        assert jacobian(q, geom).J.tobytes() == jacobian(q, GEOM).J.tobytes()


def _fk_bytes(q, geom):
    pose = forward_kinematics(q, geom)
    return pose.position.tobytes() + pose.rotation.tobytes()


def _jacobian_bytes(q, geom):
    return jacobian(q, geom).J.tobytes()


#: One geometry for the whole session, so its kept walk outlives each example.
_LONG_LIVED = default_geometry()


class TestSharedWalk:
    """The geometry keeps the last walk of :func:`section_chain`; what FK and
    the Jacobian read from it must be what a fresh walk gives."""

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("new", "edit", "repeat")),
                              actuator_vectors(kinds=st.lists(
                                  st.sampled_from(KINDS + ("straight",)),
                                  min_size=3, max_size=3)),
                              st.integers(0, 8), st.booleans()),
                    min_size=1, max_size=8))
    def test_long_lived_geometry_matches_a_fresh_one(self, calls):
        # "new" passes another array, "edit" changes one entry of the same
        # array in place, "repeat" passes the same array unchanged. Straight
        # sections are drawn twice as often, so some calls are fully straight.
        q = np.full(9, 0.05)
        for action, drawn, i, jacobian_first in calls:
            if action == "new":
                q = drawn.copy()
            elif action == "edit":
                q[i] = drawn[i]
            order = (_jacobian_bytes, _fk_bytes) if jacobian_first else (_fk_bytes,
                                                                        _jacobian_bytes)
            for compute in order:
                assert compute(q, _LONG_LIVED) == compute(q, default_geometry())

    def test_same_configuration_walks_once(self):
        geom = default_geometry()
        q = np.random.default_rng(21).uniform(0.0, 0.1, 9)
        walk = section_chain(q, geom)
        assert isinstance(walk[2], tuple)
        assert section_chain(q.copy(), geom) is walk
        assert section_chain(q.tolist(), geom) is walk
        q[3] += 1e-12
        assert section_chain(q, geom) is not walk

    def test_fully_straight_jacobian_on_a_hit(self):
        # The Jacobian read from the walk FK kept is the one a fresh
        # geometry gives, at a configuration with every section straight.
        geom = default_geometry()
        q = np.full(9, 0.05)
        forward_kinematics(q, geom)
        walk = section_chain(q, geom)
        for _ in range(2):
            assert _jacobian_bytes(q, geom) == _jacobian_bytes(q, default_geometry())
        assert section_chain(q, geom) is walk

    def test_failed_walk_keeps_the_last_one(self):
        geom = default_geometry()
        q = np.full(9, 0.04)
        walk = section_chain(q, geom)
        with pytest.raises(ValueError, match="finite"):
            section_chain(np.full(9, np.nan), geom)
        assert section_chain(q, geom) is walk


def lane_coefficients(*phi2):
    """arc_coefficients of each phi2, through the lane form in one batch."""
    return list(zip(*(x.tolist() for x in kinematics._arc_coefficients_many(np.array(phi2)))))


class TestArcCoefficients:
    def test_closed_forms_above_the_series_switch(self):
        phis = (0.3, 0.5, 1.0, 2.0)
        lanes = lane_coefficients(*(phi * phi for phi in phis))
        for phi, lane in zip(phis, lanes, strict=True):
            a, b, g, alpha, beta = arc_coefficients(phi * phi)
            assert lane == (a, b, g, alpha, beta)
            s, c = np.sin(phi), np.cos(phi)
            assert a == pytest.approx(s / phi, rel=1e-14)
            assert b == pytest.approx((1 - c) / phi**2, rel=1e-12)
            assert g == pytest.approx((phi - s) / phi**3, rel=1e-12)
            assert alpha == pytest.approx((phi * c - s) / phi**3, rel=1e-12)
            assert beta == pytest.approx((phi * s - 2 * (1 - c)) / phi**4, rel=1e-11)

    def test_limits_at_straight(self):
        assert arc_coefficients(0.0) == (1.0, 0.5, 1 / 6, 1 / 6 - 0.5, -1 / 12)
        # A bent lane beside it, so the batch takes both forms.
        assert lane_coefficients(0.0, 1.0) == [arc_coefficients(0.0), arc_coefficients(1.0)]

    def test_continuous_across_the_series_switch(self):
        below = arc_coefficients(np.nextafter(SERIES_SWITCH, 0.0))
        above = arc_coefficients(SERIES_SWITCH)
        lanes = lane_coefficients(np.nextafter(SERIES_SWITCH, 0.0), SERIES_SWITCH)
        assert lanes == [below, above]
        for lo, hi in zip(below, above):
            assert abs(hi - lo) <= 1e-10 * abs(hi)


class TestOnePassPerPose:
    QS = np.random.default_rng(21).uniform(0.0, 0.1, (12, 9))

    def test_fk_checks_its_rotation_once(self, monkeypatch):
        # A walk the geometry kept and a fresh one: each FK call makes one
        # drift-and-determinant pass, its own, and Pose() makes none. Pose()
        # checks through the same function, so a second pass would count.
        passes = []
        monkeypatch.setattr(kinematics, "rows_drift_and_det",
                            lambda rows, f=kinematics.rows_drift_and_det:
                            passes.append(1) or f(rows))
        for q in self.QS:
            forward_kinematics(q, GEOM)
            forward_kinematics(q, GEOM)
        assert len(passes) == 2 * len(self.QS)

    def test_fk_arrays_are_those_pose_builds(self):
        for q in self.QS:
            pose = forward_kinematics(q, GEOM)
            position, rows, _ = section_chain(q, GEOM)
            reference = Pose(position, np.array(rows))
            for got, want in ((pose.position, reference.position),
                              (pose.rotation, reference.rotation)):
                assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape,
                                                               want.strides)
                assert (got.flags.c_contiguous, got.flags.f_contiguous,
                        got.flags.writeable) == (want.flags.c_contiguous,
                                                 want.flags.f_contiguous,
                                                 want.flags.writeable)
                assert got.tobytes() == want.tobytes()

    def test_fk_still_rejects_an_improper_rotation(self, monkeypatch):
        def reflected(q, geom):
            position, (r0, r1, r2), sections = section_chain(q, geom)
            return position, (r0, r1, tuple(-x for x in r2)), sections

        monkeypatch.setattr(kinematics, "section_chain", reflected)
        with pytest.raises(ValueError, match="proper"):
            forward_kinematics(self.QS[0], GEOM)

    def test_fk_rejects_a_drifted_rotation(self, monkeypatch):
        # FK keeps the rotation its walk gives: one that drifts past the
        # Pose tolerance raises rather than being re-orthonormalized.
        def drifted(q, geom):
            position, (r0, r1, r2), sections = section_chain(q, geom)
            return position, (r0, r1, tuple(1.001 * x for x in r2)), sections

        monkeypatch.setattr(kinematics, "section_chain", drifted)
        with pytest.raises(ValueError, match="not orthonormal"):
            forward_kinematics(self.QS[0], GEOM)


def assert_each_lane_is_scalar(qs):
    """Each lane of the batch is the scalar Pose of its row, byte for byte."""
    positions, rotations = forward_kinematics_many(qs, GEOM)
    assert (positions.shape, rotations.shape) == ((len(qs), 3), (len(qs), 3, 3))
    for position, rotation, q in zip(positions, rotations, qs, strict=True):
        want = forward_kinematics(q, GEOM)
        for a, b in ((position, want.position), (rotation, want.rotation)):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestForwardKinematicsMany:
    """The batch kernel gives each configuration's scalar pose as stacked
    arrays, byte for byte, and divides by no zero on the way."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(actuator_vectors(), min_size=1, max_size=12))
    def test_each_pose_is_the_scalar_one(self, qs):
        # Bent, exactly straight and near-straight sections share a batch,
        # so series and closed-form lanes run side by side.
        assert_each_lane_is_scalar(np.array(qs))

    def test_empty_and_single_batches(self):
        assert_each_lane_is_scalar(np.empty((0, 9)))
        assert_each_lane_is_scalar(np.tile([0.03, 0.06, 0.05], 3)[None])

    def test_series_switch_straight_and_outside_the_box(self):
        # The proximal section bent to phi^2 on both sides of SERIES_SWITCH,
        # near and at a hair from it (l2 = l3 gives c = (phi, 0)), the fully
        # straight and the zero configuration, and elongations outside the
        # limit box.
        radius = GEOM.sections[0].radius
        scales = (0.9, 1 - 1e-9, 1.0, 1 + 1e-9, 1.1)
        qs = np.full((len(scales) + 2, 9), 0.05)
        for row, scale in enumerate(scales):
            qs[row, 1:3] += 1.5 * radius * np.sqrt(SERIES_SWITCH) * scale
        qs[-2] = 0.0
        qs[-1] = np.linspace(-0.05, 0.2, 9)
        phi2 = [section_fields(section_chain(q, GEOM)[2][0]).c[0] ** 2 for q in qs[:len(scales)]]
        assert phi2[1] < SERIES_SWITCH < phi2[3]
        assert_each_lane_is_scalar(qs)

    @pytest.mark.parametrize("index, value, message", [(0, np.nan, "not orthonormal"),
                                                      (0, 1e-6, "not orthonormal"),
                                                      (1, -1.0, "proper")],
                             ids=["nan-drift", "drifted", "reflected"])
    def test_a_lane_that_fails_the_check_raises(self, monkeypatch, index, value, message):
        # Lane 1 of three fails on the batch's own drift or determinant.
        qs = np.random.default_rng(16).uniform(0.0, 0.1, (3, 9))
        check = kinematics.rows_drift_and_det

        def corrupted(rows, sqrt):
            drift_and_det = check(rows, sqrt)
            drift_and_det[index][1] = value
            return drift_and_det

        monkeypatch.setattr(kinematics, "rows_drift_and_det", corrupted)
        with pytest.raises(ValueError, match=message):
            forward_kinematics_many(qs, GEOM)

    @pytest.mark.parametrize("qs", [np.full(9, 0.05), np.zeros((2, 8)), np.zeros((1, 2, 9)),
                                    np.array([[0.05] * 8 + [np.nan]])],
                             ids=["one-vector", "eight-columns", "three-axes", "nan"])
    def test_rejects_what_is_not_a_batch(self, qs):
        with pytest.raises(ValueError, match="actuator"):
            forward_kinematics_many(qs, GEOM)


class TestPose:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.eye(3) + 1e-3)

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rotation(self, value):
        rotation = np.eye(3)
        rotation[1, 2] = value
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(np.zeros(3), rotation)
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(np.zeros(3), np.full((3, 3), value))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_position(self, value):
        with pytest.raises(ValueError, match="position must be finite"):
            Pose([0.0, value, 0.0], np.eye(3))

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
