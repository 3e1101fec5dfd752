from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from softarm.geometry import default_geometry
from softarm.kinematics import Pose, forward_kinematics
from softarm.rotations import rot_x, rotvec_to_matrix
from softarm.vision import (
    BerryTarget,
    _ee_blocks_ray,
    FrameRegistry,
    berry_to_base,
    build_registry,
    cam1_target_to_base,
    look_at,
    simulate_observation,
)

GEOM = default_geometry()


class TestFrameChains:
    def test_identity_transforms_pass_through(self):
        registry = FrameRegistry(base_in_cam1=Pose(np.zeros(3), np.eye(3)),
                                 cam2_in_ee=Pose(np.zeros(3), np.eye(3)))
        p = np.array([0.1, 0.2, 0.3])
        target = BerryTarget(position_c2=p)
        out = berry_to_base(target, Pose(np.zeros(3), np.eye(3)), registry)
        np.testing.assert_allclose(out, p, atol=1e-15)

    def test_round_trip_through_simulated_frames(self):
        registry = build_registry()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(0.01, 0.09, 9)
            ee = forward_kinematics(q, GEOM)
            berry = rng.uniform([-0.2, 0.1, 0.2], [0.2, 0.35, 0.5])
            target = simulate_observation(berry, ee, registry)
            recovered = berry_to_base(target, ee, registry)
            worst = max(worst, float(np.linalg.norm(recovered - berry)))
        assert worst < 1e-10

    def test_cam1_target_round_trip(self):
        registry = build_registry()
        berry = np.array([0.05, 0.25, 0.4])
        ee = forward_kinematics(np.tile([0.051, 0.05, 0.049], 3), GEOM)
        target = simulate_observation(berry, ee, registry)
        recovered = cam1_target_to_base(target, registry)
        np.testing.assert_allclose(recovered, berry, atol=1e-10)

    def test_no_fix_is_none(self):
        # Holding a lost fix is the caller's rule; a camera without one
        # reports nothing.
        registry = build_registry()
        berry = np.array([0.0, 0.25, 0.35])
        ee = forward_kinematics(np.tile([0.051, 0.05, 0.049], 3), GEOM)
        target = replace(simulate_observation(berry, ee, registry, force_c1_occluded=True),
                         position_c2=None)
        assert berry_to_base(target, ee, registry) is None
        assert cam1_target_to_base(target, registry) is None


class TestOcclusionRule:
    def test_ee_between_camera_and_berry_blocks_c1(self):
        registry = build_registry(cam1_position=(0.0, -1.2, 0.35),
                                  cam1_target=(0.0, 0.25, 0.35))
        berry = np.array([0.0, 0.25, 0.35])
        # end-effector sitting right on the line of sight
        ee = Pose([0.0, 0.20, 0.35], np.eye(3))
        target = simulate_observation(berry, ee, registry)
        assert target.position_c1 is None
        assert target.position_c2 is not None

    def test_offset_ee_does_not_block(self):
        registry = build_registry(cam1_position=(0.0, -1.2, 0.35),
                                  cam1_target=(0.0, 0.25, 0.35))
        berry = np.array([0.0, 0.25, 0.35])
        ee = Pose([0.0, 0.20, 0.45], np.eye(3))  # 10 cm above the ray
        target = simulate_observation(berry, ee, registry)
        assert target.position_c1 is not None

    def test_ee_behind_berry_does_not_block(self):
        registry = build_registry(cam1_position=(0.0, -1.2, 0.35),
                                  cam1_target=(0.0, 0.25, 0.35))
        berry = np.array([0.0, 0.25, 0.35])
        ee = Pose([0.0, 0.40, 0.35], np.eye(3))  # beyond the berry
        target = simulate_observation(berry, ee, registry)
        assert target.position_c1 is not None

    def test_noise_is_seeded(self):
        registry = build_registry()
        berry = np.array([0.0, 0.25, 0.35])
        ee = Pose([0.0, 0.1, 0.45], np.eye(3))
        a = simulate_observation(berry, ee, registry, noise_std=1e-3,
                                 rng=np.random.default_rng(9))
        b = simulate_observation(berry, ee, registry, noise_std=1e-3,
                                 rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.position_c2, b.position_c2)
        exact = simulate_observation(berry, ee, registry)
        assert np.linalg.norm(a.position_c2 - exact.position_c2) > 1e-5

    @pytest.mark.parametrize("force_c1_occluded", [False, True], ids=["both", "c2-only"])
    def test_noise_without_an_rng_raises(self, force_c1_occluded):
        # A noise level with no generator once returned exact fixes.
        registry = build_registry()
        berry = np.array([0.0, 0.25, 0.35])
        ee = Pose([0.0, 0.1, 0.45], np.eye(3))
        with pytest.raises(AttributeError):
            simulate_observation(berry, ee, registry, noise_std=1e-3,
                                 force_c1_occluded=force_c1_occluded)
        exact = simulate_observation(berry, ee, registry, noise_std=0.0,
                                     force_c1_occluded=force_c1_occluded)
        assert exact.position_c2 is not None


def _points(low, high):
    return st.lists(st.floats(low, high), min_size=3, max_size=3).map(np.array)


def _poses(low, high):
    return st.builds(lambda p, w: Pose(p, rotvec_to_matrix(w)), _points(low, high),
                     _points(-np.pi / 2, np.pi / 2))


@st.composite
def _registries(draw):
    """A ``build_registry`` layout, with a C2 mount that is sometimes rotated
    (the bundled layouts mount it unrotated)."""
    cam1_position, cam1_target = draw(_points(-1.5, 1.5)), draw(_points(-0.5, 0.5))
    assume(np.linalg.norm(cam1_target - cam1_position) > 0.1)
    registry = build_registry(cam1_position, cam1_target, draw(_points(-0.05, 0.05)))
    mount = draw(st.none() | _points(-0.5, 0.5))
    if mount is None:
        return registry
    return replace(registry, cam2_in_ee=Pose(registry.cam2_in_ee.position,
                                             rotvec_to_matrix(mount)))


def _observe_with_poses(berry, ee_pose, registry, noise_std, rng):
    """simulate_observation as Pose.compose, Pose.inverse and
    Pose.transform_point write it."""
    cam1_in_base = registry.base_in_cam1.inverse()
    position_c1 = None
    if not _ee_blocks_ray(cam1_in_base.position, berry, ee_pose.position):
        position_c1 = (registry.base_in_cam1.transform_point(berry)
                       + rng.normal(0.0, noise_std, 3))
    position_c2 = (ee_pose.compose(registry.cam2_in_ee).inverse().transform_point(berry)
                   + rng.normal(0.0, noise_std, 3))
    return position_c1, position_c2


def _same_bytes(actual, expected):
    if expected is None:
        assert actual is None
        return
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


class TestPoseFreeChains:
    """The camera chains run on arrays; their bits are those of the Pose
    expressions they stand for."""

    @settings(max_examples=150, deadline=None)
    @given(ee_pose=_poses(-0.6, 0.6), berry=_points(-0.6, 0.6), registry=_registries(),
           noise_std=st.sampled_from([0.0, 1e-3]), seed=st.integers(0, 2**32 - 1))
    def test_simulate_observation_matches_the_pose_chain(self, ee_pose, berry, registry,
                                                         noise_std, seed):
        target = simulate_observation(berry, ee_pose, registry, noise_std=noise_std,
                                      rng=np.random.default_rng(seed))
        position_c1, position_c2 = _observe_with_poses(berry, ee_pose, registry, noise_std,
                                                       np.random.default_rng(seed))
        _same_bytes(target.position_c1, position_c1)
        _same_bytes(target.position_c2, position_c2)

    @settings(max_examples=150, deadline=None)
    @given(ee_pose=_poses(-1.5, 1.5), fix=_points(-0.3, 0.3), registry=_registries())
    def test_berry_to_base_matches_the_pose_chain(self, ee_pose, fix, registry):
        expected = ee_pose.compose(registry.cam2_in_ee).transform_point(fix)
        _same_bytes(berry_to_base(BerryTarget(position_c2=fix), ee_pose, registry),
                    expected)

    def test_chains_build_no_pose(self, monkeypatch):
        registry = build_registry()
        ee_pose = Pose([0.0, 0.1, 0.45], rot_x(0.3))
        target = simulate_observation([0.0, 0.25, 0.35], ee_pose, registry)
        # The registry's C1 inverse is built once, on the first call.
        built = []
        monkeypatch.setattr(Pose, "__post_init__", lambda pose: built.append(pose))
        monkeypatch.setattr(Pose, "_checked", classmethod(lambda cls, *args: built.append(args)))
        simulate_observation([0.0, 0.25, 0.35], ee_pose, registry)
        berry_to_base(target, ee_pose, registry)
        assert built == []


class TestHelpers:
    def test_look_at_points_z_toward_target(self):
        pose = look_at([0.0, -1.2, 0.4], [0.0, 0.25, 0.35])
        direction = pose.rotation[:, 2]
        expected = np.array([0.0, 1.45, -0.05])
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(direction, expected, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(eye=_points(-1.5, 1.5), point=_points(-0.5, 0.5))
    def test_look_at_is_level_and_aims_at_the_point(self, eye, point):
        assume(np.linalg.norm((point - eye)[:2]) > 1e-3)
        pose = look_at(eye, point)
        R = pose.rotation
        _same_bytes(pose.position, eye)
        np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(R[:, 2], (point - eye) / np.linalg.norm(point - eye),
                                   atol=1e-12)
        assert R[2, 0] == 0.0   # +X is normal to the parent's +Z

    @pytest.mark.parametrize("eye, point, x", [
        ((0.1, 0.2, 1.0), (0.1, 0.2, 0.0), (-1.0, 0.0, 0.0)),
        ((0.1, 0.2, 0.0), (0.1, 0.2, 1.0), (1.0, 0.0, 0.0)),
    ], ids=["down", "up"])
    def test_look_at_vertical_view_takes_x_from_the_y_axis(self, eye, point, x):
        R = look_at(eye, point).rotation
        np.testing.assert_array_equal(R[:, 0], x)
        np.testing.assert_array_equal(R[:, 1], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(R[:, 2], np.subtract(point, eye))

    @pytest.mark.parametrize("eye, point", [
        ((0.0, -1.2, 0.4), (0.0, -1.2, 0.4)),
        # 1e-200 squared underflows to 0: no direction can be normalised.
        ((0.0, 0.0, 0.0), (1e-200, 0.0, 0.0)),
    ], ids=["same-point", "underflowing-distance"])
    def test_look_at_without_a_direction_raises(self, eye, point):
        with pytest.raises(ValueError, match="cannot look at its own position"):
            look_at(eye, point)

    @pytest.mark.parametrize("eye, point", [
        ((1e300, 0.0, 0.0), (0.0, 0.25, 0.35)),
        ((0.0, -1.2, 0.4), (0.0, 1e200, 1e200)),
    ], ids=["far-eye", "far-point"])
    def test_look_at_overflowing_distance_raises_without_a_warning(self, eye, point):
        # The suite turns RuntimeWarnings into errors: numpy's overflow
        # warning would fail this before the ValueError is reached.
        with pytest.raises(ValueError, match="squared distance overflows"):
            look_at(eye, point)

    @pytest.mark.parametrize("layout", [
        {},
        # Aimed at a berry, as config._harvest_runs builds a harvest's registry.
        {"cam1_target": np.array([0.0, 0.4, 0.45])},
    ], ids=["default", "aimed_at_a_berry"])
    def test_build_registry_is_the_inverse_of_the_c1_pose(self, layout):
        c1 = {"cam1_position": (0.0, -1.2, 0.4), "cam1_target": (0.0, 0.25, 0.35)} | layout
        expected = look_at(c1["cam1_position"], c1["cam1_target"]).inverse()
        registry = build_registry(**layout)
        _same_bytes(registry.base_in_cam1.position, expected.position)
        _same_bytes(registry.base_in_cam1.rotation, expected.rotation)
