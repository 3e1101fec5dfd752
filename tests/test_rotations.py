import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import softarm
from softarm.controller import pose_error
from softarm.kinematics import POSE_ORTHO_TOL, Pose
from softarm.rotations import matrix_to_rotvec, rot_x, rotvec_to_matrix, rows_drift_and_det


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_axes(rng, n):
    return [unit(rng.normal(size=3)) for _ in range(n)]


def half_turn(axis):
    """Rotation by exactly pi about a unit axis (symmetric, so w = 0)."""
    return 2.0 * np.outer(axis, axis) - np.eye(3)


def assert_log_matches_scipy(R):
    expected = Rotation.from_matrix(R).as_rotvec()
    actual = matrix_to_rotvec(R)
    # Bit-identical, including the sign of zero components (CSV output
    # writes -0 and 0 differently).
    assert actual.tobytes() == expected.tobytes(), (R, actual, expected)


def assert_exp_matches_scipy(w):
    expected = Rotation.from_rotvec(w).as_matrix()
    actual = rotvec_to_matrix(w)
    assert actual.tobytes() == expected.tobytes(), (w, actual, expected)


def pivot(R):
    """Index of the quaternion pivot: the largest of r00, r11, r22, trace."""
    return int(np.argmax([R[0, 0], R[1, 1], R[2, 2], np.trace(R)]))


class TestMatchesScipy:
    def test_random_rotations(self):
        for R in Rotation.random(3000, random_state=0).as_matrix():
            assert_log_matches_scipy(R)
        for w in Rotation.random(3000, random_state=1).as_rotvec():
            assert_exp_matches_scipy(w)

    @pytest.mark.parametrize("index", [0, 1, 2, 3])
    def test_each_quaternion_pivot(self, index):
        rng = np.random.default_rng(index)
        seen = 0
        for _ in range(400):
            if index == 3:
                # Trace largest: angles below 90 degrees.
                w = rng.uniform(0.0, 1.5) * unit(rng.normal(size=3))
            else:
                # Diagonal entry largest: large angles about a near-basis axis.
                axis = unit(np.eye(3)[index] + 0.3 * rng.normal(size=3))
                w = rng.uniform(2.0, np.pi) * axis
            R = rotvec_to_matrix(w)
            seen += pivot(R) == index
            assert_log_matches_scipy(R)
        assert seen > 200

    @pytest.mark.parametrize("short", 10.0 ** -np.arange(1, 13))
    def test_angles_just_short_of_pi(self, short):
        for axis in random_axes(np.random.default_rng(7), 50):
            w = (np.pi - short) * axis
            assert_exp_matches_scipy(w)
            assert_log_matches_scipy(Rotation.from_rotvec(w).as_matrix())

    @pytest.mark.parametrize("axis", [
        [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1],
        # Axes whose pivot quaternion starts negative: the sign of the
        # log follows scipy's canonical quaternion.
        [-0.6, 0.8, 0.0], [0.0, -0.6, 0.8], [-0.6, 0.0, 0.8], [0.6, -0.8, 0.0],
        [-1, -1, -1],
    ])
    def test_exactly_pi(self, axis):
        R = half_turn(unit(axis))
        assert_log_matches_scipy(R)
        assert np.linalg.norm(matrix_to_rotvec(R)) == pytest.approx(np.pi, rel=1e-15)
        assert_exp_matches_scipy(np.pi * unit(axis))

    def test_around_the_taylor_switch(self):
        switch = 1e-3
        angles = [np.nextafter(switch, 0.0), switch, np.nextafter(switch, 1.0)]
        angles += list(switch * (1.0 + np.linspace(-1e-6, 1e-6, 41)))
        for axis in random_axes(np.random.default_rng(3), 40):
            for angle in angles:
                assert_exp_matches_scipy(angle * axis)
                assert_log_matches_scipy(Rotation.from_rotvec(angle * axis).as_matrix())

    @pytest.mark.parametrize("angle", 10.0 ** -np.arange(1, 13))
    def test_small_angles(self, angle):
        for axis in random_axes(np.random.default_rng(4), 30):
            assert_exp_matches_scipy(angle * axis)
            assert_log_matches_scipy(Rotation.from_rotvec(angle * axis).as_matrix())

    def test_identity(self):
        assert_log_matches_scipy(np.eye(3))
        assert_exp_matches_scipy(np.zeros(3))
        np.testing.assert_array_equal(matrix_to_rotvec(np.eye(3)), np.zeros(3))
        np.testing.assert_array_equal(rotvec_to_matrix(np.zeros(3)), np.eye(3))


class TestRoundTrip:
    def test_exp_of_log(self):
        for R in Rotation.random(500, random_state=5).as_matrix():
            np.testing.assert_allclose(rotvec_to_matrix(matrix_to_rotvec(R)), R,
                                       atol=1e-14)

    def test_log_of_exp_inside_the_principal_ball(self):
        rng = np.random.default_rng(6)
        for axis in random_axes(rng, 500):
            w = rng.uniform(0.0, np.pi - 1e-6) * axis
            np.testing.assert_allclose(matrix_to_rotvec(rotvec_to_matrix(w)), w,
                                       atol=1e-9)


def test_pose_error_is_continuous_as_the_tilt_crosses_pi():
    # The principal log jumps from +pi x to -pi x, but the error angle and
    # the rotation it stands for stay continuous.
    current = Pose(np.zeros(3), np.eye(3))
    for tilt in np.pi + np.linspace(-1e-6, 1e-6, 201):
        e = pose_error(np.zeros(3), rot_x(tilt), current)
        assert e.orientation_norm == pytest.approx(np.pi - abs(tilt - np.pi), abs=1e-12)
        assert e.orientation_norm <= np.pi
        np.testing.assert_allclose(rotvec_to_matrix(e.e_zeta), rot_x(tilt), atol=1e-12)


class TestDriftAndDet:
    def test_match_numpy(self):
        rng = np.random.default_rng(8)
        for R in Rotation.random(500, random_state=8).as_matrix():
            for M in (R, R + 1e-6 * rng.normal(size=(3, 3)), -R):
                drift, det = rows_drift_and_det(M.tolist())
                assert drift == pytest.approx(np.linalg.norm(M.T @ M - np.eye(3)), abs=1e-15)
                assert det == pytest.approx(np.linalg.det(M), abs=1e-15)

    def test_pose_rejects_a_reflection(self):
        with pytest.raises(ValueError, match="proper"):
            Pose(np.zeros(3), -rot_x(0.3))

    def test_pose_rejects_a_drift_of_1e_8(self):
        stretched = np.diag([1.0 + 5e-9, 1.0, 1.0])   # drift ~1e-8
        assert rows_drift_and_det(stretched.tolist())[0] > POSE_ORTHO_TOL
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(np.zeros(3), stretched @ rot_x(0.3))
        Pose(np.zeros(3), np.diag([1.0 + 5e-11, 1.0, 1.0]))   # drift ~1e-10 passes


def test_import_loads_no_scipy():
    src = str(Path(softarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, softarm; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
