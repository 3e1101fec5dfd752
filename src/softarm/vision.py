"""Two-camera frame emulation: eye-to-hand (C1) and eye-in-hand (C2).

Transform naming: ``x_in_y`` is the pose of frame x expressed in frame y,
i.e. the rigid map taking x-frame coordinates to y-frame coordinates.
The registry stores the base pose in C1 (from point registration) and the
C2 mount pose in the end-effector frame; berry fixes from C2 are chained
through the measured end-effector pose back into the base frame. A
camera without a fix yields ``None``; holding the last fix is up to the
caller.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import norm
from .kinematics import Pose
from .rotations import orthonormalize

#: Radius (m) of the line-of-sight tube blocked by the end-effector.
OCCLUSION_FOOTPRINT_RADIUS = 0.04


class DegenerateConfiguration(Exception):
    """Point registration needs >= 3 non-collinear correspondences."""


def register_rigid(points_a, points_b):
    """Least-squares rigid transform T minimizing sum ||T a_i - b_i||^2.

    Rotation from the SVD of the cross-covariance with reflection
    correction, translation from the centroids. Returns (Pose, rms_residual).
    Raises DegenerateConfiguration for fewer than 3 points or a collinear
    source set (rotation about the line would be unobservable).
    """
    A = np.asarray(points_a, dtype=float)
    B = np.asarray(points_b, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[1] != 3:
        raise ValueError("point sets must be matching (N, 3) arrays")
    if A.shape[0] < 3:
        raise DegenerateConfiguration("need at least 3 correspondences")
    centroid_a = A.mean(axis=0)
    centroid_b = B.mean(axis=0)
    Ac = A - centroid_a
    Bc = B - centroid_b
    sv = np.linalg.svd(Ac, compute_uv=False)
    if sv[1] <= 1e-12 * max(sv[0], 1e-300):
        raise DegenerateConfiguration("source points are collinear")
    H = Ac.T @ Bc
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    R = orthonormalize(R)
    t = centroid_b - R @ centroid_a
    residual = float(np.sqrt(np.mean(np.sum((A @ R.T + t - B) ** 2, axis=1))))
    return Pose(t, R), residual


@dataclass(frozen=True)
class FrameRegistry:
    """Calibrated camera transforms shared by a scenario."""

    base_in_cam1: Pose   # base frame expressed in C1 (maps base -> C1 coords)
    cam2_in_ee: Pose     # C2 mount expressed in the end-effector frame

    @cached_property
    def _cam1_in_base(self) -> Pose:
        return self.base_in_cam1.inverse()


@dataclass
class BerryTarget:
    """One berry observation; camera positions are None when not visible."""

    position_c2: np.ndarray | None = None
    position_c1: np.ndarray | None = None


def berry_to_base(target: BerryTarget, ee_pose: Pose,
                  registry: FrameRegistry) -> np.ndarray | None:
    """Berry position in the base frame from the eye-in-hand camera, or
    None when C2 has no fix.

    Chains base <- EE <- C2 through the measured base-frame end-effector
    pose: p_base = T_ee_base T_c2_ee p_c2, on the arrays, in the operations
    and order of ``ee_pose.compose(cam2_in_ee).transform_point(p_c2)``.
    """
    if target.position_c2 is None:
        return None
    cam2 = registry.cam2_in_ee
    return (ee_pose.position + ee_pose.rotation.dot(cam2.position)
            + ee_pose.rotation.dot(cam2.rotation).dot(np.asarray(target.position_c2, dtype=float)))


def cam1_target_to_base(target: BerryTarget, registry: FrameRegistry) -> np.ndarray | None:
    """Berry position in the base frame from the eye-to-hand camera, or
    None when C1 has no fix."""
    if target.position_c1 is None:
        return None
    return registry._cam1_in_base.transform_point(target.position_c1)


def _ee_blocks_ray(cam_origin, berry, ee_position) -> bool:
    ray = berry - cam_origin
    length_sq = float(ray.dot(ray))
    if length_sq == 0.0:
        return False
    t = float((ee_position - cam_origin).dot(ray)) / length_sq
    if not 0.0 < t < 1.0:
        return False
    closest = cam_origin + t * ray
    return norm(ee_position - closest) < OCCLUSION_FOOTPRINT_RADIUS


def simulate_observation(true_berry_base, ee_pose: Pose, registry: FrameRegistry,
                         noise_std: float = 0.0, rng=None,
                         force_c1_occluded: bool = False) -> BerryTarget:
    """Project the true berry into both camera frames (stand-in for marker
    detection).

    C1 loses the berry when the end-effector sits within
    ``OCCLUSION_FOOTPRINT_RADIUS`` of the C1-to-berry line of sight (or when
    forced); C2 always has it.
    """
    p_base = np.asarray(true_berry_base, dtype=float)
    c1_occluded = force_c1_occluded or _ee_blocks_ray(
        registry._cam1_in_base.position, p_base, ee_pose.position)
    position_c1 = None
    if not c1_occluded:
        position_c1 = registry.base_in_cam1.transform_point(p_base)
        if noise_std > 0:
            position_c1 = position_c1 + rng.normal(0.0, noise_std, 3)

    # (T_ee_base T_c2_ee)^-1 p_base, on the arrays, in the operations and
    # order of Pose.compose, Pose.inverse and Pose.transform_point.
    cam2 = registry.cam2_in_ee
    base_in_cam2 = ee_pose.rotation.dot(cam2.rotation).T
    position_c2 = ((-base_in_cam2).dot(ee_pose.position + ee_pose.rotation.dot(cam2.position))
                   + base_in_cam2.dot(p_base))
    if noise_std > 0:
        position_c2 = position_c2 + rng.normal(0.0, noise_std, 3)

    return BerryTarget(position_c2=position_c2, position_c1=position_c1)


def look_at(eye, point) -> Pose:
    """Camera pose in the parent frame with +Z viewing toward ``point``, +X
    level (normal to the parent's +Z) unless the view is vertical."""
    eye = np.asarray(eye, dtype=float)
    z = np.asarray(point, dtype=float) - eye
    if not np.any(z):
        raise ValueError("a camera cannot look at its own position")
    z = z / np.linalg.norm(z)
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    if np.linalg.norm(x) < 1e-12:
        x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(eye, np.column_stack([x, y, z]))


def default_registration_points() -> np.ndarray:
    """Six base-frame fiducials on a cube of side 0.2 m."""
    return np.array([
        [0.1, 0.1, 0.0], [-0.1, 0.1, 0.0], [0.1, -0.1, 0.0],
        [-0.1, -0.1, 0.2], [0.1, 0.1, 0.2], [-0.1, 0.1, 0.2],
    ])


def build_registry(cam1_position=(0.0, -1.2, 0.4), cam1_target=(0.0, 0.25, 0.35),
                   cam2_offset=(0.0, 0.0, 0.01)) -> FrameRegistry:
    """Registry for the default scenario layout: eye-to-hand camera 1.2 m
    behind the base looking at the berry region, eye-in-hand camera at the
    gripper center looking along the approach axis. ``base_in_cam1`` is
    recovered by registering the fiducials rather than copied from ground
    truth, so the registration path is exercised end to end."""
    cam1_in_base = look_at(cam1_position, cam1_target)
    truth_base_in_cam1 = cam1_in_base.inverse()
    points = default_registration_points()
    observed_in_cam1 = np.array([truth_base_in_cam1.transform_point(p) for p in points])
    base_in_cam1, _ = register_rigid(points, observed_in_cam1)
    cam2_in_ee = Pose(np.asarray(cam2_offset, dtype=float), np.eye(3))
    return FrameRegistry(base_in_cam1=base_in_cam1, cam2_in_ee=cam2_in_ee)
