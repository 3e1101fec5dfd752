"""Two-camera frame emulation: eye-to-hand (C1) and eye-in-hand (C2).

Transform naming: ``x_in_y`` is the pose of frame x expressed in frame y,
i.e. the rigid map taking x-frame coordinates to y-frame coordinates.
The registry stores the base pose in C1 (the inverse of C1's pose) and
the C2 mount pose in the end-effector frame; berry fixes from C2 are
chained through the measured end-effector pose back into the base frame.
A camera without a fix yields ``None``; holding the last fix is up to the
caller.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import norm
from .kinematics import Pose

#: Radius (m) of the line-of-sight tube blocked by the end-effector.
OCCLUSION_FOOTPRINT_RADIUS = 0.04


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
    with np.errstate(over="ignore"):
        z = np.asarray(point, dtype=float) - eye
        distance = np.linalg.norm(z)
    if distance == 0.0:
        raise ValueError("a camera cannot look at its own position")
    if not np.isfinite(distance):
        raise ValueError("a camera is too far from its target: the squared distance overflows")
    z = z / distance
    x = np.cross(np.array([0.0, 0.0, 1.0]), z)
    if np.linalg.norm(x) < 1e-12:
        x = np.cross(np.array([0.0, 1.0, 0.0]), z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    return Pose(eye, np.column_stack([x, y, z]))


def build_registry(cam1_position=(0.0, -1.2, 0.4), cam1_target=(0.0, 0.25, 0.35),
                   cam2_offset=(0.0, 0.0, 0.01)) -> FrameRegistry:
    """Registry for the default scenario layout: eye-to-hand camera 1.2 m
    behind the base looking at the berry region, eye-in-hand camera at the
    gripper center looking along the approach axis. ``base_in_cam1`` is
    the inverse of the C1 pose: the calibration is exact."""
    return FrameRegistry(base_in_cam1=look_at(cam1_position, cam1_target).inverse(),
                         cam2_in_ee=Pose(np.asarray(cam2_offset, dtype=float), np.eye(3)))
