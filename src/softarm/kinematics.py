"""Piecewise-constant-curvature kinematics of the 3-section arm.

Each section is written in quantities linear in its elongations
(Della Santina, Bicchi & Rus, "On an improved state parametrization for
soft robots with piecewise constant curvature", IEEE RA-L 2020): the
bending vector dx = l2 + l3 - 2 l1, dy = sqrt(3) (l3 - l2) gives the
section's rotation vector w = (-dy, dx, 0) / (3 r), whose norm is the
bending angle phi, and the arc length is L0 + mean(l). The section
transform is a closed form in w with sinc factors, so it has no atan2,
no straight-section branch and is exact at straight. :func:`fk_batch`
evaluates N configurations in one vectorized pass; the end-effector pose
chains the three section transforms with the rigid plate offsets.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import RobotGeometry, SectionGeometry, as_actuator_vector
from .rotations import drift_and_det, orthonormalize, rot_z

#: Below this bending measure (m) a section is treated as exactly straight.
STRAIGHT_S_THRESHOLD = 1e-9

#: Orthonormality tolerance for Pose construction.
POSE_ORTHO_TOL = 1e-9

#: FK re-orthonormalizes a rotation when its drift exceeds this.
FK_DRIFT_TOL = 1e-12

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: position (m) and proper rotation matrix."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float).reshape(3, 3))
        drift, det = drift_and_det(self.rotation)
        if drift > POSE_ORTHO_TOL:
            raise ValueError("rotation is not orthonormal")
        if det < 0:
            raise ValueError("rotation must be proper (det +1)")

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.eye(3))

    def compose(self, other: "Pose") -> "Pose":
        """self . other (apply ``other`` first, then ``self``)."""
        return Pose(self.position + self.rotation @ other.position,
                    self.rotation @ other.rotation)

    def inverse(self) -> "Pose":
        return Pose(-self.rotation.T @ self.position, self.rotation.T)

    def transform_point(self, p) -> np.ndarray:
        return self.position + self.rotation @ np.asarray(p, dtype=float)


@dataclass(frozen=True)
class SectionConfig:
    """Arc parameters of one section.

    ``s`` is the bending measure from the elongation differences, ``phi``
    the arc bending angle, ``lam`` the radius of curvature (inf marks the
    straight sentinel), ``theta`` the bending-plane angle from the local X
    axis, and ``arc_length`` the section centerline length.
    """

    s: float
    phi: float
    lam: float
    theta: float
    arc_length: float

    @property
    def is_straight(self) -> bool:
        return not np.isfinite(self.lam)


def _bending(l1, l2, l3):
    """Bending vector (dx, dy) of elongation triples; its norm is 2 s."""
    return l2 + l3 - 2.0 * l1, _SQRT3 * (l3 - l2)


def bending_measures(q) -> np.ndarray:
    """Per-section bending measure s of an actuator vector, (9,) -> (3,).

    Computed as |(dx, dy)| / 2, so equal elongations give exactly 0.
    """
    L = np.asarray(q, dtype=float).reshape(-1, 3)
    dx, dy = _bending(L[..., 0], L[..., 1], L[..., 2])
    return 0.5 * np.hypot(dx, dy)


def actuator_to_config(lengths, section: SectionGeometry) -> SectionConfig:
    """Map the three actuator elongations of one section to arc parameters.

    The bending-plane angle uses the two-argument arctangent so the full
    [-pi, pi] range is covered. When the elongations are (near-)equal the
    arc degenerates to a straight segment; that case returns the sentinel
    (phi = 0, theta = 0, lam = inf) rather than dividing by zero.
    """
    l1, l2, l3 = (float(v) for v in lengths)
    if not (math.isfinite(l1) and math.isfinite(l2) and math.isfinite(l3)):
        raise ValueError("actuator lengths must be finite")
    arc_length = section.initial_length + (l1 + l2 + l3) / 3.0
    dx, dy = _bending(l1, l2, l3)
    s = 0.5 * math.hypot(dx, dy)
    if s < STRAIGHT_S_THRESHOLD:
        return SectionConfig(s=s, phi=0.0, lam=math.inf, theta=0.0, arc_length=arc_length)
    phi = 2.0 * s / (3.0 * section.radius)
    return SectionConfig(s=s, phi=phi, lam=arc_length / phi, theta=math.atan2(dy, dx),
                         arc_length=arc_length)


#: Arguments of the two sinc factors, as multiples of phi.
_SINC_ARGS = np.array([1.0, 0.5])

#: sin(x) / x rounds to exactly 1 below x ~ 2e-8, so flooring x at the
#: smallest normal float changes only x = 0, which gets its limit 1.
_SINC_FLOOR = np.finfo(float).tiny


def _arc_transforms(c, arc) -> np.ndarray:
    """Homogeneous section end-plate transforms S+(4, 4).

    ``c`` of shape (2,)+S is phi (cos theta, sin theta) = (dx, dy) / (3 r),
    so the rotation vector is w = (-c_y, c_x, 0); ``arc`` (shape S) is the
    arc length. With a = sinc(phi) and b = sinc^2(phi/2) / 2 (sinc x =
    sin x / x, 1 at x = 0), R = exp(skew(w)) = I + a W + b W^2, whose
    (3, 3) entry 1 - b phi^2 is cos phi, and p = arc (b c_x, b c_y, a).
    """
    phi = np.hypot(c[0], c[1])
    x = np.maximum(np.multiply.outer(_SINC_ARGS, phi), _SINC_FLOOR)
    a, half = np.sin(x) / x
    b = 0.5 * half * half
    bc, ac = b * c, a * c
    diag = 1.0 - bc * c
    off = -bc[0] * c[1]
    p = arc * bc
    zero = np.zeros(phi.shape)
    T = np.array([[diag[0], off, ac[0], p[0]],
                  [off, diag[1], ac[1], p[1]],
                  [-ac[0], -ac[1], np.cos(phi), arc * a],
                  [zero, zero, zero, zero + 1.0]])
    return T.transpose(tuple(range(2, T.ndim)) + (0, 1))


def config_to_transform(config: SectionConfig) -> Pose:
    """Rigid transform of a section end plate in its base-plate frame.

    Composition Rot_z(theta) Trans_x(lam) Rot_y(phi) Trans_x(-lam)
    Rot_z(-theta), i.e. a circular arc of length ``arc_length`` bent by
    ``phi`` in the plane at angle ``theta``. The straight sentinel
    (phi = 0) is the same formula: a pure translation along Z.
    """
    c = config.phi * np.array([math.cos(config.theta), math.sin(config.theta)])
    T = _arc_transforms(c, np.array(config.arc_length))
    return Pose(T[:3, 3], T[:3, :3])


@functools.lru_cache(maxsize=16)
def _section_constants(geom: RobotGeometry):
    """Per-section 3 r, L0 and homogeneous plate transform (offset along Z,
    then twist about Z) of a geometry."""
    plates = np.zeros((len(geom.sections), 4, 4))
    for plate, s in zip(plates, geom.sections):
        plate[:3, :3] = rot_z(s.plate_offset_angle)
        plate[:, 3] = (0.0, 0.0, s.plate_offset_length, 1.0)
    return (np.array([3.0 * s.radius for s in geom.sections]),
            np.array([s.initial_length for s in geom.sections]),
            plates)


_EYE3 = np.eye(3)


def fk_batch(Q, geom: RobotGeometry):
    """End-effector poses for actuator rows Q of shape (N, 9).

    Returns positions (N, 3) and rotations (N, 3, 3). Each row chains the
    section arcs with the plate offsets and twists; a rotation whose
    orthonormality drift exceeds ``FK_DRIFT_TOL`` is re-orthonormalized.
    Rows are not validated (see :func:`forward_kinematics`).
    """
    Q = np.asarray(Q, dtype=float)
    three_r, initial_length, plates = _section_constants(geom)
    L = Q.reshape(Q.shape[0], -1, 3)
    l1, l2, l3 = L[..., 0], L[..., 1], L[..., 2]
    T = _arc_transforms(np.array(_bending(l1, l2, l3)) / three_r,
                        initial_length + (l1 + l2 + l3) / 3.0) @ plates
    E = T[:, 0]
    for i in range(1, T.shape[1]):
        E = E @ T[:, i]
    rotation = E[:, :3, :3]
    defect = (rotation.transpose(0, 2, 1) @ rotation - _EYE3).reshape(-1, 9)
    drifted = np.vecdot(defect, defect) > FK_DRIFT_TOL ** 2
    if drifted.any():
        rotation[drifted] = orthonormalize(rotation[drifted])
    return E[:, :3, 3], rotation


def forward_kinematics(q, geom: RobotGeometry) -> Pose:
    """End-effector pose in the base frame for actuator elongations q.

    Chains, per section: the arc transform, the rigid plate offset along
    the local Z, and the plate twist about Z. The last offset pair is the
    gripper mount.
    """
    position, rotation = fk_batch(as_actuator_vector(q)[None], geom)
    return Pose(position[0], rotation[0])
