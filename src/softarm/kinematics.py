"""Piecewise-constant-curvature kinematics of the 3-section arm.

Each section is written in quantities linear in its elongations
(Della Santina, Bicchi & Rus, "On an improved state parametrization for
soft robots with piecewise constant curvature", IEEE RA-L 2020): the
bending vector dx = l2 + l3 - 2 l1, dy = sqrt(3) (l3 - l2) gives
c = (dx, dy) / (3 r) and the section's rotation vector w = (-c_y, c_x, 0),
whose norm is the bending angle phi; the arc length is L0 + mean(l). The
section transform is the closed form R = I + a W + b W^2,
p = arc (b c_x, b c_y, a) in the coefficients of :func:`arc_coefficients`,
so it has no atan2, no straight-section branch and is exact at straight.
One walk chains the three sections and plate offsets with + - * / and the
arc coefficients its caller passes in, so it runs on floats or on (N,)
arrays: :func:`section_chain` walks one configuration in plain
scalar arithmetic, and the forward kinematics and the analytic Jacobian
(:mod:`softarm.jacobian`) both read it; the geometry keeps the last walk
so the two share it at one configuration. The walk records each section
as one flat tuple of its bending, arc length, arc coefficients, base-plate
rotation entries and arc end point, which the Jacobian unpacks as it is.
:func:`forward_kinematics_many` walks a batch of commands known in
advance, one configuration per lane, and returns the stacked positions and
rotations, not a Pose per lane.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import RobotGeometry, as_actuator_batch, as_actuator_vector
from .rotations import rows_drift_and_det

#: Orthonormality tolerance for Pose construction.
POSE_ORTHO_TOL = 1e-9

#: Below this phi^2 the arc coefficients are Taylor series in phi^2: the
#: closed forms of g, alpha and beta lose about eps / phi^4 to cancellation.
SERIES_SWITCH = 1e-2

_SQRT3 = math.sqrt(3.0)


def _check_position(position: np.ndarray) -> np.ndarray:
    if not all(map(math.isfinite, position.tolist())):
        raise ValueError("position must be finite")
    return position


def _check_rotation(drift: float, det: float) -> None:
    # Negated so that a NaN drift or determinant fails too.
    if not drift <= POSE_ORTHO_TOL:
        raise ValueError("rotation is not orthonormal")
    if not det >= 0:
        raise ValueError("rotation must be proper (det +1)")


@dataclass(frozen=True)
class Pose:
    """Rigid transform: position (m) and proper rotation matrix."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        # Reshape only when needed: a same-shape reshape adds a view object.
        position = np.asarray(self.position, dtype=float)
        rotation = np.asarray(self.rotation, dtype=float)
        object.__setattr__(self, "position",
                           position if position.shape == (3,) else position.reshape(3))
        object.__setattr__(self, "rotation",
                           rotation if rotation.shape == (3, 3) else rotation.reshape(3, 3))
        _check_position(self.position)
        _check_rotation(*rows_drift_and_det(self.rotation.tolist()))

    @classmethod
    def _checked(cls, position: np.ndarray, rotation: np.ndarray,
                 drift: float, det: float) -> "Pose":
        """The Pose of a float (3,) position and (3, 3) rotation whose
        orthonormality drift and determinant the caller has just computed:
        they pass the check ``Pose()`` makes, which does not run again."""
        _check_rotation(drift, det)
        pose = object.__new__(cls)
        object.__setattr__(pose, "position", position)
        object.__setattr__(pose, "rotation", rotation)
        return pose

    def compose(self, other: "Pose") -> "Pose":
        """self . other (apply ``other`` first, then ``self``)."""
        return Pose(self.position + self.rotation @ other.position,
                    self.rotation @ other.rotation)

    def inverse(self) -> "Pose":
        return Pose(-self.rotation.T @ self.position, self.rotation.T)

    def transform_point(self, p) -> np.ndarray:
        return self.position + self.rotation.dot(np.asarray(p, dtype=float))


def arc_coefficients(phi2: float) -> tuple:
    """Coefficients (a, b, g, alpha, beta) of a section bent by
    phi = sqrt(phi2).

    a = sin(phi) / phi and b = (1 - cos phi) / phi^2 give the section
    transform; g = (phi - sin phi) / phi^3 completes the left Jacobian
    I + b W + g W^2 of the rotation; alpha = a'(phi) / phi = g - b and
    beta = b'(phi) / phi = (a - 2 b) / phi^2 give the derivatives of a and
    b along c. Below :data:`SERIES_SWITCH` they are Taylor series in phi^2,
    truncated after the phi^8 term (at most 3e-18 relative at the switch,
    where the closed forms are within 1e-13 of them).
    """
    if phi2 < SERIES_SWITCH:
        x = phi2
        b = 1 / 2 - x * (1 / 24 - x * (1 / 720 - x * (1 / 40320 - x / 3628800)))
        g = 1 / 6 - x * (1 / 120 - x * (1 / 5040 - x * (1 / 362880 - x / 39916800)))
        beta = -1 / 12 + x * (1 / 180 - x * (1 / 6720 - x * (1 / 453600 - x / 47900160)))
        a = 1.0 - x * g
    else:
        phi = math.sqrt(phi2)
        a = math.sin(phi) / phi
        half = math.sin(0.5 * phi) / phi
        b = 2.0 * half * half
        g = (1.0 - a) / phi2
        beta = (a - 2.0 * b) / phi2
    return a, b, g, g - b, beta


def _arc_coefficients_many(phi2: np.ndarray) -> np.ndarray:
    """:func:`arc_coefficients` of each lane of phi2, as five (N,) rows."""
    return np.array(list(map(arc_coefficients, phi2.tolist()))).reshape(-1, 5).T


def _walk(lengths, geom: RobotGeometry, coefficients) -> tuple:
    """Walk the nine ``lengths`` from the base: the end-effector position,
    rotation rows and the record of each section, one flat tuple
    (c0, c1, arc, coefficients, r00, r01, ..., r22, o0, o1, o2): the
    bending (c0, c1) = (dx, dy) / (3 r), the arc length, the
    :func:`arc_coefficients` of c0^2 + c1^2, the rows of the base-frame
    rotation of the section's base plate and the base-frame end point o of
    its arc. Only + - * / touch the lengths, so they may be floats or (N,)
    arrays, one configuration per lane, given the coefficients of their
    type."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    p0 = p1 = p2 = 0.0
    sections = []
    for i, (three_r, initial_length, offset, cos_t, sin_t) in enumerate(
            geom.section_constants):
        l1, l2, l3 = lengths[3 * i:3 * i + 3]
        dx, dy = l2 + l3 - 2.0 * l1, _SQRT3 * (l3 - l2)
        c0, c1 = dx / three_r, dy / three_r
        arc = initial_length + (l1 + l2 + l3) / 3.0
        section_coefficients = coefficients(c0 * c0 + c1 * c1)
        a, b, _, _, _ = section_coefficients
        # The arc: rotation S = I + a W + b W^2 and end point arc (b c0, b c1, a).
        bc0, bc1 = b * c0, b * c1
        s00, s01, s02 = 1.0 - bc0 * c0, -bc0 * c1, a * c0
        s10, s11, s12 = s01, 1.0 - bc1 * c1, a * c1
        s20, s21, s22 = -s02, -s12, s00 - bc1 * c1
        t0, t1, t2 = arc * bc0, arc * bc1, arc * a
        o0 = p0 + r00 * t0 + r01 * t1 + r02 * t2
        o1 = p1 + r10 * t0 + r11 * t1 + r12 * t2
        o2 = p2 + r20 * t0 + r21 * t1 + r22 * t2
        sections.append((c0, c1, arc, section_coefficients,
                         r00, r01, r02, r10, r11, r12, r20, r21, r22, o0, o1, o2))
        # The plate: offset along the arc's end Z axis (s02, s12, s22), then
        # R <- R S T for the twist T about it.
        t0, t1, t2 = offset * s02, offset * s12, offset * s22
        p0 = o0 + r00 * t0 + r01 * t1 + r02 * t2
        p1 = o1 + r10 * t0 + r11 * t1 + r12 * t2
        p2 = o2 + r20 * t0 + r21 * t1 + r22 * t2
        t00, t01 = cos_t * s00 + sin_t * s01, cos_t * s01 - sin_t * s00
        t10, t11 = cos_t * s10 + sin_t * s11, cos_t * s11 - sin_t * s10
        t20, t21 = cos_t * s20 + sin_t * s21, cos_t * s21 - sin_t * s20
        r00, r01, r02 = (r00 * t00 + r01 * t10 + r02 * t20, r00 * t01 + r01 * t11 + r02 * t21,
                         r00 * s02 + r01 * s12 + r02 * s22)
        r10, r11, r12 = (r10 * t00 + r11 * t10 + r12 * t20, r10 * t01 + r11 * t11 + r12 * t21,
                         r10 * s02 + r11 * s12 + r12 * s22)
        r20, r21, r22 = (r20 * t00 + r21 * t10 + r22 * t20, r20 * t01 + r21 * t11 + r22 * t21,
                         r20 * s02 + r21 * s12 + r22 * s22)
    return (p0, p1, p2), ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)), tuple(sections)


def section_chain(q, geom: RobotGeometry) -> tuple:
    """Walk one configuration from the base: returns the end-effector
    position and rotation rows (plain floats) and the tuple of the flat
    record of each section (see :func:`_walk`). After its arc, each
    section adds the rigid plate offset along the local Z and the plate
    twist about Z; the last pair is the gripper mount.

    The geometry keeps its last walk, keyed by the bytes of q, so the
    forward kinematics and the Jacobian at one configuration walk it once.
    The walk is immutable, and a failed walk is not kept.
    """
    q = as_actuator_vector(q)
    key = q.tobytes()
    last = geom._last_walk
    if last is not None and last[0] == key:
        return last[1]
    walk = _walk(q.tolist(), geom, arc_coefficients)
    # The frozen instance's dict, as cached_property writes it; key and walk
    # go in as one tuple, so no reader pairs a key with another walk.
    geom.__dict__["_last_walk"] = key, walk
    return walk


def forward_kinematics(q, geom: RobotGeometry) -> Pose:
    """End-effector pose in the base frame for actuator elongations q.

    Chains, per section: the arc transform, the rigid plate offset along
    the local Z, and the plate twist about Z. The last offset pair is the
    gripper mount. The rotation is checked once, by its orthonormality
    drift and determinant.
    """
    position, rows, _ = section_chain(q, geom)
    rotation = np.fromiter(rows[0] + rows[1] + rows[2], float, 9).reshape(3, 3)
    return Pose._checked(np.array(position), rotation, *rows_drift_and_det(rows))


def forward_kinematics_many(qs, geom: RobotGeometry) -> tuple:
    """:func:`forward_kinematics` of each row of the (N, 9) array qs, as
    stacked arrays: the positions (N, 3) and rotations (N, 3, 3), each lane
    byte for byte the scalar Pose.

    The walk of :func:`section_chain`, on (N,) arrays with one
    configuration per lane; the batch keeps no walk on the geometry. Every
    lane passes the drift and determinant check a Pose makes, checked at
    once on the worst of them.
    """
    qs = as_actuator_batch(qs)
    (p0, p1, p2), rows, _ = _walk(qs.T, geom, _arc_coefficients_many)
    drift, det = rows_drift_and_det(rows, np.sqrt)
    positions = np.stack((p0, p1, p2), axis=-1)
    rotations = np.stack(rows[0] + rows[1] + rows[2], axis=-1).reshape(-1, 3, 3)
    # max and min pass a NaN on.
    _check_rotation(drift.max(initial=0.0), det.min(initial=1.0))
    return positions, rotations
