"""Static description of the 3-section, 9-actuator pneumatic arm.

Actuator ordering convention used everywhere in this package:

    q = [l_11, l_12, l_13, l_21, l_22, l_23, l_31, l_32, l_33]

where l_ij is the elongation (meters) of actuator j of section i and
sections are ordered proximal, medial, distal. Actuator states are plain
(9,) float arrays; see :func:`as_actuator_vector`, and a batch of them is
an (N, 9) array (:func:`as_actuator_batch`).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

N_SECTIONS = 3
N_ACTUATORS = 9

#: Measured pressure-to-elongation ratio of the pneumatic muscles, m/psi.
ELONGATION_PER_PSI = 1.0 / 2100.0

#: Margin used to keep barrier-cost evaluation off the exact actuator bounds.
LIMIT_MARGIN = 1e-6

#: Derivative of a section's bending vector (dx, dy) by its elongation triple.
_BENDING_ROWS = np.array([[-2.0, 1.0, 1.0], [0.0, -math.sqrt(3.0), math.sqrt(3.0)]])


@dataclass(frozen=True)
class SectionGeometry:
    """One bending section: actuator placement radius and lengths.

    Actuators sit 120 degrees apart at ``radius`` from the section
    centerline; the local X axis points toward actuator 1. A field that is
    not finite raises ValueError, and so does a radius, initial_length or
    actuator_max_elongation (l_max) that is not positive, or an l_max over
    3 pi radius: a command in the box bends the section by phi = |d| / (3 r)
    with |d| <= 2 l_max, so the bound keeps a full stroke within one turn,
    phi^2 <= 4 pi^2, where a radius near 0 would overflow phi^2.
    """

    radius: float                       # actuator placement radius r_i, m
    initial_length: float = 0.15        # unpressurized actuator length L0, m
    plate_offset_length: float = 0.02   # rigid plate offset b_i to next frame, m
    plate_offset_angle: float = np.pi / 3  # frame twist beta_i, rad
    actuator_max_elongation: float = 0.10  # l_max, m

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")
            if not value > 0 and name in ("radius", "initial_length", "actuator_max_elongation"):
                raise ValueError(f"{name}: must be positive, got {value}")
        if not self.actuator_max_elongation <= 3.0 * math.pi * self.radius:
            raise ValueError(f"actuator_max_elongation: must be at most 3 pi radius = "
                             f"{3.0 * math.pi * self.radius}, got {self.actuator_max_elongation}")


@dataclass(frozen=True)
class RobotGeometry:
    """The full arm: three sections ordered proximal, medial, distal.

    Another count of sections, or radii that grow toward the tip, raises
    ValueError. The third section's plate offset doubles as the gripper
    offset. The kinematics constants and the last walk of
    :func:`softarm.kinematics.section_chain` are kept on the instance,
    outside ``==``, ``hash`` and ``repr``.
    """

    sections: tuple
    #: (q.tobytes(), walk) of the last section_chain on this instance.
    _last_walk = None

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))
        if len(self.sections) != N_SECTIONS:
            raise ValueError(f"sections: must be {N_SECTIONS}, got {len(self.sections)}")
        radii = [s.radius for s in self.sections]
        if not radii[0] >= radii[1] >= radii[2]:
            raise ValueError(f"sections: radii must not grow toward the tip, got {radii}")

    def joint_limits(self) -> "JointLimits":
        """Per-actuator elongation bounds; lower bound is 0 (extension-only)."""
        upper = np.repeat([s.actuator_max_elongation for s in self.sections], 3)
        return JointLimits(lower=np.zeros(N_ACTUATORS), upper=upper)

    @cached_property
    def section_constants(self) -> tuple:
        """Per section: 3 r, L0, plate offset along Z, and the cosine and
        sine of the plate twist about Z."""
        return tuple((3.0 * s.radius, s.initial_length, s.plate_offset_length,
                      math.cos(s.plate_offset_angle), math.sin(s.plate_offset_angle))
                     for s in self.sections)

    @cached_property
    def actuator_map(self) -> np.ndarray:
        """du/dq of the section parameters u = (c0, c1, arc), block diagonal
        and read-only: per section (c0, c1) = (dx, dy) / (3 r) and
        arc = L0 + mean(l)."""
        M = np.zeros((N_ACTUATORS, N_ACTUATORS))
        for i, s in enumerate(self.sections):
            block = M[3 * i:3 * i + 3, 3 * i:3 * i + 3]
            block[:2] = _BENDING_ROWS / (3.0 * s.radius)
            block[2] = 1.0 / 3.0
        M.flags.writeable = False
        return M


@dataclass(frozen=True)
class JointLimits:
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != (N_ACTUATORS,) or self.upper.shape != (N_ACTUATORS,):
            raise ValueError("joint limits must be 9-vectors")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower limits must be strictly below upper limits")

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @cached_property
    def _interior(self) -> tuple:
        return self.lower + LIMIT_MARGIN, self.upper - LIMIT_MARGIN

    @cached_property
    def barrier_scale(self) -> np.ndarray:
        """0.25 (upper - lower)^2, the numerator of the barrier cost."""
        return 0.25 * (self.upper - self.lower) ** 2

    def clamp_interior(self, q) -> np.ndarray:
        """Clamp q into the open limit box shrunk by ``LIMIT_MARGIN`` on each
        side."""
        lower, upper = self._interior
        return np.minimum(np.maximum(as_actuator_vector(q), lower), upper)


def as_actuator_vector(q) -> np.ndarray:
    """Validate and return q as a (9,) float array of finite elongations."""
    q = np.asarray(q, dtype=float)
    if q.shape != (N_ACTUATORS,):
        raise ValueError(f"actuator vector must have shape (9,), got {q.shape}")
    if not all(map(math.isfinite, q.tolist())):
        raise ValueError("actuator vector entries must be finite")
    return q


def as_actuator_batch(qs) -> np.ndarray:
    """Validate and return qs as an (N, 9) float array of finite
    elongations, one actuator vector per row."""
    qs = np.asarray(qs, dtype=float)
    if qs.ndim != 2 or qs.shape[1] != N_ACTUATORS:
        raise ValueError(f"actuator batch must have shape (N, 9), got {qs.shape}")
    if not np.isfinite(qs).all():
        raise ValueError("actuator vector entries must be finite")
    return qs


def norm(v) -> float:
    """Euclidean norm of a real 1-D array, as a Python float: the steps
    ``np.linalg.norm`` takes for one, without its general wrapper."""
    return math.sqrt(v.dot(v))


def default_geometry() -> RobotGeometry:
    """Nominal arm used by the bundled scenarios.

    15 cm sections, actuator radii decreasing toward the tip, 60 degree
    plate twist between neighboring sections, no twist at the gripper plate,
    and 10 cm maximum elongation per actuator.
    """
    radii = (0.06, 0.05, 0.04)
    angles = (np.pi / 3, np.pi / 3, 0.0)
    sections = tuple(
        SectionGeometry(radius=r, plate_offset_angle=a) for r, a in zip(radii, angles)
    )
    return RobotGeometry(sections=sections)


def elongation_to_pressure(elongation):
    """Pressure (psi) required for an elongation (m), at ``ELONGATION_PER_PSI``.

    Negative elongations map to negative pressures, which are physically
    infeasible; callers flag them rather than erroring here.
    """
    return np.asarray(elongation, dtype=float) / ELONGATION_PER_PSI
