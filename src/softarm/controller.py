"""Resolved-rate control with task-priority redundancy resolution.

One step law, :func:`step_full`, serves every :class:`ControllerMode`. A
mode is its entry of :data:`TRACKS`: whether it tracks the position error
and the orientation error, each a 3-row task, position first. The modes are
conventional resolved rate (position, then orientation, at weights 1),
position, orientation, and the three-task law, which weights the same two
tasks by its gains. The gains, not the mode, turn joint-limit avoidance
on: a :class:`GainSchedule` with a ``joint_limit`` schedule adds an
error-norm-scheduled joint-limit descent (off near the goal) in the null
space the tasks leave, in every mode. Each 3x9 task block A is inverted in
Gram form, A^T (A A^T)^-1 with the 3x3 inverse by cofactors and one
Newton-Schulz correction, when a guard bounds cond(A A^T) below 1e6; past
it, the truncated SVD of :func:`softarm.jacobian.pinv` serves.

``solve`` iterates the step law in closed loop against a plant, reading
the current pose from plant feedback rather than from the kinematic model.
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .geometry import JointLimits, RobotGeometry, as_actuator_vector, norm
from .jacobian import jacobian, pinv
from .kinematics import Pose
from .rotations import matrix_to_rotvec, rows_to_rotvec


@dataclass(frozen=True)
class TaskError:
    """Position error (m) and principal axis-angle orientation error (rad),
    both expressed in the base frame."""

    e_p: np.ndarray
    e_zeta: np.ndarray
    # Computed once: the loops read each norm two or three times a step.
    position_norm: float = field(init=False, repr=False, compare=False)
    orientation_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "position_norm", norm(self.e_p))
        object.__setattr__(self, "orientation_norm", norm(self.e_zeta))


def pose_error(position: np.ndarray, rotation: np.ndarray, current: Pose) -> TaskError:
    """Base-frame task error toward ``position`` and ``rotation``: e_p = p_d - p_c,
    e_zeta = axis-angle of R_d R_c^T (consistent with the spatial angular Jacobian)."""
    e_p = position - current.position
    e_zeta = matrix_to_rotvec(rotation.dot(current.rotation.T))
    return TaskError(e_p=e_p, e_zeta=e_zeta)


@dataclass(frozen=True)
class JointLimitSchedule:
    """Error-norm-scheduled joint-limit gain.

    ``value_far`` applies while the scheduling error norm exceeds
    ``switch_threshold``; within it the gain is 0, cancelling the
    avoidance term near the goal. Negative values descend the cost.
    """

    value_far: float
    switch_threshold: float
    metric: str = "position"  # "position" (m) or "orientation" (rad)

    def __post_init__(self):
        if self.metric not in ("position", "orientation"):
            raise ValueError(f"metric: must be 'position' or 'orientation', got {self.metric!r}")
        if not np.isfinite((self.value_far, self.switch_threshold)).all():
            raise ValueError("value_far and switch_threshold must be finite")

    def gamma(self, norms: tuple) -> float:
        """The gain at the (position, orientation) error norms ``norms``."""
        position, orientation = norms
        norm = position if self.metric == "position" else orientation
        return self.value_far if norm > self.switch_threshold else 0.0


@dataclass(frozen=True)
class GainSchedule:
    """Step gain plus the secondary-task gains of the redundancy laws.

    ``gamma_position`` and ``gamma_orientation`` weight the position and
    orientation tasks of ``FullThreeTask`` (every other mode uses weight
    1); ``joint_limit`` schedules the avoidance gain and is the term's one
    switch: None leaves the term out, in every mode.
    """

    alpha: float
    gamma_position: float = 1.0
    gamma_orientation: float = 0.0
    joint_limit: JointLimitSchedule | None = None

    def __post_init__(self):
        if not np.isfinite((self.alpha, self.gamma_position, self.gamma_orientation)).all():
            raise ValueError("alpha, gamma_position and gamma_orientation must be finite")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


def gains_position_default() -> GainSchedule:
    """Published tuning for position control with joint-limit avoidance."""
    return GainSchedule(
        alpha=0.074,
        joint_limit=JointLimitSchedule(value_far=-0.01, switch_threshold=0.030),
    )


def gains_orientation_default() -> GainSchedule:
    """Published tuning for orientation control with joint-limit avoidance."""
    return GainSchedule(
        alpha=0.05,
        joint_limit=JointLimitSchedule(
            value_far=-0.005,
            switch_threshold=np.deg2rad(30.0),
            metric="orientation",
        ),
    )


def gains_full_default() -> GainSchedule:
    """Published tuning for the scheduled three-task law."""
    return GainSchedule(
        alpha=0.05,
        gamma_position=1.0,
        gamma_orientation=0.1,
        joint_limit=JointLimitSchedule(value_far=-5e-5, switch_threshold=0.050),
    )


class ControllerMode(enum.Enum):
    ConventionalRR = "ConventionalRR"
    PositionWithJL = "PositionWithJL"
    OrientationWithJL = "OrientationWithJL"
    FullThreeTask = "FullThreeTask"


#: Whether a mode tracks the position error, and the orientation error:
#: its tasks, position first. An untracked error counts as 0 in the
#: tolerance, divergence and joint-limit schedule checks.
TRACKS = {
    ControllerMode.ConventionalRR: (True, True),
    ControllerMode.PositionWithJL: (True, False),
    ControllerMode.OrientationWithJL: (False, True),
    ControllerMode.FullThreeTask: (True, True),
}

DIVERGENCE_FACTOR = 10.0
DIVERGENCE_WINDOW = 50


@dataclass
class Divergence:
    """The divergence rule of ``solve`` and the harvest stages: True once some norm
    has stayed above ``DIVERGENCE_FACTOR`` times its start, the first norms, for
    ``DIVERGENCE_WINDOW`` calls in a row. A start at or below 1e-12 never counts."""

    starts: tuple
    streak: int = field(default=0, init=False)

    def __call__(self, norms: tuple) -> bool:
        grown = any(now > DIVERGENCE_FACTOR * start
                    for now, start in zip(norms, self.starts) if start > 1e-12)
        self.streak = self.streak + 1 if grown else 0
        return self.streak >= DIVERGENCE_WINDOW


def tracked_norms(e: TaskError, mode: ControllerMode) -> tuple:
    """The (position, orientation) norms of ``e``, 0 for an error ``mode``
    does not track."""
    position, orientation = TRACKS[mode]
    return (e.position_norm if position else 0.0, e.orientation_norm if orientation else 0.0)


@dataclass(frozen=True)
class ControllerConfig:
    geometry: RobotGeometry
    joint_limits: JointLimits
    mode: ControllerMode
    position_tolerance: float = 0.8e-3        # m
    orientation_tolerance: float = np.deg2rad(0.6)  # rad
    max_iterations: int = 3000
    # Orientation components counted toward the tolerance check (None = all);
    # schedules and step laws always use the full error.
    orientation_error_axes: tuple | None = None

    def __post_init__(self):
        if not (self.position_tolerance > 0 and self.orientation_tolerance > 0):
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        axes = self.orientation_error_axes
        # An empty tuple would read every orientation error as 0.
        if axes is not None and not (axes and len(set(axes)) == len(axes) and all(
                type(axis) is int and 0 <= axis <= 2 for axis in axes)):
            raise ValueError(
                "orientation_error_axes: must be one or more distinct axes among 0, 1, 2")


def jl_cost(q, limits: JointLimits) -> float:
    """Barrier-style joint-limit cost: minimal (value 1 per actuator) at the
    range midpoints, divergent at the bounds. Inputs are clamped to the
    margin-shrunk open box so the cost stays finite for infeasible q."""
    q = limits.clamp_interior(q)
    return float(np.sum(limits.barrier_scale / ((limits.upper - q) * (q - limits.lower))))


def jl_gradient(q, limits: JointLimits) -> np.ndarray:
    """Analytic elementwise gradient of :func:`jl_cost` (same clamping)."""
    q = limits.clamp_interior(q)
    num = limits.barrier_scale * (2.0 * q - limits.lower - limits.upper)
    den = (limits.upper - q) ** 2 * (q - limits.lower) ** 2
    return num / den


#: Guard of :func:`_pinv`'s Gram form X0 = A^T G^-1, G = A A^T, of a 3-row
#: block A. With eigenvalues l1 >= l2 >= l3 >= 0 of G and m2 the trace of its
#: cofactor matrix, det G / (tr G m2) = l1 l2 l3 / ((l1 + l2 + l3)
#: (l1 l2 + l1 l3 + l2 l3)) lies in [l3 / (9 l1), l3 / l1], so a ratio over
#: GRAM_TOL gives cond(G) < 1e6, cond(A) < 1e3; a zero, near-singular or
#: non-finite G fails it and takes the SVD, and as 1e-6 >> SV_TOL^2
#: (:mod:`softarm.jacobian`) the form keeps no direction the cutoff drops.
#: X0 alone is not accurate to eps cond(G), as its cofactors cancel: on
#: 20,000 random blocks with ratios in (1e-6, 1e-3] it is up to 7e-7 off
#: np.linalg.pinv, and E0 = I - A X0 up to 2.8e-6. So every Gram block takes
#: one Newton-Schulz step X0 (2I - A X0) (Ben-Israel & Cohen, SIAM J. Numer.
#: Anal. 1966): X0 lies in A's row space, X0 = A^+ (I - E0), and the step
#: gives A^+ (I - E0^2) plus rounding of order eps cond(A). |E0|^2 alone
#: could reach 7.8e-12, so the 1e-12 agreement with the written-out pinv law
#: that the controller's tests hold rests on measurement: on those blocks the
#: result is within 4.7e-13 relative (3.3 eps cond(A)) of np.linalg.pinv, and
#: on 20,000 with ratios over 1e-3 within 1.1e-14 (X0: 1.3e-12).
GRAM_TOL = 1e-6


def _pinv(A) -> np.ndarray:
    """A^+ of a 3x9 task block A: the Gram form where the guard of
    :data:`GRAM_TOL` passes, else :func:`softarm.jacobian.pinv`."""
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = A.dot(A.T).tolist()
    c00 = g11 * g22 - g12 * g12
    c11 = g00 * g22 - g02 * g02
    c22 = g00 * g11 - g01 * g01
    c01 = g02 * g12 - g01 * g22
    c02 = g01 * g12 - g02 * g11
    c12 = g01 * g02 - g00 * g12
    det = g00 * c00 + g01 * c01 + g02 * c02
    if det > GRAM_TOL * (g00 + g11 + g22) * (c00 + c11 + c22):
        i01, i02, i12 = c01 / det, c02 / det, c12 / det
        X = A.T.dot(np.array([[c00 / det, i01, i02], [i01, c11 / det, i12],
                              [i02, i12, c22 / det]]))
        return 2.0 * X - X.dot(A.dot(X))
    return pinv(A)


def step_full(q, e: TaskError, gains: GainSchedule, cfg: ControllerConfig) -> np.ndarray:
    """One step of the configured mode's task-priority law.

    ``e`` is the task error at q. The recursion of Siciliano & Slotine
    (ICAR 1991) starts from qdot = 0 and P = I; each task k, in priority
    order, adds w_k A_k^+ (e_k - J_k qdot) with A_k = J_k P and shrinks P
    by A_k^+ A_k, so it cannot disturb the rates of the tasks above it.
    When ``gains`` carry a joint-limit schedule, in any mode, its descent
    acts in the null space that is left. No feasibility clamp: infeasible
    updates (negative elongation, hence negative commanded pressure) are
    returned as-is so the caller can flag them.

    No projector is formed. A_k is J_k with the rows of the blocks above
    removed, J_k - (J_k A_i^+) A_i, and the joint-limit gradient loses
    every block's rows the same way, x - (x A_i^+) A_i; the blocks' row
    spaces are orthogonal, so the order does not matter. Each A_k^+ is the
    right pseudoinverse A^T (A A^T)^-1 of resolved-rate control (Whitney,
    IEEE TMMS 1969) where a guard finds cond(A A^T) < 1e6, and the
    truncated SVD elsewhere (:func:`_pinv`): at and next to straight
    configurations, where the orientation block has rank 2 or nearly so,
    and for zero and non-finite blocks.

    ``ConventionalRR`` is the two-task recursion at weights (1, 1): J^+ e
    wherever J has full row rank. An SVD cutoff is relative to its own
    block, so next to fully straight the orientation block can drop a
    direction J^+ keeps: 7.4e-8 (relative) off J^+ e at a 2e-9 m bend.
    """
    q = as_actuator_vector(q)
    schedule = gains.joint_limit
    gamma = 0.0 if schedule is None else schedule.gamma(tracked_norms(e, cfg.mode))
    # FullThreeTask weights its tasks by its gains, every other mode by 1.
    weights = ((gains.gamma_position, gains.gamma_orientation)
               if cfg.mode is ControllerMode.FullThreeTask else (1.0, 1.0))
    J = jacobian(q, cfg.geometry).J
    qdot = None  # qdot = 0 until the first task
    blocks = []  # (A_k, A_k^+) of the tasks so far
    for tracked, J_k, residual, weight in zip(TRACKS[cfg.mode], (J[:3], J[3:]),
                                              (e.e_p, e.e_zeta), weights):
        if not tracked:
            continue
        A = J_k
        if qdot is not None:
            residual = residual - J_k.dot(qdot)
        for A_i, A_i_pinv in blocks:
            A = A - A.dot(A_i_pinv).dot(A_i)
        A_pinv = _pinv(A)
        rate = weight * A_pinv.dot(residual)
        qdot = rate if qdot is None else qdot + rate
        blocks.append((A, A_pinv))
    if gamma != 0.0:
        x = jl_gradient(q, cfg.joint_limits)
        for A, A_pinv in blocks:
            x = x - x.dot(A_pinv).dot(A)
        qdot = qdot + gamma * x
    return q + gains.alpha * qdot


@dataclass
class Trajectory:
    """Per-step record of a closed-loop solve. Row 0 is the initial state."""

    qs: np.ndarray
    positions: np.ndarray
    rotvecs: np.ndarray
    err_pos: np.ndarray
    err_rot: np.ndarray
    err_pos_true: np.ndarray
    err_rot_true: np.ndarray
    infeasible: np.ndarray
    converged: bool
    diverged: bool

    @property
    def iterations_used(self) -> int:
        return self.qs.shape[0] - 1

    @property
    def any_infeasible(self) -> bool:
        return bool(self.infeasible.any())


def _tolerance_met(e: TaskError, norms: tuple, cfg: ControllerConfig) -> bool:
    position, rot = norms  # tracked_norms(e, cfg.mode)
    if rot and cfg.orientation_error_axes is not None:  # an untracked error reads 0
        rot = norm(e.e_zeta[list(cfg.orientation_error_axes)])
    return position <= cfg.position_tolerance and rot <= cfg.orientation_tolerance


def solve(q0, desired: Pose, gains: GainSchedule, cfg: ControllerConfig, plant) -> Trajectory:
    """Run the configured step law in closed loop until the error tolerance,
    the iteration budget, or :class:`Divergence` of the tracked norms.

    ``plant`` is any object with ``reset(q0)`` and ``apply_command(q)``,
    which return observations with ``pose_filtered`` (the feedback pose)
    and ``infeasible_flags``, and ``true_pose()``, the noise-free pose the
    true errors are measured on (see :mod:`softarm.plant`).
    """
    q = as_actuator_vector(q0).copy()
    obs = plant.reset(q)

    rows = []  # per step: Trajectory's fields in order, rotations in place of their logs

    def record(q_now, observation):
        pose = observation.pose_filtered
        e = pose_error(desired.position, desired.rotation, pose)
        true_pose = plant.true_pose()
        rows.append((q_now.copy(), pose.position.copy(), pose.rotation, e.position_norm,
                     e.orientation_norm, norm(desired.position - true_pose.position),
                     desired.rotation.dot(true_pose.rotation.T), observation.infeasible_flags))
        return e

    def finish(converged, diverged):  # the logs only the record reads, one pass each
        *columns, flags = zip(*rows)
        qs, positions, rotations, *norms, true_errors = map(np.array, columns)
        rotvecs, true_rotvecs = (np.array(list(map(rows_to_rotvec, stack.tolist())))
                                 for stack in (rotations, true_errors))
        return Trajectory(qs, positions, rotvecs, *norms, np.array(list(map(norm, true_rotvecs))),
                          np.array(flags, dtype=bool), converged, diverged)

    e = record(q, obs)
    norms = tracked_norms(e, cfg.mode)
    diverging = Divergence(norms)
    for _ in range(cfg.max_iterations):
        if _tolerance_met(e, norms, cfg):
            return finish(converged=True, diverged=False)
        q = step_full(q, e, gains, cfg)
        obs = plant.apply_command(q)
        e = record(q, obs)
        norms = tracked_norms(e, cfg.mode)
        if diverging(norms):
            return finish(converged=False, diverged=True)
    return finish(converged=_tolerance_met(e, norms, cfg), diverged=False)
