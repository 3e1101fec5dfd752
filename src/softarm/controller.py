"""Resolved-rate control with task-priority redundancy resolution.

One step law, :func:`step_full`, serves every :class:`ControllerMode`. A
mode is an entry of :data:`TASK_STACKS`: the rows of the stacked 6-D pose
error its tasks track, in priority order, and whether an error-norm-
scheduled joint-limit descent (off near the goal) fills the null space
that is left. The modes are conventional resolved rate on the 6-D error,
position or orientation with joint-limit avoidance, position before
orientation, and the full three-task law: position, then orientation in
the position null space, then joint-limit avoidance.

``solve`` iterates the step law in closed loop against a plant, reading
the current pose from plant feedback rather than from the kinematic model.
"""

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import JointLimits, RobotGeometry, as_actuator_vector, norm
from .jacobian import SV_TOL, jacobian
from .kinematics import Pose
from .rotations import matrix_to_rotvec


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


class ErrorNorms(NamedTuple):
    """The position (m) and orientation (rad) error norms a mode tracks; an
    error the mode does not track reads 0."""

    position_norm: float
    orientation_norm: float


def pose_error(desired: Pose, current: Pose) -> TaskError:
    """Base-frame task error: e_p = p_d - p_c, e_zeta = axis-angle of
    R_d R_c^T (consistent with the spatial angular Jacobian)."""
    e_p = desired.position - current.position
    e_zeta = matrix_to_rotvec(desired.rotation @ current.rotation.T)
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
    threshold_metric: str = "position"  # "position" (m) or "orientation" (rad)

    def __post_init__(self):
        if self.threshold_metric not in ("position", "orientation"):
            raise ValueError("threshold_metric must be 'position' or 'orientation'")
        if not np.isfinite((self.value_far, self.switch_threshold)).all():
            raise ValueError("value_far and switch_threshold must be finite")

    def gamma(self, error: TaskError | ErrorNorms) -> float:
        norm = (error.position_norm if self.threshold_metric == "position"
                else error.orientation_norm)
        return self.value_far if norm > self.switch_threshold else 0.0


@dataclass(frozen=True)
class GainSchedule:
    """Step gain plus the secondary-task gains of the redundancy laws.

    ``gamma_position`` and ``gamma_orientation`` weight the position and
    orientation tasks of the two-task modes (single-task modes use weight
    1); ``joint_limit`` schedules the avoidance gain (None disables the
    term entirely).
    """

    alpha: float
    gamma_position: float = 1.0
    gamma_orientation: float = 0.0
    joint_limit: JointLimitSchedule | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def gamma_jl(self, error: TaskError | ErrorNorms) -> float:
        return 0.0 if self.joint_limit is None else self.joint_limit.gamma(error)


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
            threshold_metric="orientation",
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
    PosOriPriority = "PosOriPriority"
    FullThreeTask = "FullThreeTask"


POSITION, ORIENTATION, POSE = slice(0, 3), slice(3, 6), slice(0, 6)


@dataclass(frozen=True)
class TaskStack:
    """A mode's law: one slice of the stacked error [e_p; e_zeta] per task,
    in priority order, and whether the joint-limit descent is on."""

    tasks: tuple
    joint_limit: bool

    @cached_property
    def tracks(self) -> tuple:
        """Whether some task tracks the position, and the orientation, error."""
        return (any(t.start < 3 for t in self.tasks), any(t.stop > 3 for t in self.tasks))

    def norms(self, e: TaskError) -> ErrorNorms:
        """The norms of ``e``, 0 for an error no task tracks."""
        position, orientation = self.tracks
        return ErrorNorms(e.position_norm if position else 0.0,
                          e.orientation_norm if orientation else 0.0)


TASK_STACKS = {
    ControllerMode.ConventionalRR: TaskStack((POSE,), joint_limit=False),
    ControllerMode.PositionWithJL: TaskStack((POSITION,), joint_limit=True),
    ControllerMode.OrientationWithJL: TaskStack((ORIENTATION,), joint_limit=True),
    ControllerMode.PosOriPriority: TaskStack((POSITION, ORIENTATION), joint_limit=False),
    ControllerMode.FullThreeTask: TaskStack((POSITION, ORIENTATION), joint_limit=True),
}


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
    divergence_factor: float = 10.0
    divergence_window: int = 50

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


def step_full(q, e: TaskError, gains: GainSchedule, cfg: ControllerConfig) -> np.ndarray:
    """One step of the configured mode's task-priority law.

    ``e`` is the task error at q. The recursion of Siciliano & Slotine
    (ICAR 1991) starts from qdot = 0 and P = I; each task k, in priority
    order, adds w_k (J_k P)^+ (e_k - J_k qdot) and shrinks P by
    (J_k P)^+ J_k P, so it cannot disturb the rates of the tasks above it.
    The scheduled joint-limit descent, where the mode has it, acts in the
    null space that is left. No feasibility clamp: infeasible updates
    (negative elongation, hence negative commanded pressure) are returned
    as-is so the caller can flag them.

    The recursion runs on SVD factors, in the null-space-basis form of
    hierarchical least squares (Escande, Mansard & Wieber, IJRR 2014), and
    forms no pseudoinverse and no projector: P = N N^T for an orthonormal
    basis N of the null space left, so with A_k = J_k N = U S V^T and r the
    number of singular values above ``SV_TOL`` times the largest,
    (J_k P)^+ = N V_r^T S_r^-1 U_r^T and the next basis is N V[r:]^T. The
    last task takes the thin SVD; the joint-limit term then removes its
    rows V_r from N^T grad H instead of shrinking N.
    """
    q = as_actuator_vector(q)
    stack = TASK_STACKS[cfg.mode]
    gamma = gains.gamma_jl(stack.norms(e)) if stack.joint_limit else 0.0
    weights = (gains.gamma_position, gains.gamma_orientation)  # two-task modes only
    J = jacobian(q, cfg.geometry).J
    last = len(stack.tasks) - 1
    qdot = N = None  # qdot = 0 and N = I until the first task
    for k, rows in enumerate(stack.tasks):
        J_k = J[rows]
        e_k = (e.e_p if rows is POSITION else e.e_zeta if rows is ORIENTATION
               else np.concatenate([e.e_p, e.e_zeta])[rows])
        if N is None:
            A, residual = J_k, e_k
        else:
            A, residual = J_k @ N, e_k - J_k @ qdot
        u, s, vt = np.linalg.svd(A, full_matrices=k < last)
        sigmas = s.tolist()
        cut = SV_TOL * sigmas[0]
        rank = len([sigma for sigma in sigmas if sigma > cut])
        v_r = vt[:rank]
        rate = ((residual @ u[:, :rank]) / s[:rank]) @ v_r  # A^+ residual, in N's coordinates
        if N is None:
            qdot = rate if last == 0 else weights[0] * rate  # one task: weight 1
        else:
            qdot = qdot + weights[k] * (N @ rate)
        if k < last:
            N = vt[rank:].T if N is None else N @ vt[rank:].T
    if gamma != 0.0:
        grad = jl_gradient(q, cfg.joint_limits)
        x = grad if N is None else grad @ N
        x = x - (v_r @ x) @ v_r  # project out the last task's rows
        qdot = qdot + gamma * (x if N is None else N @ x)
    return q + gains.alpha * qdot


@dataclass
class Trajectory:
    """Per-step record of a closed-loop solve. Row 0 is the initial state."""

    mode: str
    qs: np.ndarray
    pressures: np.ndarray
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


def _tolerance_met(e: TaskError, norms: ErrorNorms, cfg: ControllerConfig) -> bool:
    rot = norms.orientation_norm
    if rot and cfg.orientation_error_axes is not None:  # an untracked error reads 0
        rot = norm(e.e_zeta[list(cfg.orientation_error_axes)])
    return norms.position_norm <= cfg.position_tolerance and rot <= cfg.orientation_tolerance


def solve(q0, desired: Pose, gains: GainSchedule, cfg: ControllerConfig, plant) -> Trajectory:
    """Run the configured step law in closed loop until the error tolerance,
    the iteration budget, or sustained divergence.

    ``plant`` is any object with ``reset(q0)`` and ``apply_command(q)``,
    which return observations with ``pose_filtered`` (the feedback pose),
    ``pressures`` and ``infeasible_flags``, and ``true_pose()``, the
    noise-free pose the true errors are measured on (see
    :mod:`softarm.plant`).
    Stops with ``diverged=True`` when a tracked error norm stays above
    ``divergence_factor`` times its initial value for ``divergence_window``
    consecutive steps.
    """
    q = as_actuator_vector(q0).copy()
    obs = plant.reset(q)

    rows = []  # one tuple per step, in the order of Trajectory's array fields

    def record(q_now, observation):
        pose = observation.pose_filtered
        e = pose_error(desired, pose)
        true_pose = plant.true_pose()
        rows.append((q_now.copy(), observation.pressures, pose.position.copy(),
                     matrix_to_rotvec(pose.rotation), e.position_norm, e.orientation_norm,
                     norm(desired.position - true_pose.position),
                     norm(matrix_to_rotvec(desired.rotation @ true_pose.rotation.T)),
                     observation.infeasible_flags))
        return e

    def finish(converged, diverged):
        *columns, flags = zip(*rows)
        return Trajectory(cfg.mode.value, *map(np.array, columns),
                          np.array(flags, dtype=bool), converged, diverged)

    tracked_norms = TASK_STACKS[cfg.mode].norms
    e = record(q, obs)
    norms = norms0 = tracked_norms(e)
    growth_streak = 0
    for _ in range(cfg.max_iterations):
        if _tolerance_met(e, norms, cfg):
            return finish(converged=True, diverged=False)
        q = step_full(q, e, gains, cfg)
        obs = plant.apply_command(q)
        e = record(q, obs)
        norms = tracked_norms(e)
        ratio = max((now / start for now, start in zip(norms, norms0) if start > 1e-12),
                    default=0.0)
        if ratio > cfg.divergence_factor:
            growth_streak += 1
            if growth_streak >= cfg.divergence_window:
                return finish(converged=False, diverged=True)
        else:
            growth_streak = 0
    return finish(converged=_tolerance_met(e, norms, cfg), diverged=False)
