"""Simulated arm standing in for the physical hardware.

Quasi-static: a commanded elongation is scaled by a per-actuator mismatch
factor, saturated to the physical range, and pushed through the true
forward kinematics. The measured pose gets additive seeded noise and a
first-order low-pass (matching the 10 rad/s filter applied to the camera
pose stream). Commands known in advance play back as one batch, through
one vectorized forward-kinematics pass. Commands outside the feasible
elongation range are accepted but flagged, so controllers without
joint-limit handling reproduce the infeasible negative-pressure behavior.
"""

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    N_ACTUATORS,
    RobotGeometry,
    as_actuator_batch,
    as_actuator_vector,
    default_geometry,
    elongation_to_pressure,
)
from .kinematics import Pose, forward_kinematics, forward_kinematics_many
from .rotations import rows_drift_and_det, rows_to_rotvec, rotvec_to_matrix, rotvec_to_rows


@dataclass(frozen=True)
class PlantConfig:
    true_geometry: RobotGeometry = field(default_factory=default_geometry)
    # Multiplicative elongation mismatch per actuator (0 = perfect model).
    length_scale_error: np.ndarray = field(default_factory=lambda: np.zeros(N_ACTUATORS))
    position_noise_std: float = 0.0   # m
    rotation_noise_std: float = 0.0   # rad
    filter_cutoff: float = 10.0       # rad/s
    dt: float = 0.05                  # s
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "length_scale_error",
            np.broadcast_to(np.asarray(self.length_scale_error, dtype=float),
                            (N_ACTUATORS,)).copy())
        if not np.isfinite(self.length_scale_error).all():
            raise ValueError("length_scale_error must be finite")
        if not self.filter_cutoff > 0:
            raise ValueError("filter_cutoff must be positive")
        if not (0 <= self.position_noise_std < np.inf and 0 <= self.rotation_noise_std < np.inf):
            raise ValueError("noise std must be finite and non-negative")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class PlantObservation:
    pose_filtered: Pose
    pressures: np.ndarray         # psi, from the command (can be negative)
    infeasible_flags: np.ndarray  # per actuator: command outside [0, l_max]


class Plant:
    """Single-owner mutable simulation of the arm; one instance per run."""

    def __init__(self, config: PlantConfig | None = None):
        self.config = config or PlantConfig()
        self._limits = self.config.true_geometry.joint_limits()
        self._scale = 1.0 + self.config.length_scale_error
        self._rng = np.random.default_rng(self.config.rng_seed)
        # First-order low-pass with unit DC gain, discretized step-invariantly:
        # y_k = y_{k-1} + a (x_k - y_{k-1}), a = 1 - exp(-cutoff * dt).
        self._alpha = float(1.0 - np.exp(-self.config.filter_cutoff * self.config.dt))
        self._filtered = None  # (position, rotation) after the last measurement
        self._true_pose = forward_kinematics(np.zeros(N_ACTUATORS),
                                             self.config.true_geometry)

    def reset(self, q0) -> PlantObservation:
        """Re-seed the RNG, drive the plant to q0, and start the filter at
        the first measured pose (no startup transient)."""
        self._rng = np.random.default_rng(self.config.rng_seed)
        self._filtered = None
        return self.apply_command(q0)

    def true_pose(self) -> Pose:
        """Noise-free pose of the physical arm (simulation ground truth),
        as of the last command."""
        return self._true_pose

    def apply_command(self, q_cmd) -> PlantObservation:
        q_cmd = as_actuator_vector(q_cmd)
        limits = self._limits
        flags = (q_cmd < limits.lower) | (q_cmd > limits.upper)
        pose_true = forward_kinematics(
            np.minimum(np.maximum(q_cmd * self._scale, limits.lower), limits.upper),
            self.config.true_geometry)
        return self._measure(pose_true, elongation_to_pressure(q_cmd), flags)

    def apply_commands(self, q_cmds) -> Iterator[PlantObservation]:
        """Open-loop playback of the rows of the (N, 9) array q_cmds: the
        observations of N :meth:`apply_command` calls, in order.

        The commands are validated, flagged, converted and saturated at
        once, and their true poses come from one
        :func:`~softarm.kinematics.forward_kinematics_many`. Noise, filter
        and :meth:`true_pose` advance as each observation is drawn from the
        returned iterator.
        """
        q_cmds = as_actuator_batch(q_cmds)
        limits = self._limits
        flags = (q_cmds < limits.lower) | (q_cmds > limits.upper)
        poses_true = forward_kinematics_many(
            np.minimum(np.maximum(q_cmds * self._scale, limits.lower), limits.upper),
            self.config.true_geometry)
        return map(self._measure, poses_true, elongation_to_pressure(q_cmds), flags)

    def _measure(self, pose_true: Pose, pressures: np.ndarray,
                 flags: np.ndarray) -> PlantObservation:
        """Take the arm to ``pose_true`` and observe it: seeded noise, then
        the low-pass filter."""
        self._true_pose = pose_true
        position_raw = pose_true.position
        rotation_raw = pose_true.rotation
        if self.config.position_noise_std > 0:
            position_raw = position_raw + self._rng.normal(
                0.0, self.config.position_noise_std, 3)
        if self.config.rotation_noise_std > 0:
            wobble = self._rng.normal(0.0, self.config.rotation_noise_std, 3)
            rotation_raw = rotvec_to_matrix(wobble) @ rotation_raw

        if self._filtered is None:
            position_f, rotation_f = position_raw.copy(), rotation_raw
        else:
            alpha = self._alpha
            position_f, rotation_f = self._filtered
            position_f = position_f + alpha * (position_raw - position_f)
            # Filter the incremental axis-angle so the state stays a rotation.
            # The 3x3 products stay in numpy, whose rounding they define.
            w0, w1, w2 = rows_to_rotvec((rotation_raw @ rotation_f.T).tolist())
            rotation_f = np.array(rotvec_to_rows(alpha * w0, alpha * w1, alpha * w2)) @ rotation_f
        self._filtered = position_f, rotation_f
        pose_filtered = Pose._checked(position_f, rotation_f,
                                      *rows_drift_and_det(rotation_f.tolist()))

        return PlantObservation(
            pose_filtered=pose_filtered,
            pressures=pressures,
            infeasible_flags=flags,
        )
