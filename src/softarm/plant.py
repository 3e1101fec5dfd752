"""Simulated arm standing in for the physical hardware.

Quasi-static: a commanded elongation is scaled by a per-actuator mismatch
factor, saturated to the physical range, and pushed through the true
forward kinematics. The measured pose gets additive seeded noise and a
first-order low-pass (matching the 10 rad/s filter applied to the camera
pose stream). The filter carries its position as three floats and its
rotation as a 3x3 array. Commands known in advance play back as one batch:
one vectorized forward-kinematics pass, then the filter lane by lane, then
one stacked rotation check of every lane, with the results returned as
stacked arrays rather than an observation per command.
Commands outside the feasible elongation range are accepted but flagged,
so controllers without joint-limit handling reproduce the infeasible
negative-pressure behavior.
"""

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    N_ACTUATORS,
    RobotGeometry,
    as_actuator_batch,
    as_actuator_vector,
    default_geometry,
)
from .kinematics import Pose, _check_rotations, forward_kinematics, forward_kinematics_many
from .rotations import rows_drift_and_det, rows_to_rotvec, rotvec_to_rows


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
        self._true_pose = None

    def reset(self, q0) -> PlantObservation:
        """Re-seed the RNG, drive the plant to q0, and start the filter at
        the first measured pose (no startup transient)."""
        self._rng = np.random.default_rng(self.config.rng_seed)
        self._filtered = None
        return self.apply_command(q0)

    def true_pose(self) -> Pose | None:
        """Noise-free pose of the physical arm (simulation ground truth),
        as of the last command; None before the first."""
        return self._true_pose

    def _model(self, q_cmd: np.ndarray) -> tuple:
        """The infeasible flags of a (9,) command or an (N, 9) batch, and the
        elongations the arm takes: scaled by the mismatch, then saturated."""
        lower, upper = self._limits.lower, self._limits.upper
        return ((q_cmd < lower) | (q_cmd > upper),
                np.minimum(np.maximum(q_cmd * self._scale, lower), upper))

    def apply_command(self, q_cmd) -> PlantObservation:
        flags, q_true = self._model(as_actuator_vector(q_cmd))
        pose_true = forward_kinematics(q_true, self.config.true_geometry)
        self._true_pose = pose_true
        position_f, rotation_f = self._filter(*pose_true.position.tolist(), pose_true.rotation)
        return PlantObservation(Pose._checked(np.array(position_f), rotation_f,
                                              *rows_drift_and_det(rotation_f.tolist())), flags)

    def apply_commands(self, q_cmds) -> tuple:
        """Open-loop playback of the rows of the (N, 9) array q_cmds: N
        :meth:`apply_command` calls, in order and byte for byte, returned as
        stacked arrays. They are the infeasible flags (N, 9), the true
        positions (N, 3), and the filtered positions (N, 3) and rotations
        (N, 3, 3).

        The commands are validated, flagged and saturated at once, before
        any is sent, and their true poses come from one
        :func:`~softarm.kinematics.forward_kinematics_many`. Noise and filter
        then advance lane by lane, and the filtered rotations take the check
        a Pose makes in one stacked pass after the last lane. A lane that
        fails it raises only then, and the plant is left as it was before
        the batch: filter state, noise stream and :meth:`true_pose`.
        Otherwise :meth:`true_pose` is the last lane's pose afterwards.
        """
        flags, q_true = self._model(as_actuator_batch(q_cmds))
        positions, rotations = forward_kinematics_many(q_true, self.config.true_geometry)
        filtered, rng_state = self._filtered, self._rng.bit_generator.state
        try:
            lanes = list(map(self._filter, *positions.T.tolist(), rotations))
            positions_f = np.array([position_f for position_f, _ in lanes]).reshape(-1, 3)
            rotations_f = np.array([rotation_f for _, rotation_f in lanes]).reshape(-1, 3, 3)
            _check_rotations(rotations_f.transpose(1, 2, 0))
        except ValueError:
            self._filtered, self._rng.bit_generator.state = filtered, rng_state
            raise
        if len(flags):  # The returned positions are the caller's; keep a copy.
            self._true_pose = Pose(positions[-1].copy(), rotations[-1])
        return flags, positions, positions_f, rotations_f

    def _filter(self, p0: float, p1: float, p2: float, rotation: np.ndarray) -> tuple:
        """Observe the arm at the true position (p0, p1, p2) and
        ``rotation``: seeded noise, then the low-pass filter. Returns the
        filtered position as three floats and the filtered rotation. Each
        position component takes the one IEEE add (noise), and the subtract,
        multiply and add (filter), that (3,) array arithmetic gives it, so
        its bytes are the same; the rotation products stay in numpy, whose
        rounding they define. The noise is one ``standard_normal`` draw, the
        position's values first, each 0.0 + std * z as numpy's ``normal``."""
        p_std, r_std = self.config.position_noise_std, self.config.rotation_noise_std
        if p_std > 0 or r_std > 0:
            z = self._rng.standard_normal(6 if p_std > 0 and r_std > 0 else 3).tolist()
            if p_std > 0:
                p0, p1, p2 = (p0 + (0.0 + p_std * z[0]), p1 + (0.0 + p_std * z[1]),
                              p2 + (0.0 + p_std * z[2]))
            if r_std > 0:
                w0, w1, w2 = z[-3:]
                rotation = np.array(rotvec_to_rows(0.0 + r_std * w0, 0.0 + r_std * w1,
                                                   0.0 + r_std * w2)).dot(rotation)

        if self._filtered is None:
            position_f, rotation_f = (p0, p1, p2), rotation
        else:
            alpha = self._alpha
            (f0, f1, f2), rotation_f = self._filtered
            position_f = f0 + alpha * (p0 - f0), f1 + alpha * (p1 - f1), f2 + alpha * (p2 - f2)
            # Filter the incremental axis-angle so the state stays a rotation.
            w0, w1, w2 = rows_to_rotvec(rotation.dot(rotation_f.T).tolist())
            rotation_f = np.array(
                rotvec_to_rows(alpha * w0, alpha * w1, alpha * w2)).dot(rotation_f)
        self._filtered = position_f, rotation_f
        return position_f, rotation_f
