"""Differential kinematics: the stacked 6x9 Jacobian and pseudoinverse tools.

Columns are computed by central finite differences on the forward
kinematics, which keeps the FK as the single source of truth for the
geometry. The angular part is the spatial angular velocity
(dR/dq_m R^T)^vee expressed in the base frame.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import N_ACTUATORS, RobotGeometry, as_actuator_vector
from .kinematics import STRAIGHT_S_THRESHOLD, bending_measures, fk_batch
from .rotations import vee

#: Central-difference step (m) for the Jacobian columns.
FD_STEP = 1e-7

#: Default relative singular-value cutoff for pseudoinverses.
SV_TOL = 1e-8


class FullyStraightConfiguration(Exception):
    """Raised when every section is exactly straight; perturb and retry."""


@dataclass(frozen=True)
class Jacobian6x9:
    Jv: np.ndarray  # 3x9 linear part, m/m
    Jw: np.ndarray  # 3x9 angular part, rad/m

    @property
    def J(self) -> np.ndarray:
        return np.concatenate((self.Jv, self.Jw))


def jacobian(q, geom: RobotGeometry, h: float = FD_STEP) -> Jacobian6x9:
    """6x9 end-effector Jacobian at q via central finite differences.

    All 19 configurations [q; q + h e_m; q - h e_m] go through one batched
    FK call. Raises FullyStraightConfiguration when all three sections are
    exactly straight, mirroring the perturbation rule the controller
    applies to its initial state.
    """
    q = as_actuator_vector(q)
    if np.all(bending_measures(q) < STRAIGHT_S_THRESHOLD):
        raise FullyStraightConfiguration(
            "Jacobian undefined at the fully straight configuration")
    steps = h * np.eye(N_ACTUATORS)
    P, R = fk_batch(q + np.vstack([np.zeros(N_ACTUATORS), steps, -steps]), geom)
    plus, minus = slice(1, 1 + N_ACTUATORS), slice(1 + N_ACTUATORS, None)
    Jv = ((P[plus] - P[minus]) / (2.0 * h)).T
    Jw = vee(((R[plus] - R[minus]) / (2.0 * h)) @ R[0].T).T
    return Jacobian6x9(Jv=Jv, Jw=Jw)


def pinv(M, sv_tol: float = SV_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values below sv_tol * sigma_max
    are treated as zero."""
    return np.linalg.pinv(np.asarray(M, dtype=float), rcond=sv_tol)


def null_projector(M, sv_tol: float = SV_TOL) -> np.ndarray:
    """Projector I - M^+ M onto the null space of M."""
    M = np.asarray(M, dtype=float)
    return np.eye(M.shape[1]) - pinv(M, sv_tol) @ M
