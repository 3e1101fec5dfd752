"""Small rotation-matrix helpers shared across the package.

All rotations are 3x3 proper rotation matrices acting on base-frame
coordinates unless stated otherwise.
"""

import numpy as np
from scipy.spatial.transform import Rotation


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, c, -s],
                     [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s],
                     [0.0, 1.0, 0.0],
                     [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0],
                     [s, c, 0.0],
                     [0.0, 0.0, 1.0]])


def skew(w) -> np.ndarray:
    """Skew-symmetric matrix S such that S @ v = w x v."""
    w = np.asarray(w, dtype=float)
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def vee(S) -> np.ndarray:
    """Inverse of skew(); symmetrized so it is exact on exact skew input.
    S may be a stack (..., 3, 3)."""
    S = np.asarray(S, dtype=float)
    return 0.5 * np.stack([S[..., 2, 1] - S[..., 1, 2],
                           S[..., 0, 2] - S[..., 2, 0],
                           S[..., 1, 0] - S[..., 0, 1]], axis=-1)


def rotvec_to_matrix(w) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (angle = norm, radians)."""
    return Rotation.from_rotvec(np.asarray(w, dtype=float)).as_matrix()


def matrix_to_rotvec(R) -> np.ndarray:
    """Principal axis-angle vector of a rotation matrix; norm is <= pi."""
    return Rotation.from_matrix(np.asarray(R, dtype=float)).as_rotvec()


def orthonormalize(R) -> np.ndarray:
    """Nearest proper rotation (Frobenius sense) via SVD; R may be a stack
    (..., 3, 3)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    U[..., :, 2] *= np.sign(np.linalg.det(U @ Vt))[..., None]
    return U @ Vt


def rotation_drift(R) -> float:
    """Frobenius norm of R^T R - I (orthonormality defect)."""
    R = np.asarray(R, dtype=float)
    return float(np.linalg.norm(R.T @ R - np.eye(3)))
