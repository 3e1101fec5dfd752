"""Small rotation-matrix helpers shared across the package.

All rotations are 3x3 proper rotation matrices acting on base-frame
coordinates unless stated otherwise.

The rotation log and exp are scalar closed forms of the algorithms in
``scipy.spatial.transform.Rotation`` (quaternion from matrix by the
largest-of pivot of F. L. Markley, "Unit quaternion from rotation matrix",
J. Guidance, Control, and Dynamics 31(2), 2008), written with the same
floating-point operations so that both give bit-identical results. Each
is a row kernel on plain floats (:func:`rows_to_rotvec`,
:func:`rotvec_to_rows`) that the array functions wrap, so a caller that
already holds the rows skips the array round trip.
"""

import math

import numpy as np


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


#: At and below this angle (rad) the log and exp use Taylor series for
#: their angle/sin(angle/2) and sin(angle/2)/angle factors.
_SMALL_ANGLE = 1e-3


def rotvec_to_matrix(w) -> np.ndarray:
    """Rotation matrix for an axis-angle vector (angle = norm, radians)."""
    w0, w1, w2 = np.asarray(w, dtype=float).tolist()
    return np.array(rotvec_to_rows(w0, w1, w2))


def rotvec_to_rows(w0: float, w1: float, w2: float) -> tuple:
    """:func:`rotvec_to_matrix` of the vector (w0, w1, w2), as three rows
    of floats."""
    angle = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    if angle <= _SMALL_ANGLE:
        a2 = angle * angle
        scale = 0.5 - a2 / 48 + a2 * a2 / 3840
    else:
        scale = math.sin(angle / 2) / angle
    x, y, z, c = scale * w0, scale * w1, scale * w2, math.cos(angle / 2)
    x2, y2, z2, c2 = x * x, y * y, z * z, c * c
    xy, zc, xz, yc, yz, xc = x * y, z * c, x * z, y * c, y * z, x * c
    return ((x2 - y2 - z2 + c2, 2 * (xy - zc), 2 * (xz + yc)),
            (2 * (xy + zc), -x2 + y2 - z2 + c2, 2 * (yz - xc)),
            (2 * (xz - yc), 2 * (yz + xc), -x2 - y2 + z2 + c2))


def matrix_to_rotvec(R) -> np.ndarray:
    """Principal axis-angle vector of a rotation matrix; norm is <= pi.

    R must be a rotation: unlike scipy, which projects a matrix whose
    R R^T is off identity by more than 1e-12 onto the nearest rotation
    and rejects det <= 0, this reads the quaternion straight from R.
    At an angle of exactly pi the sign follows scipy's canonical
    quaternion: the first nonzero of (w, x, y, z) is positive.
    """
    return np.array(rows_to_rotvec(np.asarray(R, dtype=float).tolist()))


def rows_to_rotvec(rows) -> tuple:
    """:func:`matrix_to_rotvec` of a 3x3 matrix given as three rows of
    floats, as a tuple of three floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    trace = r00 + r11 + r22
    if r00 >= r11 and r00 >= r22 and r00 >= trace:
        x, y, z, c = 1 - trace + 2 * r00, r10 + r01, r20 + r02, r21 - r12
    elif r11 >= r22 and r11 >= trace:
        x, y, z, c = r10 + r01, 1 - trace + 2 * r11, r21 + r12, r02 - r20
    elif r22 >= trace:
        x, y, z, c = r20 + r02, r21 + r12, 1 - trace + 2 * r22, r10 - r01
    else:
        x, y, z, c = r21 - r12, r02 - r20, r10 - r01, 1 + trace
    norm = math.sqrt(x * x + y * y + z * z + c * c)
    x, y, z, c = x / norm, y / norm, z / norm, c / norm
    if (c, x, y, z) < (0.0, 0.0, 0.0, 0.0):
        x, y, z, c = -x, -y, -z, -c
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), c)
    if angle <= _SMALL_ANGLE:
        a2 = angle * angle
        scale = 2 + a2 / 12 + 7 * a2 * a2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return scale * x, scale * y, scale * z


def orthonormalize(R) -> np.ndarray:
    """Nearest proper rotation (Frobenius sense) via SVD; R may be a stack
    (..., 3, 3)."""
    U, _, Vt = np.linalg.svd(np.asarray(R, dtype=float))
    U[..., :, 2] *= np.sign(np.linalg.det(U @ Vt))[..., None]
    return U @ Vt


def rows_drift_and_det(rows) -> tuple[float, float]:
    """Orthonormality defect ||R^T R - I||_F and determinant of a 3x3
    matrix R given as three rows of floats, in one scalar pass over its
    entries."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    d00 = a * a + d * d + g * g - 1
    d11 = b * b + e * e + h * h - 1
    d22 = c * c + f * f + i * i - 1
    d01 = a * b + d * e + g * h
    d02 = a * c + d * f + g * i
    d12 = b * c + e * f + h * i
    drift = math.sqrt(d00 * d00 + d11 * d11 + d22 * d22
                      + 2 * (d01 * d01 + d02 * d02 + d12 * d12))
    return drift, a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
