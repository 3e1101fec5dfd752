"""Differential kinematics: the stacked 6x9 Jacobian and pseudoinverse tools.

The Jacobian is the closed-form derivative of the section transforms of
:mod:`softarm.kinematics`. Each section is the exponential of a twist
linear in u = (c0, c1, arc), and u is linear in the section's
elongations, so J = J_u du/dq with a constant block-diagonal du/dq
(:attr:`RobotGeometry.actuator_map`). The
angular part is the spatial angular velocity (dR/dq_m R^T)^vee expressed
in the base frame.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import RobotGeometry
from .kinematics import section_chain

#: Relative singular-value cutoff of :func:`pinv`, the package's one
#: truncated-SVD pseudoinverse and the controller step's SVD fallback: it
#: drops the singular values at or below SV_TOL times the largest, so
#: SV_TOL alone decides a task block's rank.
SV_TOL = 1e-8


@dataclass(frozen=True)
class Jacobian6x9:
    J: np.ndarray  # 6x9 stack: linear part (m/m) over angular part (rad/m)


def jacobian(q, geom: RobotGeometry) -> Jacobian6x9:
    """6x9 end-effector Jacobian at q, in closed form.

    Per section, with w = (-c1, c0, 0), W its skew matrix and phi = |c|:
    the arc end point p = arc (b c0, b c1, a) has dp/dc_k = arc (beta c_k c
    + b e_k, alpha c_k) and dp/darc = (b c0, b c1, a); the spatial angular
    velocity is (I + b W + g W^2) dw/du. Rotated by the base-frame rotation
    R of the section's base plate, a column moves the end effector by
    Jw = R omega and Jv = R dp + Jw x (p_E - o), o being the base-frame end
    of the arc. The coefficients are exact at phi = 0, so straight sections
    need no branch; with all three straight the stack loses the torsion
    direction and has rank 5.
    """
    (e0, e1, e2), _, sections = section_chain(q, geom)
    flat = []
    for (c0, c1, arc, (a, b, g, alpha, beta),
         r00, r01, r02, r10, r11, r12, r20, r21, r22, o0, o1, o2) in sections:
        d0, d1, d2 = e0 - o0, e1 - o1, e2 - o2
        bc0 = beta * c0
        bc1 = beta * c1
        gc0 = g * c0
        # Local (dp, omega) along c0, c1 and arc.
        for p0, p1, p2, w0, w1, w2 in (
                (arc * (bc0 * c0 + b), arc * bc0 * c1, arc * alpha * c0,
                 -gc0 * c1, 1.0 - g * c1 * c1, -b * c1),
                (arc * bc1 * c0, arc * (bc1 * c1 + b), arc * alpha * c1,
                 gc0 * c0 - 1.0, gc0 * c1, b * c0),
                (b * c0, b * c1, a, 0.0, 0.0, 0.0)):
            x = r00 * w0 + r01 * w1 + r02 * w2
            y = r10 * w0 + r11 * w1 + r12 * w2
            z = r20 * w0 + r21 * w1 + r22 * w2
            flat += (r00 * p0 + r01 * p1 + r02 * p2 + y * d2 - z * d1,
                     r10 * p0 + r11 * p1 + r12 * p2 + z * d0 - x * d2,
                     r20 * p0 + r21 * p1 + r22 * p2 + x * d1 - y * d0, x, y, z)
    # Row m of the 9x6 array is local column m, so its transpose is J_u.
    return Jacobian6x9(J=np.fromiter(flat, float, 54).reshape(9, 6).T.dot(geom.actuator_map))


def pinv(M) -> np.ndarray:
    """Moore-Penrose pseudoinverse; singular values at or below
    SV_TOL * sigma_max are treated as zero. The same steps and bytes as
    ``np.linalg.pinv(M, rcond=SV_TOL)``, without its general wrapper."""
    u, s, vt = np.linalg.svd(np.asarray(M, dtype=float), full_matrices=False)
    large = s > SV_TOL * s.max()
    s = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    return vt.T.dot(s[:, None] * u.T)
