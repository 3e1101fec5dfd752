"""Independent brute-force references used only by the test suite.

These deliberately share no code with the package: the reference forward
kinematics builds each section arc from many small sub-arc segments (with
its own derivation of the arc parameters), derivatives come from plain
central differences, and rotation logs go through scipy's matrix logarithm.
"""

import numpy as np
import scipy.linalg

DEFAULT_SEGMENTS = 10_000
STRAIGHT_TOL = 1e-9


def _homogeneous(R, p):
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = p
    return T


def _rz(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _ry(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _section_transform_sampled(lengths, radius, initial_length, n_segments):
    """Section end-plate transform built from n small sub-arc steps.

    Arc parameters re-derived from the bending vector
    u = (l2 + l3 - 2 l1, sqrt(3) (l3 - l2)) whose magnitude is twice the
    bending measure; the arc length comes from the mean elongation. Each
    sub-arc is a half-rotation / chord / half-rotation step, so the
    discretization error is second order in 1/n.
    """
    l1, l2, l3 = (float(v) for v in lengths)
    arc = initial_length + (l1 + l2 + l3) / 3.0
    u = np.array([l2 + l3 - 2.0 * l1, np.sqrt(3.0) * (l3 - l2)])
    s = 0.5 * float(np.hypot(u[0], u[1]))
    if s < STRAIGHT_TOL:
        return _homogeneous(np.eye(3), [0.0, 0.0, arc])
    theta = float(np.arctan2(u[1], u[0]))
    phi = 2.0 * s / (3.0 * radius)
    dphi = phi / n_segments
    ds = arc / n_segments
    half = _homogeneous(_ry(dphi / 2.0), np.zeros(3))
    chord = _homogeneous(np.eye(3), [0.0, 0.0, ds])
    sub = half @ chord @ half
    T = np.linalg.matrix_power(sub, n_segments)
    # Undo the small orthonormality drift of the repeated squaring.
    U, _, Vt = np.linalg.svd(T[:3, :3])
    T[:3, :3] = U @ Vt
    Rz = _homogeneous(_rz(theta), np.zeros(3))
    return Rz @ T @ np.linalg.inv(Rz)


def fk_reference(q, geom, n_segments: int = DEFAULT_SEGMENTS):
    """Segment-sampled end-effector transform; returns (position, rotation)."""
    q = np.asarray(q, dtype=float)
    T = np.eye(4)
    for i, sec in enumerate(geom.sections):
        T = T @ _section_transform_sampled(
            q[3 * i:3 * i + 3], sec.radius, sec.initial_length, n_segments)
        T = T @ _homogeneous(np.eye(3), [0.0, 0.0, sec.plate_offset_length])
        T = T @ _homogeneous(_rz(sec.plate_offset_angle), np.zeros(3))
    return T[:3, 3].copy(), T[:3, :3].copy()


def rotation_angle_between(Ra, Rb) -> float:
    """Geodesic angle between two rotation matrices.

    Uses ||Ra - Rb||_F = 2 sqrt(2) sin(angle/2), which stays
    well-conditioned for small angles (unlike the trace/arccos form).
    """
    fro = np.linalg.norm(np.asarray(Ra) - np.asarray(Rb))
    return float(2.0 * np.arcsin(np.clip(fro / (2.0 * np.sqrt(2.0)), -1.0, 1.0)))


def log_rotvec(R) -> np.ndarray:
    """Axis-angle via the matrix logarithm (independent of the package's
    quaternion-based conversion)."""
    S = scipy.linalg.logm(np.asarray(R, dtype=float))
    S = np.real(S)
    return np.array([S[2, 1], S[0, 2], S[1, 0]])


def fd_jacobian(q, geom, h: float = 1e-6, fk=None, n_segments: int = DEFAULT_SEGMENTS):
    """Central-difference 6x9 Jacobian; defaults to the reference FK so both
    the differencing step and the kinematics differ from the package's own.
    Returns (Jv, Jw)."""
    if fk is None:
        def fk(qq):
            return fk_reference(qq, geom, n_segments)
    q = np.asarray(q, dtype=float)
    _, R0 = fk(q)
    Jv = np.empty((3, q.size))
    Jw = np.empty((3, q.size))
    for m in range(q.size):
        dq = np.zeros(q.size)
        dq[m] = h
        p_plus, R_plus = fk(q + dq)
        p_minus, R_minus = fk(q - dq)
        Jv[:, m] = (p_plus - p_minus) / (2.0 * h)
        S = ((R_plus - R_minus) / (2.0 * h)) @ R0.T
        Jw[:, m] = 0.5 * np.array([S[2, 1] - S[1, 2], S[0, 2] - S[2, 0], S[1, 0] - S[0, 1]])
    return Jv, Jw


def fd_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.empty(x.size)
    for m in range(x.size):
        dx = np.zeros(x.size)
        dx[m] = h
        g[m] = (f(x + dx) - f(x - dx)) / (2.0 * h)
    return g


def random_feasible_q(rng, limits, margin_fraction: float = 0.1) -> np.ndarray:
    """Uniform draw from the limit box shrunk by a fractional margin."""
    span = limits.upper - limits.lower
    lo = limits.lower + margin_fraction * span
    hi = limits.upper - margin_fraction * span
    return rng.uniform(lo, hi)


def tail_rate(k: float, cutoff: float, dt: float) -> float:
    """Per-step decay rate of a task's error near the goal of the filtered
    resolved-rate loop with step gain k: the dominant eigenvalue of
    [[1, -k], [a, 1 - a - a k]], a = 1 - exp(-cutoff dt), which maps the
    true and low-pass filtered errors (e, f) of one step to the next
    (e' = e - k f, f' = f + a (e' - f))."""
    a = 1.0 - np.exp(-cutoff * dt)
    return float(np.abs(np.linalg.eigvals([[1.0, -k], [a, 1.0 - a - a * k]])).max())
