"""The arm's three-fold symmetry as an oracle that needs no hand-computed number.

In every section the actuators sit 120 degrees apart, and the plate twists
are rotations about z. So rolling each section's elongations
(l1, l2, l3) -> (l3, l1, l2), q -> Pq, turns the whole arm by +120 degrees
about base z, Rz:

- FK(Pq) = (Rz p, Rz R Rz^T);
- J(Pq) P = diag(Rz, Rz) J(q);
- step_full(Pq, (Rz e_p, Rz e_zeta)) = P step_full(q, e) in every mode, with
  and without the joint-limit term (the limits are the same within a
  section, so the barrier commutes with P);
- so a clean closed-loop run toward the turned target from Pq0 is the
  permuted run.

The identities hold to rounding, and a fault that breaks the three-fold
structure (an actuator order, an axis, an index) misses them by the size of
the arm. With Rz at -120 degrees, FK misses by up to 0.95 m, and 3 of
orientation_15pts's 15 runs change outcome or length. Swapping actuators
2 and 3 of one section in the kinematics' section walk makes FK miss by up
to 0.63 m, and fails every test here. Each tolerance below is a stated
multiple of the largest error measured on draws of bent, straight and
near-straight sections (``strategies.KINDS``).

Left out, by design: the noisy suites, whose plants draw noise per base
axis, so a turned run draws different noise (position_35pts_noisy matched
on 6 of 35 targets); the suites that read a subset of the orientation
error's axes, which are base-frame components and so not turned with the
arm (near_limit_pose converges at 581 rather than 715 iterations); and the
harvest, whose berry, approach, home posture and camera layout would all
need turning, for a run that takes longer than a bundled suite.
"""

import itertools
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from softarm.config import load_scenario_dict, parse_scenario
from softarm.controller import (
    TRACKS,
    ControllerConfig,
    ControllerMode,
    GainSchedule,
    JointLimitSchedule,
    TaskError,
    solve,
    step_full,
)
from softarm.geometry import default_geometry
from softarm.jacobian import SV_TOL, jacobian
from softarm.kinematics import Pose, forward_kinematics
from softarm.plant import Plant
from softarm.rotations import rot_z

from conftest import kept_cond
from strategies import actuator_vectors

GEOM = default_geometry()
EPS = np.finfo(float).eps

#: q[ROLL] is Pq: each section's (l1, l2, l3) becomes (l3, l1, l2).
ROLL = np.array([2, 0, 1, 5, 3, 4, 8, 6, 7])
#: J[:, UNROLL] is J P, the columns of J at Pq taken back to q's order.
UNROLL = np.argsort(ROLL)
RZ = rot_z(2.0 * np.pi / 3.0)

#: FK's position (m) and rotation gaps, as Frobenius norms. Measured on
#: 3,300 draws: at most 4.4e-16 m and 9.4e-16, a few eps on a 0.66 m arm;
#: 1e-14 leaves a margin of ten, and is 13 orders below a broken order.
FK_TOL = 1e-14
#: The Jacobian identity's gap relative to |J|_F. Measured on 3,300 draws:
#: at most 9.7e-16, so again a margin of ten.
J_TOL = 1e-14
#: The step's gap relative to the step, over eps times the condition number
#: of the task blocks it inverts (:func:`block_cond`): the rotated blocks
#: differ from the plain ones by J's rounding, which an inverse magnifies by
#: its condition. Measured on 10,000 draws per mode and joint-limit setting:
#: at most 206 (at cond 1, the SVD's own rounding); 2000 leaves a margin of
#: ten. At the largest kept condition, 1e8, that is 4.4e-5, still five
#: orders below the O(1) gap of a broken symmetry.
STEP_ROUNDING = 2000
#: A clean bundled run and its turned run: the largest gap in any q (m) or
#: measured position (m). Measured on orientation_15pts: 3.5e-17 in q and
#: 2.8e-16 in position; 1e-14 leaves a margin of 35.
RUN_TOL = 1e-14


def turned(pose: Pose) -> Pose:
    return Pose(RZ @ pose.position, RZ @ pose.rotation @ RZ.T)


@settings(max_examples=60, deadline=None)
@given(actuator_vectors())
def test_kinematics_turn_with_the_roll(q):
    plain, rolled = forward_kinematics(q, GEOM), forward_kinematics(q[ROLL], GEOM)
    expected = turned(plain)
    assert np.linalg.norm(rolled.position - expected.position) <= FK_TOL
    assert np.linalg.norm(rolled.rotation - expected.rotation) <= FK_TOL
    J = jacobian(q, GEOM).J
    gap = jacobian(q[ROLL], GEOM).J[:, UNROLL] - np.kron(np.eye(2), RZ) @ J
    assert np.linalg.norm(gap) <= J_TOL * np.linalg.norm(J)


def block_cond(J, mode: ControllerMode) -> float:
    """The largest kept condition number of the task blocks a step of
    ``mode`` inverts: J_v, J_w, or J_v and J_w in J_v's null space."""
    position, orientation = TRACKS[mode]
    if position and orientation:
        J_t = J[3:] @ (np.eye(9) - np.linalg.pinv(J[:3], rcond=SV_TOL) @ J[:3])
        return max(kept_cond(J[:3]), kept_cond(J_t))
    return kept_cond(J[:3] if position else J[3:])


ERRORS = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3).map(np.array)


@settings(max_examples=40, deadline=None)
@given(q=actuator_vectors(), e_p=ERRORS, e_zeta=ERRORS)
def test_step_turns_with_the_roll(q, e_p, e_zeta):
    """In every mode, with the joint-limit term and without it; a switch
    threshold of 0 keeps the term on at every error."""
    assume(min(np.linalg.norm(e_p), np.linalg.norm(e_zeta)) > 1e-6)
    J = jacobian(q, GEOM).J
    for mode, joint_limit in itertools.product(ControllerMode, (False, True)):
        metric = "position" if TRACKS[mode][0] else "orientation"
        gains = GainSchedule(alpha=0.05, gamma_position=1.0, gamma_orientation=0.1,
                             joint_limit=JointLimitSchedule(-0.01, 0.0, metric)
                             if joint_limit else None)
        cfg = ControllerConfig(geometry=GEOM, joint_limits=GEOM.joint_limits(), mode=mode)
        plain = step_full(q, TaskError(e_p, e_zeta), gains, cfg) - q
        rolled = step_full(q[ROLL], TaskError(RZ @ e_p, RZ @ e_zeta), gains, cfg) - q[ROLL]
        tolerance = STEP_ROUNDING * EPS * block_cond(J, mode)
        assert np.linalg.norm(rolled[UNROLL] - plain) <= tolerance * np.linalg.norm(plain)


def test_a_clean_bundled_suite_runs_turned():
    """Every run of orientation_15pts, from Pq0 toward the turned target,
    is the plain run permuted: the same outcome and iteration count, each
    q rolled and each measured position turned."""
    for run in parse_scenario(load_scenario_dict("orientation_15pts")).runs:
        assert run.plant.position_noise_std == run.plant.rotation_noise_std == 0.0
        # A mismatch factor belongs to its actuator, so it rolls with it.
        rolled_plant = Plant(replace(run.plant,
                                     length_scale_error=run.plant.length_scale_error[ROLL]))
        plain = solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))
        rolled = solve(run.q0[ROLL], turned(run.desired), run.gains, run.controller,
                       rolled_plant)
        assert (rolled.converged, rolled.diverged, rolled.iterations_used) == (
            plain.converged, plain.diverged, plain.iterations_used)
        assert np.abs(rolled.qs - plain.qs[:, ROLL]).max() <= RUN_TOL
        assert np.abs(rolled.positions - plain.positions @ RZ.T).max() <= RUN_TOL
