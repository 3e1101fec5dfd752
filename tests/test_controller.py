import numpy as np
import pytest

import softarm.controller
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softarm.controller import (
    ORIENTATION,
    POSE,
    POSITION,
    TASK_STACKS,
    ControllerConfig,
    ControllerMode,
    GainSchedule,
    JointLimitSchedule,
    TaskError,
    gains_full_default,
    gains_orientation_default,
    gains_position_default,
    jl_cost,
    jl_gradient,
    pose_error,
    solve,
    step_full,
)
from softarm.geometry import default_geometry
from softarm.jacobian import SV_TOL, Jacobian6x9, jacobian
from softarm.kinematics import Pose, forward_kinematics
from softarm.plant import Plant, PlantConfig, PlantObservation
from softarm.rotations import rot_x, rot_z, rotvec_to_matrix

from oracles import fd_gradient, log_rotvec, random_feasible_q
from strategies import actuator_vectors

GEOM = default_geometry()
LIMITS = GEOM.joint_limits()
Q_MID = np.tile([0.051, 0.050, 0.049], 3)  # midpoint nudged off the singularity


def make_cfg(mode, **kwargs):
    return ControllerConfig(geometry=GEOM, joint_limits=LIMITS, mode=mode, **kwargs)


def step(q, desired, gains, cfg):
    """One step of the law with the model-predicted error at q."""
    return step_full(q, pose_error(desired, forward_kinematics(q, GEOM)), gains, cfg)


class TestPoseError:
    def test_identical_poses(self):
        pose = forward_kinematics(Q_MID, GEOM)
        e = pose_error(pose, pose)
        assert e.position_norm == 0.0
        assert e.orientation_norm == pytest.approx(0.0, abs=1e-12)

    def test_pure_translation(self):
        current = Pose(np.zeros(3), np.eye(3))
        desired = Pose([0.01, 0.0, 0.0], np.eye(3))
        e = pose_error(desired, current)
        np.testing.assert_allclose(e.e_p, [0.01, 0.0, 0.0])
        np.testing.assert_allclose(e.e_zeta, np.zeros(3), atol=1e-15)

    def test_x_rotation_against_matrix_log(self):
        angle = np.deg2rad(-150.0)
        desired = Pose(np.zeros(3), rot_x(angle))
        current = Pose(np.zeros(3), np.eye(3))
        e = pose_error(desired, current)
        np.testing.assert_allclose(e.e_zeta, [angle, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(e.e_zeta, log_rotvec(rot_x(angle)), atol=1e-10)

    def test_orientation_error_is_principal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            Ra = rot_z(rng.uniform(-np.pi, np.pi)) @ rot_x(rng.uniform(-np.pi, np.pi))
            Rb = rot_x(rng.uniform(-np.pi, np.pi)) @ rot_z(rng.uniform(-np.pi, np.pi))
            e = pose_error(Pose(np.zeros(3), Ra), Pose(np.zeros(3), Rb))
            assert e.orientation_norm <= np.pi + 1e-12


class TestJointLimitCost:
    def test_midpoint_is_minimum(self):
        q = LIMITS.midpoint()
        assert jl_cost(q, LIMITS) == pytest.approx(9.0, rel=1e-12)
        np.testing.assert_allclose(jl_gradient(q, LIMITS), np.zeros(9), atol=1e-9)

    def test_near_limit_value(self):
        # Direct evaluation: one actuator 1e-4 m under its 0.1 m upper bound
        # contributes 0.25 * 0.1^2 / ((1e-4) * (0.1 - 1e-4)); the other
        # eight sit at their midpoints contributing 1 each.
        q = LIMITS.midpoint()
        q[4] = 0.1 - 1e-4
        expected = 8.0 + 0.25 * 0.1**2 / (1e-4 * (0.1 - 1e-4))
        assert jl_cost(q, LIMITS) == pytest.approx(expected, rel=1e-12)
        assert jl_gradient(q, LIMITS)[4] > 0  # pushes away from the upper bound

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            q = rng.uniform(0.01, 0.09, 9)
            analytic = jl_gradient(q, LIMITS)
            numeric = fd_gradient(lambda x: jl_cost(x, LIMITS), q, h=1e-7)
            assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-6

    def test_out_of_bounds_input_is_clamped(self):
        q = LIMITS.midpoint()
        q[0] = -0.5
        assert np.isfinite(jl_cost(q, LIMITS))
        assert np.all(np.isfinite(jl_gradient(q, LIMITS)))


class TestGainSchedule:
    def test_published_defaults(self):
        g = gains_position_default()
        assert g.alpha == 0.074
        assert g.joint_limit.value_far == -0.01
        assert g.joint_limit.switch_threshold == 0.030
        g = gains_orientation_default()
        assert g.alpha == 0.05
        assert g.joint_limit.value_far == -0.005
        assert g.joint_limit.switch_threshold == pytest.approx(np.deg2rad(30.0))
        g = gains_full_default()
        assert (g.alpha, g.gamma_position, g.gamma_orientation) == (0.05, 1.0, 0.1)
        assert g.joint_limit.value_far == -5e-5
        assert g.joint_limit.switch_threshold == 0.050

    def test_task_error_norms_are_python_floats(self):
        e = pose_error(Pose(np.array([0.1, 0.2, 0.3]), rot_x(0.4)), Pose.identity())
        assert type(e.position_norm) is float and type(e.orientation_norm) is float
        assert e.position_norm == float(np.linalg.norm(e.e_p))
        assert e.orientation_norm == float(np.linalg.norm(e.e_zeta))

    def test_schedule_switches_on_error_norm(self):
        sched = JointLimitSchedule(value_far=-0.01, switch_threshold=0.030)
        far = TaskError(e_p=np.array([0.05, 0.0, 0.0]), e_zeta=np.zeros(3))
        near = TaskError(e_p=np.array([0.02, 0.0, 0.0]), e_zeta=np.zeros(3))
        assert sched.gamma(far) == -0.01
        assert sched.gamma(near) == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            GainSchedule(alpha=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["value_far", "switch_threshold"])
    def test_schedule_values_must_be_finite(self, name, value):
        # A NaN threshold reads "never far", which switches the term off.
        kwargs = {"value_far": -0.01, "switch_threshold": 0.030, name: value}
        with pytest.raises(ValueError, match="must be finite"):
            JointLimitSchedule(**kwargs)


class TestControllerConfig:
    @pytest.mark.parametrize("axes", [(), (0, 0), (3,), (-1,), (True,), (1.0,)],
                             ids=["empty", "repeated", "too-large", "negative", "bool", "float"])
    def test_orientation_error_axes_are_distinct_axes(self, axes):
        # () once made the tolerance check read every orientation error as 0.
        with pytest.raises(ValueError, match="orientation_error_axes"):
            make_cfg(ControllerMode.PosOriPriority, orientation_error_axes=axes)

    @pytest.mark.parametrize("axes", [None, (1,), (2, 0, 1)])
    def test_orientation_error_axes_read_as_given(self, axes):
        assert make_cfg(ControllerMode.PosOriPriority,
                        orientation_error_axes=axes).orientation_error_axes == axes


class TestStepLaws:
    def test_zero_error_is_fixed_point(self):
        desired = forward_kinematics(Q_MID, GEOM)
        cfg = make_cfg(ControllerMode.ConventionalRR)
        q_next = step(Q_MID, desired, GainSchedule(alpha=0.074), cfg)
        np.testing.assert_allclose(q_next, Q_MID, atol=1e-12)
        q_next = step(Q_MID, desired, gains_full_default(),
                      make_cfg(ControllerMode.FullThreeTask))
        np.testing.assert_allclose(q_next, Q_MID, atol=1e-12)

    def test_step_is_linear_in_alpha(self):
        desired = Pose([0.0, 0.05, 0.45], rot_z(2 * np.pi / 3))
        cfg = make_cfg(ControllerMode.ConventionalRR)
        d1 = step(Q_MID, desired, GainSchedule(alpha=0.05), cfg) - Q_MID
        d2 = step(Q_MID, desired, GainSchedule(alpha=0.10), cfg) - Q_MID
        np.testing.assert_allclose(d2, 2.0 * d1, rtol=1e-9)

    def test_single_step_reduces_position_error(self):
        # One step toward a reachable +1 cm Z target with the published
        # position gain strictly reduces the position error.
        pose0 = forward_kinematics(Q_MID, GEOM)
        target = pose0.position + np.array([0.0, 0.0, 0.01])
        cfg = make_cfg(ControllerMode.PositionWithJL)
        q1 = step(Q_MID, Pose(target, pose0.rotation), gains_position_default(), cfg)
        e0 = np.linalg.norm(target - pose0.position)
        e1 = np.linalg.norm(target - forward_kinematics(q1, GEOM).position)
        assert e1 < e0

    def test_jl_term_off_inside_schedule_threshold(self):
        # 20 mm error is inside the 30 mm switch: identical to gamma = 0.
        q = Q_MID + np.linspace(-0.02, 0.02, 9)  # off-mid so grad H != 0
        pose = forward_kinematics(q, GEOM)
        target = Pose(pose.position + np.array([0.0, 0.02, 0.0]), pose.rotation)
        cfg = make_cfg(ControllerMode.PositionWithJL)
        with_schedule = step(q, target, gains_position_default(), cfg)
        no_jl = step(q, target, GainSchedule(alpha=0.074), cfg)
        np.testing.assert_array_equal(with_schedule, no_jl)

    def test_jl_term_invisible_to_position_task(self):
        # The avoidance term lives in the null space of Jv: the commanded
        # position rate is unchanged to first order.
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = random_feasible_q(rng, LIMITS)
            pose = forward_kinematics(q, GEOM)
            target = Pose(pose.position + np.array([0.0, 0.08, 0.0]),  # schedule on
                          pose.rotation)
            cfg = make_cfg(ControllerMode.PositionWithJL)
            with_jl = step(q, target, gains_position_default(), cfg)
            no_jl = step(q, target, GainSchedule(alpha=0.074), cfg)
            Jv = jacobian(q, GEOM).Jv
            rate_diff = Jv @ (with_jl - no_jl)
            scale = max(np.linalg.norm(Jv @ (no_jl - q)), 1e-9)
            assert np.linalg.norm(rate_diff) / scale < 1e-8

    def test_jl_term_invisible_to_orientation_task(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            q = random_feasible_q(rng, LIMITS)
            pose = forward_kinematics(q, GEOM)
            desired = Pose(pose.position, rot_x(np.deg2rad(-60.0)) @ pose.rotation)
            cfg = make_cfg(ControllerMode.OrientationWithJL)
            with_jl = step(q, desired, gains_orientation_default(), cfg)
            no_jl = step(q, desired, GainSchedule(alpha=0.05), cfg)
            Jw = jacobian(q, GEOM).Jw
            rate_diff = Jw @ (with_jl - no_jl)
            scale = max(np.linalg.norm(Jw @ (no_jl - q)), 1e-9)
            assert np.linalg.norm(rate_diff) / scale < 1e-8

    def test_full_law_preserves_position_rate(self):
        # Orientation and joint-limit terms of the three-task law act in
        # the position null space: Jv qdot matches the position-only rate
        # scaled by gamma6 alpha4 / alpha2.
        rng = np.random.default_rng(4)
        gains_full = gains_full_default()
        gains_pos = gains_position_default()
        for _ in range(10):
            q = random_feasible_q(rng, LIMITS)
            pose = forward_kinematics(q, GEOM)
            desired = Pose(pose.position + np.array([0.02, 0.08, -0.03]),
                           rot_x(0.4) @ pose.rotation)
            cfg_full = make_cfg(ControllerMode.FullThreeTask)
            cfg_pos = make_cfg(ControllerMode.PositionWithJL)
            dq_full = step(q, desired, gains_full, cfg_full) - q
            dq_pos = step(q, desired, gains_pos, cfg_pos) - q
            Jv = jacobian(q, GEOM).Jv
            ratio = gains_full.gamma_position * gains_full.alpha / gains_pos.alpha
            lhs = Jv @ dq_full
            rhs = ratio * (Jv @ dq_pos)
            assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-12) < 1e-8

    def test_pos_ori_priority_is_full_law_without_jl(self):
        q = Q_MID + np.linspace(-0.02, 0.02, 9)
        pose = forward_kinematics(q, GEOM)
        desired = Pose(pose.position + np.array([0.0, 0.08, 0.0]),
                       rot_x(0.3) @ pose.rotation)
        cfg = make_cfg(ControllerMode.PosOriPriority)
        gains = gains_full_default()
        via_mode = step(q, desired, gains, cfg)
        explicit = step(q, desired, GainSchedule(
            alpha=gains.alpha, gamma_position=1.0, gamma_orientation=0.1),
            make_cfg(ControllerMode.FullThreeTask), )
        np.testing.assert_allclose(via_mode, explicit, atol=1e-15)


class TestSolve:
    def test_already_at_target_converges_in_zero_iterations(self):
        plant = Plant(PlantConfig())
        desired = forward_kinematics(Q_MID, GEOM)
        cfg = make_cfg(ControllerMode.PositionWithJL)
        traj = solve(Q_MID, desired, gains_position_default(), cfg, plant)
        assert traj.converged
        assert traj.iterations_used == 0

    def test_a_solve_started_in_tolerance_has_one_row(self):
        # Row 0, the initial state, is the whole trajectory: every field
        # keeps its per-step shape and dtype at one row.
        desired = forward_kinematics(Q_MID, GEOM)
        cfg = make_cfg(ControllerMode.FullThreeTask)
        traj = solve(Q_MID, desired, gains_full_default(), cfg, Plant(PlantConfig()))
        assert (traj.mode, traj.converged, traj.diverged) == ("FullThreeTask", True, False)
        for name, shape in (("qs", (1, 9)), ("pressures", (1, 9)), ("positions", (1, 3)),
                            ("rotvecs", (1, 3)), ("err_pos", (1,)), ("err_rot", (1,)),
                            ("err_pos_true", (1,)), ("err_rot_true", (1,))):
            column = getattr(traj, name)
            assert (column.shape, column.dtype) == (shape, np.float64), name
        assert (traj.infeasible.shape, traj.infeasible.dtype) == ((1, 9), np.bool_)
        np.testing.assert_array_equal(traj.qs[0], Q_MID)

    def test_position_solve_feasible_throughout(self):
        rng = np.random.default_rng(5)
        target_q = random_feasible_q(rng, LIMITS)
        desired = forward_kinematics(target_q, GEOM)
        cfg = make_cfg(ControllerMode.PositionWithJL)
        traj = solve(Q_MID, desired, gains_position_default(), cfg, Plant(PlantConfig()))
        assert traj.converged
        assert traj.err_pos[-1] < cfg.position_tolerance
        assert not traj.any_infeasible
        assert np.all(traj.pressures >= 0.0)

    def test_orientation_solve_converges(self):
        desired = Pose(np.zeros(3), rot_x(np.deg2rad(-90.0)) @ rot_z(2 * np.pi / 3))
        cfg = make_cfg(ControllerMode.OrientationWithJL)
        traj = solve(Q_MID, desired, gains_orientation_default(), cfg, Plant(PlantConfig()))
        assert traj.converged
        assert traj.err_rot[-1] < cfg.orientation_tolerance

    def test_conventional_rr_near_limit_goes_infeasible(self):
        # An extended-reach pose drives the unconstrained law to negative
        # elongations (negative commanded pressure).
        desired = Pose([0.0, 0.42, 0.30], rot_x(np.deg2rad(-110.0)) @ rot_z(2 * np.pi / 3))
        cfg = make_cfg(ControllerMode.ConventionalRR, max_iterations=800)
        traj = solve(Q_MID, desired, GainSchedule(alpha=0.05), cfg, Plant(PlantConfig()))
        assert traj.any_infeasible
        assert np.any(traj.pressures < 0.0)

    def test_trajectory_steps_are_bounded(self):
        # Gain switching changes qdot, never q: consecutive commanded states
        # stay close even when the schedule toggles mid-run.
        rng = np.random.default_rng(6)
        desired = forward_kinematics(random_feasible_q(rng, LIMITS), GEOM)
        cfg = make_cfg(ControllerMode.PositionWithJL)
        traj = solve(Q_MID, desired, gains_position_default(), cfg, Plant(PlantConfig()))
        steps = np.linalg.norm(np.diff(traj.qs, axis=0), axis=1)
        assert steps.max() < 0.05

    def test_divergence_detection_carries_trajectory(self):
        # A plant whose reported pose recedes from the target every step
        # trips the sustained-growth detector.
        class RecedingPlant(Plant):
            def __init__(self, config):
                super().__init__(config)
                self._drift = 0.0

            def apply_command(self, q_cmd):
                obs = super().apply_command(q_cmd)
                self._drift += 0.05
                away = Pose(obs.pose_filtered.position + np.array([0.0, 0.0, self._drift]),
                            obs.pose_filtered.rotation)
                return type(obs)(pose_filtered=away, pressures=obs.pressures,
                                 infeasible_flags=obs.infeasible_flags)

        desired = forward_kinematics(Q_MID, GEOM)
        desired = Pose(desired.position + np.array([0.0, 0.0, 0.005]), desired.rotation)
        cfg = make_cfg(ControllerMode.PositionWithJL, max_iterations=3000)
        traj = solve(Q_MID, desired, gains_position_default(), cfg,
                     RecedingPlant(PlantConfig()))
        assert traj.diverged and not traj.converged
        assert traj.qs.shape[0] > cfg.divergence_window

    def test_divergence_is_checked_before_the_tolerance(self):
        # The position error stays above 10x its tiny start, though inside
        # its tolerance, while the orientation error stays outside its own
        # until the row on which the growth streak reaches the window. There
        # both errors are inside their tolerances, and the run still reads
        # as diverged.
        desired = forward_kinematics(Q_MID, GEOM)
        window = 3
        cfg = make_cfg(ControllerMode.FullThreeTask, divergence_window=window)
        tilt = 2.0 * cfg.orientation_tolerance

        def observation(dz, angle):
            pose = Pose(desired.position + np.array([0.0, 0.0, dz]),
                        rot_x(angle) @ desired.rotation)
            return PlantObservation(pose, np.zeros(9), np.zeros(9, dtype=bool))

        script = iter([observation(1e-6, tilt)] + [observation(1e-4, tilt)] * (window - 1)
                      + [observation(1e-4, 0.0)])

        class ScriptedPlant:
            def reset(self, q):
                self.last = next(script)
                return self.last

            def apply_command(self, q):
                self.last = next(script)
                return self.last

            def true_pose(self):
                return self.last.pose_filtered

        traj = solve(Q_MID, desired, GainSchedule(alpha=0.05), cfg, ScriptedPlant())
        assert traj.err_pos[-1] <= cfg.position_tolerance
        assert traj.err_rot[-1] <= cfg.orientation_tolerance
        assert traj.diverged and not traj.converged
        assert traj.iterations_used == window


def written_out_law(q, e: TaskError, gains: GainSchedule, mode: ControllerMode):
    """Each mode's law as a closed form, with np.linalg.pinv throughout."""
    def pinv(M):
        return np.linalg.pinv(M, rcond=SV_TOL)

    def gamma_jl(norm, metric):
        sched = gains.joint_limit
        if sched is None or sched.threshold_metric != metric:
            return 0.0  # off, or scheduled on an error this mode does not track
        return sched.value_far if norm > sched.switch_threshold else 0.0

    jac = jacobian(q, GEOM)
    Jv, Jw, eye = jac.Jv, jac.Jw, np.eye(9)
    grad = jl_gradient(q, LIMITS)
    if mode is ControllerMode.ConventionalRR:
        qdot = pinv(np.vstack([Jv, Jw])) @ np.concatenate([e.e_p, e.e_zeta])
    elif mode is ControllerMode.PositionWithJL:
        gamma = gamma_jl(np.linalg.norm(e.e_p), "position")
        qdot = pinv(Jv) @ e.e_p + gamma * (eye - pinv(Jv) @ Jv) @ grad
    elif mode is ControllerMode.OrientationWithJL:
        gamma = gamma_jl(np.linalg.norm(e.e_zeta), "orientation")
        qdot = pinv(Jw) @ e.e_zeta + gamma * (eye - pinv(Jw) @ Jw) @ grad
    else:
        Jt = Jw @ (eye - pinv(Jv) @ Jv)
        qdot_p = gains.gamma_position * pinv(Jv) @ e.e_p
        qdot = qdot_p + gains.gamma_orientation * pinv(Jt) @ (e.e_zeta - Jw @ qdot_p)
        if mode is ControllerMode.FullThreeTask:
            norm = np.linalg.norm(e.e_p if gains.joint_limit.threshold_metric == "position"
                                  else e.e_zeta)
            gamma = gamma_jl(norm, gains.joint_limit.threshold_metric)
            qdot = qdot + gamma * (eye - pinv(Jv) @ Jv - pinv(Jt) @ Jt) @ grad
    return q + gains.alpha * qdot


def offset_target(q, rng):
    pose = forward_kinematics(q, GEOM)
    return Pose(pose.position + rng.uniform(-0.08, 0.08, 3),
                rotvec_to_matrix(rng.uniform(-0.5, 0.5, 3)) @ pose.rotation)


TABLE_GAINS = [
    GainSchedule(alpha=0.05, gamma_position=1.0, gamma_orientation=0.1,
                 joint_limit=JointLimitSchedule(value_far=-0.01, switch_threshold=0.0)),
    GainSchedule(alpha=0.074, gamma_position=0.7, gamma_orientation=0.3,
                 joint_limit=JointLimitSchedule(value_far=-0.005, switch_threshold=0.0,
                                                threshold_metric="orientation")),
]


def written_out_tolerance(q, mode) -> float:
    """Relative bound on the gap between step_full and written_out_law.

    The two-task modes of the written-out law form the projector
    I - Jv^+ Jv, then J_t = Jw (I - Jv^+ Jv) and pinv(J_t), so their
    rounding grows with the condition number of J_t over the singular
    values pinv keeps; step_full forms none of the three. At the pinned
    near-straight example (cond(J_t) = 150), against the law evaluated in
    60 digits, step_full is within 4e-14 relative and the written-out law
    off by 1.4e-12 (PosOriPriority) and 1.8e-12 (FullThreeTask). So the
    bound is 1e-12 or 1000 eps cond(J_t), the larger; over 2,500
    configurations from these tests' strategies, each in both two-task
    modes with both TABLE_GAINS, the gap stayed under 170 eps cond(J_t).
    """
    if len(TASK_STACKS[mode].tasks) < 2:
        return 1e-12
    jac = jacobian(q, GEOM)
    s = np.linalg.svd(jac.Jw @ (np.eye(9) - np.linalg.pinv(jac.Jv, rcond=SV_TOL) @ jac.Jv),
                      compute_uv=False)
    kept = s[s > SV_TOL * s[0]]
    cond = kept[0] / kept[-1] if kept.size else 1.0  # a zero J_t: pinv(J_t) is 0
    return max(1e-12, 1e3 * np.finfo(float).eps * cond)


def assert_matches_written_out(q, desired, gains, mode):
    cfg = make_cfg(mode)
    e = pose_error(desired, forward_kinematics(q, GEOM))
    law = step_full(q, e, gains, cfg) - q
    written = written_out_law(q, e, gains, mode) - q
    tolerance = written_out_tolerance(q, mode)
    assert np.linalg.norm(law - written) <= tolerance * np.linalg.norm(written)


class TestModeTable:
    @pytest.mark.parametrize("mode", list(ControllerMode))
    @pytest.mark.parametrize("gains", TABLE_GAINS)
    def test_step_matches_written_out_law(self, mode, gains):
        rng = np.random.default_rng(7)
        for _ in range(10):
            q = random_feasible_q(rng, LIMITS)
            assert_matches_written_out(q, offset_target(q, rng), gains, mode)

    @pytest.mark.parametrize("mode", list(ControllerMode))
    @settings(max_examples=15, deadline=None)
    @given(q=actuator_vectors(st.permutations(["near", "bent", "bent"])),
           seed=st.integers(0, 2**32 - 1))
    # cond(J_t) = 150: the written-out law is 1.4e-12 off, step_full 4e-14.
    @example(q=np.array([0.0625, 0.062499788675134595, 0.062499211324865404, 0.0625,
                         0.01171875, 0.078125, 0.05078125, 0.048828125, 0.046875]), seed=0)
    def test_step_matches_written_out_law_near_straight(self, mode, q, seed):
        rng = np.random.default_rng(seed)
        assert_matches_written_out(q, offset_target(q, rng), TABLE_GAINS[0], mode)

    def test_schedule_on_an_untracked_error_stays_off(self):
        # The orientation error is far past the switch, but PositionWithJL
        # does not track it: no joint-limit term, as with no schedule at all.
        q = Q_MID + np.linspace(-0.02, 0.02, 9)
        pose = forward_kinematics(q, GEOM)
        desired = Pose(pose.position + np.array([0.0, 0.05, 0.0]),
                       rot_x(1.0) @ pose.rotation)
        on_orientation = GainSchedule(alpha=0.074, joint_limit=JointLimitSchedule(
            value_far=-0.01, switch_threshold=0.01, threshold_metric="orientation"))
        cfg = make_cfg(ControllerMode.PositionWithJL)
        np.testing.assert_array_equal(step(q, desired, on_orientation, cfg),
                                      step(q, desired, GainSchedule(alpha=0.074), cfg))
        assert_matches_written_out(q, desired, on_orientation, ControllerMode.PositionWithJL)


class TestFactorFormEdges:
    """``step_full`` works on SVD factors; where a task block loses rank it
    must still be the law written out with np.linalg.pinv."""

    @pytest.mark.parametrize("mode", list(ControllerMode))
    @pytest.mark.parametrize("offset, rank", [(1e-7, 3), (2e-9, 2)])
    def test_next_to_fully_straight(self, mode, offset, rank):
        # Sections 2 and 3 exactly straight, section 1 bent by one actuator's
        # offset: sigma_min / sigma_max of the orientation block is about
        # 2.3 * offset, so it falls under sv_tol at 2e-9.
        q = np.full(9, 0.05)
        q[0] += offset
        s = np.linalg.svd(jacobian(q, GEOM).Jw, compute_uv=False)
        assert np.count_nonzero(s > SV_TOL * s[0]) == rank
        rng = np.random.default_rng(3)
        for gains in TABLE_GAINS:
            for _ in range(5):
                assert_matches_written_out(q, offset_target(q, rng), gains, mode)

    @pytest.mark.parametrize("mode, rows", [
        (ControllerMode.ConventionalRR, POSE),
        (ControllerMode.PositionWithJL, POSITION),
        (ControllerMode.OrientationWithJL, ORIENTATION),
        (ControllerMode.PosOriPriority, POSITION),
        (ControllerMode.PosOriPriority, ORIENTATION),
        (ControllerMode.FullThreeTask, POSITION),
        (ControllerMode.FullThreeTask, ORIENTATION),
    ])
    def test_exactly_zero_task_block(self, monkeypatch, mode, rows):
        q = Q_MID + np.linspace(-0.02, 0.02, 9)
        J = jacobian(q, GEOM).J.copy()
        J[rows] = 0.0

        def zeroed(q, geom):
            return Jacobian6x9(J=J)

        monkeypatch.setattr(softarm.controller, "jacobian", zeroed)
        monkeypatch.setitem(globals(), "jacobian", zeroed)  # for written_out_law
        rng = np.random.default_rng(5)
        for gains in TABLE_GAINS:
            desired = offset_target(q, rng)
            assert np.isfinite(step_full(q, pose_error(desired, forward_kinematics(q, GEOM)),
                                         gains, make_cfg(mode))).all()
            assert_matches_written_out(q, desired, gains, mode)
