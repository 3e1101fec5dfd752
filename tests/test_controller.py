import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

import softarm.controller
from softarm import kinematics
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softarm.config import load_scenario_dict, parse_scenario
from softarm.controller import (
    DIVERGENCE_FACTOR,
    DIVERGENCE_WINDOW,
    GRAM_TOL,
    TRACKS,
    ControllerConfig,
    ControllerMode,
    Divergence,
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
from softarm.geometry import default_geometry, elongation_to_pressure, norm
from softarm.jacobian import SV_TOL, Jacobian6x9, jacobian
from softarm.kinematics import Pose, forward_kinematics
from softarm.plant import Plant, PlantConfig, PlantObservation
from softarm.rotations import matrix_to_rotvec, rot_x, rot_z, rotvec_to_matrix

from conftest import kept_cond, svd_spy
from oracles import fd_gradient, log_rotvec, random_feasible_q
from strategies import actuator_vectors

GEOM = default_geometry()
LIMITS = GEOM.joint_limits()
Q_MID = np.tile([0.051, 0.050, 0.049], 3)  # the default home posture, just off the midpoint


#: The rows of the 6x9 Jacobian of the position and the orientation task.
POSITION, ORIENTATION = slice(0, 3), slice(3, 6)


def make_cfg(mode, **kwargs):
    return ControllerConfig(geometry=GEOM, joint_limits=LIMITS, mode=mode, **kwargs)


def step(q, desired, gains, cfg):
    """One step of the law with the model-predicted error at q."""
    e = pose_error(desired.position, desired.rotation, forward_kinematics(q, GEOM))
    return step_full(q, e, gains, cfg)


class TestPoseError:
    def test_identical_poses(self):
        pose = forward_kinematics(Q_MID, GEOM)
        e = pose_error(pose.position, pose.rotation, pose)
        assert e.position_norm == 0.0
        assert e.orientation_norm == pytest.approx(0.0, abs=1e-12)

    def test_pure_translation(self):
        current = Pose(np.zeros(3), np.eye(3))
        e = pose_error(np.array([0.01, 0.0, 0.0]), np.eye(3), current)
        np.testing.assert_allclose(e.e_p, [0.01, 0.0, 0.0])
        np.testing.assert_allclose(e.e_zeta, np.zeros(3), atol=1e-15)

    def test_x_rotation_against_matrix_log(self):
        angle = np.deg2rad(-150.0)
        current = Pose(np.zeros(3), np.eye(3))
        e = pose_error(np.zeros(3), rot_x(angle), current)
        np.testing.assert_allclose(e.e_zeta, [angle, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(e.e_zeta, log_rotvec(rot_x(angle)), atol=1e-10)

    def test_orientation_error_is_principal(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            Ra = rot_z(rng.uniform(-np.pi, np.pi)) @ rot_x(rng.uniform(-np.pi, np.pi))
            Rb = rot_x(rng.uniform(-np.pi, np.pi)) @ rot_z(rng.uniform(-np.pi, np.pi))
            e = pose_error(np.zeros(3), Ra, Pose(np.zeros(3), Rb))
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
        e = pose_error(np.array([0.1, 0.2, 0.3]), rot_x(0.4), Pose(np.zeros(3), np.eye(3)))
        assert type(e.position_norm) is float and type(e.orientation_norm) is float
        assert e.position_norm == float(np.linalg.norm(e.e_p))
        assert e.orientation_norm == float(np.linalg.norm(e.e_zeta))

    def test_schedule_switches_on_error_norm(self):
        sched = JointLimitSchedule(value_far=-0.01, switch_threshold=0.030)
        far = TaskError(e_p=np.array([0.05, 0.0, 0.0]), e_zeta=np.zeros(3))
        near = TaskError(e_p=np.array([0.02, 0.0, 0.0]), e_zeta=np.zeros(3))
        assert sched.gamma((far.position_norm, far.orientation_norm)) == -0.01
        assert sched.gamma((near.position_norm, near.orientation_norm)) == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            GainSchedule(alpha=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["alpha", "gamma_position", "gamma_orientation"])
    def test_gains_must_be_finite(self, name, value):
        # A NaN weight or step gain turns every command NaN.
        with pytest.raises(ValueError, match="must be finite"):
            GainSchedule(**{"alpha": 0.05, name: value})

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
            make_cfg(ControllerMode.FullThreeTask, orientation_error_axes=axes)

    @pytest.mark.parametrize("axes", [None, (1,), (2, 0, 1)])
    def test_orientation_error_axes_read_as_given(self, axes):
        assert make_cfg(ControllerMode.FullThreeTask,
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
            Jv = jacobian(q, GEOM).J[:3]
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
            Jw = jacobian(q, GEOM).J[3:]
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
            Jv = jacobian(q, GEOM).J[:3]
            ratio = gains_full.gamma_position * gains_full.alpha / gains_pos.alpha
            lhs = Jv @ dq_full
            rhs = ratio * (Jv @ dq_pos)
            assert np.linalg.norm(lhs - rhs) / max(np.linalg.norm(rhs), 1e-12) < 1e-8

    def test_a_schedule_turns_the_jl_term_on_in_conventional_rr(self):
        # The gains alone switch the term, so a schedule that is on
        # everywhere changes the 6-D law's step, but only inside the null
        # space of the full 6x9 J: the commanded pose rate is unchanged.
        rng = np.random.default_rng(8)
        cfg = make_cfg(ControllerMode.ConventionalRR)
        scheduled = GainSchedule(alpha=0.05, joint_limit=JointLimitSchedule(
            value_far=-0.01, switch_threshold=0.0))
        for _ in range(10):
            q = random_feasible_q(rng, LIMITS)
            desired = offset_target(q, rng)
            with_jl = step(q, desired, scheduled, cfg)
            no_jl = step(q, desired, GainSchedule(alpha=0.05), cfg)
            assert np.linalg.norm(with_jl - no_jl) > 1e-6 * np.linalg.norm(no_jl - q)
            J = jacobian(q, GEOM).J
            rate_diff = J @ (with_jl - no_jl)
            scale = max(np.linalg.norm(J @ (no_jl - q)), 1e-9)
            assert np.linalg.norm(rate_diff) / scale < 1e-8


class TestDivergence:
    """The rule both closed loops stop on, at its boundaries."""

    def calls(self, starts, norms, n=DIVERGENCE_WINDOW) -> list:
        rule = Divergence(starts)
        return [rule(norms) for _ in range(n)]

    def test_true_on_the_window_th_call_above_the_factor(self):
        above = math.nextafter(DIVERGENCE_FACTOR * 0.3, math.inf)
        assert self.calls((0.3,), (above,)) == [False] * (DIVERGENCE_WINDOW - 1) + [True]

    def test_exactly_the_factor_times_the_start_does_not_count(self):
        assert not any(self.calls((0.3,), (DIVERGENCE_FACTOR * 0.3,), 2 * DIVERGENCE_WINDOW))

    def test_one_dip_resets_the_streak(self):
        rule = Divergence((1.0,))
        grown, dipped = (DIVERGENCE_FACTOR + 1.0,), (1.0,)
        assert not any(rule(grown) for _ in range(DIVERGENCE_WINDOW - 1))
        assert not rule(dipped)
        assert not any(rule(grown) for _ in range(DIVERGENCE_WINDOW - 1))
        assert rule(grown)

    @pytest.mark.parametrize("start", [0.0, 1e-13, 1e-12])
    def test_a_start_at_or_below_1e_12_never_counts(self, start):
        assert not any(self.calls((start,), (1.0,), 2 * DIVERGENCE_WINDOW))
        assert self.calls((math.nextafter(1e-12, 1.0),), (1.0,))[-1]

    @pytest.mark.parametrize("norms", [(11.0, 0.5), (0.5, 11.0)], ids=["position", "orientation"])
    def test_one_growing_norm_is_enough(self, norms):
        assert self.calls((1.0, 1.0), norms)[-1]


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
        assert (traj.converged, traj.diverged) == (True, False)
        for name, shape in (("qs", (1, 9)), ("positions", (1, 3)),
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
        assert np.all(elongation_to_pressure(traj.qs) >= 0.0)

    def test_orientation_solve_converges(self):
        desired = Pose(np.zeros(3), rot_x(np.deg2rad(-90.0)) @ rot_z(2 * np.pi / 3))
        cfg = make_cfg(ControllerMode.OrientationWithJL)
        traj = solve(Q_MID, desired, gains_orientation_default(), cfg, Plant(PlantConfig()))
        assert traj.converged
        assert traj.err_rot[-1] < cfg.orientation_tolerance

    @pytest.mark.parametrize("mode, gains", [
        (ControllerMode.ConventionalRR, gains_full_default),
        (ControllerMode.PositionWithJL, gains_position_default),
        (ControllerMode.OrientationWithJL, gains_orientation_default),
        (ControllerMode.FullThreeTask, gains_full_default),
        (ControllerMode.FullThreeTask, lambda: replace(gains_full_default(), joint_limit=None)),
    ])
    def test_converges_from_the_exact_midpoint(self, mode, gains):
        # Every section starts exactly straight, where J has rank 5; the
        # SV_TOL cutoff drops the lost torsion direction (96, 61, 74, 685
        # and 685 iterations, the last without the joint-limit term).
        desired = forward_kinematics(np.random.default_rng(0).uniform(0.02, 0.08, 9), GEOM)
        traj = solve(LIMITS.midpoint(), desired, gains(), make_cfg(mode), Plant(PlantConfig()))
        assert traj.converged and not traj.diverged
        assert not traj.any_infeasible

    def test_conventional_rr_near_limit_goes_infeasible(self):
        # An extended-reach pose drives the unconstrained law to negative
        # elongations (negative commanded pressure).
        desired = Pose([0.0, 0.42, 0.30], rot_x(np.deg2rad(-110.0)) @ rot_z(2 * np.pi / 3))
        cfg = make_cfg(ControllerMode.ConventionalRR, max_iterations=800)
        traj = solve(Q_MID, desired, GainSchedule(alpha=0.05), cfg, Plant(PlantConfig()))
        assert traj.any_infeasible
        assert np.any(elongation_to_pressure(traj.qs) < 0.0)

    def test_trajectory_steps_are_bounded(self):
        # Gain switching changes qdot, never q: consecutive commanded states
        # stay close even when the schedule toggles mid-run.
        rng = np.random.default_rng(6)
        desired = forward_kinematics(random_feasible_q(rng, LIMITS), GEOM)
        cfg = make_cfg(ControllerMode.PositionWithJL)
        traj = solve(Q_MID, desired, gains_position_default(), cfg, Plant(PlantConfig()))
        steps = np.linalg.norm(np.diff(traj.qs, axis=0), axis=1)
        assert steps.max() < 0.05

    @pytest.mark.parametrize("name, walks_per_step", [("position_35pts", 1),
                                                      ("position_35pts_noisy", 2)])
    def test_walks_per_step(self, monkeypatch, name, walks_per_step):
        # On a plant without mismatch a step's Jacobian reads the walk the
        # plant's FK of the last command left on the geometry, so each step
        # walks once; a mismatched plant walks the scaled command, so each
        # step walks twice. The one more is reset's walk at q0.
        run = parse_scenario(load_scenario_dict(name)).runs[0]
        walk, walks = kinematics._walk, 0

        def counted(*args):
            nonlocal walks
            walks += 1
            return walk(*args)

        monkeypatch.setattr(kinematics, "_walk", counted)
        traj = solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))
        assert walks == walks_per_step * traj.iterations_used + 1

    def test_recorded_logs_match_each_step_s_own(self):
        # solve takes the rotation logs only its record reads once per run:
        # on a noisy plant with mismatch they have the bytes of each step's
        # logs of the filtered rotation and of R_d R_true^T.
        run = parse_scenario(load_scenario_dict("pose_7pts_noisy")).runs[0]
        logs = []

        class LoggingPlant(Plant):
            def apply_command(self, q_cmd):  # reset sends q0 through here too
                obs = super().apply_command(q_cmd)
                logs.append((matrix_to_rotvec(obs.pose_filtered.rotation), norm(matrix_to_rotvec(
                    run.desired.rotation.dot(self.true_pose().rotation.T)))))
                return obs

        assert run.plant.position_noise_std > 0 and run.plant.length_scale_error.any()
        traj = solve(run.q0, run.desired, run.gains, run.controller, LoggingPlant(run.plant))
        assert traj.iterations_used > 10 and len(logs) == traj.iterations_used + 1
        rotvecs, err_rot_true = zip(*logs)
        assert traj.rotvecs.tobytes() == np.array(rotvecs).tobytes()
        assert traj.err_rot_true.tobytes() == np.array(err_rot_true).tobytes()

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
                return type(obs)(pose_filtered=away, infeasible_flags=obs.infeasible_flags)

        desired = forward_kinematics(Q_MID, GEOM)
        desired = Pose(desired.position + np.array([0.0, 0.0, 0.005]), desired.rotation)
        cfg = make_cfg(ControllerMode.PositionWithJL, max_iterations=3000)
        traj = solve(Q_MID, desired, gains_position_default(), cfg,
                     RecedingPlant(PlantConfig()))
        assert traj.diverged and not traj.converged
        assert traj.qs.shape[0] > DIVERGENCE_WINDOW

    def test_divergence_is_checked_before_the_tolerance(self):
        # The position error stays above 10x its tiny start, though inside
        # its tolerance, while the orientation error stays outside its own
        # until the row on which the growth streak reaches the window. There
        # both errors are inside their tolerances, and the run still reads
        # as diverged.
        desired = forward_kinematics(Q_MID, GEOM)
        window = DIVERGENCE_WINDOW
        cfg = make_cfg(ControllerMode.FullThreeTask)
        tilt = 2.0 * cfg.orientation_tolerance

        def observation(dz, angle):
            pose = Pose(desired.position + np.array([0.0, 0.0, dz]),
                        rot_x(angle) @ desired.rotation)
            return PlantObservation(pose, np.zeros(9, dtype=bool))

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
    """Each mode's law as a closed form, with np.linalg.pinv throughout
    except ConventionalRR's J^+ and null projector, which are evaluated in
    50 digits (pinv_and_null_50_digits). A joint-limit schedule adds its
    term in every mode, in the null space of the mode's tasks, when the
    error it is scheduled on is one the mode tracks and is past the
    switch."""
    def pinv(M):
        return np.linalg.pinv(M, rcond=SV_TOL)

    J = jacobian(q, GEOM).J
    Jv, Jw, eye = J[:3], J[3:], np.eye(9)
    if mode is ControllerMode.ConventionalRR:
        J_pinv, null = pinv_and_null_50_digits(J)
        qdot, tracked = J_pinv @ np.concatenate([e.e_p, e.e_zeta]), ("position", "orientation")
    elif mode is ControllerMode.PositionWithJL:
        qdot = pinv(Jv) @ e.e_p
        null, tracked = eye - pinv(Jv) @ Jv, ("position",)
    elif mode is ControllerMode.OrientationWithJL:
        qdot = pinv(Jw) @ e.e_zeta
        null, tracked = eye - pinv(Jw) @ Jw, ("orientation",)
    else:
        Jt = Jw @ (eye - pinv(Jv) @ Jv)
        qdot_p = gains.gamma_position * pinv(Jv) @ e.e_p
        qdot = qdot_p + gains.gamma_orientation * pinv(Jt) @ (e.e_zeta - Jw @ qdot_p)
        null, tracked = eye - pinv(Jv) @ Jv - pinv(Jt) @ Jt, ("position", "orientation")
    sched = gains.joint_limit
    if sched is not None and sched.metric in tracked:
        norm = np.linalg.norm(e.e_p if sched.metric == "position" else e.e_zeta)
        if norm > sched.switch_threshold:
            qdot = qdot + sched.value_far * null @ jl_gradient(q, LIMITS)
    return q + gains.alpha * qdot


def pinv_and_null_50_digits(J):
    """J^+ and its null projector I - J^+ J of the float matrix J, each
    evaluated in 50 digits and rounded to floats. J^+ = J^T (J J^T)^+ from
    the eigenpairs (l_k, u_k) of J J^T, dropping those with l_k <=
    SV_TOL^2 l_max: the singular values np.linalg.pinv(J, rcond=SV_TOL)
    drops."""
    with mpmath.workdps(50):
        J = mpmath.matrix(J.tolist())
        eigenvalues, U = mpmath.eigsy(J * J.T)
        cutoff = SV_TOL ** 2 * max(eigenvalues)
        J_pinv = mpmath.zeros(J.cols, J.rows)
        for k, l_k in enumerate(eigenvalues):
            if l_k > cutoff:
                J_pinv += J.T * U[:, k] * (U[:, k].T / l_k)
        null = mpmath.eye(J.cols) - J_pinv * J
        return np.array(J_pinv.tolist(), dtype=float), np.array(null.tolist(), dtype=float)


def offset_target(q, rng):
    pose = forward_kinematics(q, GEOM)
    return Pose(pose.position + rng.uniform(-0.08, 0.08, 3),
                rotvec_to_matrix(rng.uniform(-0.5, 0.5, 3)) @ pose.rotation)


TABLE_GAINS = [
    GainSchedule(alpha=0.05, gamma_position=1.0, gamma_orientation=0.1,
                 joint_limit=JointLimitSchedule(value_far=-0.01, switch_threshold=0.0)),
    GainSchedule(alpha=0.074, gamma_position=0.7, gamma_orientation=0.3,
                 joint_limit=JointLimitSchedule(value_far=-0.005, switch_threshold=0.0,
                                                metric="orientation")),
    GainSchedule(alpha=0.05, gamma_position=1.0, gamma_orientation=0.1),  # no term
]

#: Top of the ill-conditioned band of the Gram form, GRAM_TOL < det G /
#: (tr G m2) <= ILL_CONDITIONED: there cond(G) > 1e3 and the cofactor form
#: alone is up to 7e-7 off np.linalg.pinv, so the band's accuracy rests on
#: the Newton-Schulz correction.
ILL_CONDITIONED = 1e-3

#: Near-straight configurations with blocks in the ill-conditioned band:
#: J_t at 2.7e-5 (cond(J_t) = 150), and J_w at 1.3e-4 with J_t at 3.7e-4.
#: J_v's ratio stays above 3.6e-3 over the feasible box (20,000 uniform
#: draws), so no J_v block is in the band.
Q_BAND_JT = np.array([0.0625, 0.062499788675134595, 0.062499211324865404, 0.0625,
                         0.01171875, 0.078125, 0.05078125, 0.048828125, 0.046875])
Q_BAND_JW = np.array([0.047772759649650665, 0.03482990920665355, 0.03865348242900034,
                         0.027731843719918145, 0.029493715245830332, 0.025290308366361057,
                         0.027693766057124397, 0.027693765791246158, 0.027693766236603235])


#: ConventionalRR's step is within this many eps cond(J) of J^+ e. In
#: sweeps of configurations with one near-straight section and all three
#: TABLE_GAINS, the largest ratios were 7.2 at cond(J) 1.24e3 (the pinned
#: Q_NEAR_STRAIGHT_RR, 1.97e-12 off) and 0.5 at 1.18e4 over 18,000
#: configurations, and 5.7 at cond(J) 886 (1.1e-12 off) over 16,000 more,
#: whose 99.9th percentile was 1.4; 30 leaves a margin of four over 7.2.
CONVENTIONAL_RR_ROUNDING = 30.0

#: Third section near-straight, cond(J) 1.24e3, and its target: with
#: TABLE_GAINS[0], ConventionalRR's step is 1.97e-12 off the 50-digit
#: J^+ e, where np.linalg.pinv's law is 3.7e-14 off, so the gap is the
#: step's own rounding.
Q_NEAR_STRAIGHT_RR = np.array([
    0.06446431369141047, 0.05779650111977244, 0.06415820908444844,
    0.049638677752120955, 0.03793301415478431, 0.0894020395590421,
    0.010476888465491135, 0.010476886305491736, 0.010476891012374099])
TARGET_NEAR_STRAIGHT_RR = Pose(
    np.array([-0.16912488473763632, 0.12628237279252996, 0.49876929374252765]),
    rotvec_to_matrix(np.array([-0.44627256178766905, 0.6820645936082698, 1.7698309755278734])))


def written_out_tolerance(q, mode) -> float:
    """Relative bound on the gap between step_full and written_out_law.

    The two-task modes of the written-out law form the projector
    I - Jv^+ Jv, then J_t = Jw (I - Jv^+ Jv) and pinv(J_t), so their
    rounding grows with the condition number of J_t over the singular
    values pinv keeps; step_full forms no projector, but it forms J_t as
    Jw - (Jw Jv^+) Jv and inverts it at that conditioning, in the corrected
    Gram form or by the SVD. At the pinned near-straight example
    (cond(J_t) = 150, in the ill-conditioned band), against the law evaluated in
    60 digits, step_full is within 1.4e-13 relative and the written-out
    law off by 1.8e-12 with the joint-limit term and 1.4e-12 without it.
    So FullThreeTask's bound is 1e-12 or 1000 eps cond(J_t), the larger;
    over 20,000 configurations of bent, straight and near-straight
    sections (four seeds), each with all three TABLE_GAINS, the gap stayed
    under 215 eps cond(J_t) there and under 7.5e-13 in the single-task
    modes, whose bound is 1e-12.

    ConventionalRR's law is J^+ e with J^+ and I - J^+ J in 50 digits, so
    the gap is its step's own error, that of the unit-weight two-task
    recursion, and it too grows with the conditioning: its bound is 1e-12
    or CONVENTIONAL_RR_ROUNDING eps cond(J), the larger, cond(J) over the
    singular values pinv keeps. See CONVENTIONAL_RR_ROUNDING for the
    sweeps. With two near-straight or straight sections, which no test
    draws for it, cond(J) reaches 5e6 and the step 1.5e-10 off J^+ e in
    50 digits. Right next to fully straight the step parts from J^+ e: see
    test_next_to_fully_straight.
    """
    J = jacobian(q, GEOM).J
    if mode is ControllerMode.ConventionalRR:
        return max(1e-12, CONVENTIONAL_RR_ROUNDING * np.finfo(float).eps * kept_cond(J))
    if mode is ControllerMode.FullThreeTask:
        J_t = J[3:] @ (np.eye(9) - np.linalg.pinv(J[:3], rcond=SV_TOL) @ J[:3])
        return max(1e-12, 1e3 * np.finfo(float).eps * kept_cond(J_t))
    return 1e-12


def assert_matches_written_out(q, desired, gains, mode, written_mode=None, written_gains=None,
                               tolerance=None):
    """One step_full step of ``mode`` from q is within ``tolerance``
    (relative; by default written_out_tolerance) of the written-out law of
    ``written_mode`` with ``written_gains``, by default the same mode and
    gains."""
    e = pose_error(desired.position, desired.rotation, forward_kinematics(q, GEOM))
    law = step_full(q, e, gains, make_cfg(mode)) - q
    written = written_out_law(q, e, written_gains or gains, written_mode or mode) - q
    if tolerance is None:
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
    @pytest.mark.parametrize("gains", [TABLE_GAINS[0], TABLE_GAINS[2]],
                             ids=["with_jl", "without_jl"])
    @settings(max_examples=15, deadline=None)
    @given(q=actuator_vectors(st.permutations(["near", "bent", "bent"])),
           seed=st.integers(0, 2**32 - 1))
    # cond(J_t) = 150: the written-out law is 1.8e-12 off with the term and
    # 1.4e-12 without it, step_full 1.4e-13 with its correction.
    @example(q=Q_BAND_JT, seed=0)
    @example(q=Q_BAND_JW, seed=0)
    def test_step_matches_written_out_law_near_straight(self, mode, gains, q, seed):
        # Blocks in the ill-conditioned band take no SVD in any mode.
        desired = offset_target(q, np.random.default_rng(seed))
        assert_fallback_follows_the_guard(q, desired, gains, mode)
        assert_matches_written_out(q, desired, gains, mode)

    def test_conventional_rr_within_its_conditioning_bound_near_straight(self):
        # 7.2 eps cond(J) off J^+ e: past a flat 1e-12, inside the bound.
        assert_matches_written_out(Q_NEAR_STRAIGHT_RR, TARGET_NEAR_STRAIGHT_RR, TABLE_GAINS[0],
                                   ControllerMode.ConventionalRR)

    @pytest.mark.parametrize("mode, q", [(ControllerMode.ConventionalRR, Q_BAND_JT),
                                         (ControllerMode.ConventionalRR, Q_BAND_JW),
                                         (ControllerMode.OrientationWithJL, Q_BAND_JW),
                                         (ControllerMode.FullThreeTask, Q_BAND_JT),
                                         (ControllerMode.FullThreeTask, Q_BAND_JW)])
    def test_pinned_near_straight_examples_reach_the_ill_conditioned_band(self, mode, q):
        # So the examples above run the corrected Gram form at cond(G) > 1e3,
        # not the SVD. PositionWithJL never reaches the band (J_v).
        assert any(GRAM_TOL < guard_ratio(A) <= ILL_CONDITIONED
                   for A in written_out_blocks(q, mode))

    def test_schedule_on_an_untracked_error_stays_off(self):
        # The orientation error is far past the switch, but PositionWithJL
        # does not track it: no joint-limit term, as with no schedule at all.
        q = Q_MID + np.linspace(-0.02, 0.02, 9)
        pose = forward_kinematics(q, GEOM)
        desired = Pose(pose.position + np.array([0.0, 0.05, 0.0]),
                       rot_x(1.0) @ pose.rotation)
        on_orientation = GainSchedule(alpha=0.074, joint_limit=JointLimitSchedule(
            value_far=-0.01, switch_threshold=0.01, metric="orientation"))
        cfg = make_cfg(ControllerMode.PositionWithJL)
        np.testing.assert_array_equal(step(q, desired, on_orientation, cfg),
                                      step(q, desired, GainSchedule(alpha=0.074), cfg))
        assert_matches_written_out(q, desired, on_orientation, ControllerMode.PositionWithJL)

    def test_every_mode_has_a_tracks_entry(self):
        assert set(TRACKS) == set(ControllerMode)
        assert all(len(tracks) == 2 and any(tracks) for tracks in TRACKS.values())

    @pytest.mark.parametrize("gains", TABLE_GAINS,
                             ids=["on_position", "on_orientation", "no_schedule"])
    @pytest.mark.parametrize("mode, untracked", [
        (ControllerMode.PositionWithJL, "e_zeta"),
        (ControllerMode.OrientationWithJL, "e_p"),
    ], ids=["PositionWithJL", "OrientationWithJL"])
    def test_an_untracked_error_never_reaches_the_step(self, mode, untracked, gains):
        # Fine positioning runs PositionWithJL on an orientation it does not
        # track: whatever that error holds, NaN included, the step is the
        # one it takes on zeros, with the schedule on or off.
        q = Q_BENT
        desired = offset_target(q, np.random.default_rng(5))
        e = pose_error(desired.position, desired.rotation, forward_kinematics(q, GEOM))
        cfg = make_cfg(mode)
        zeros, nans = (replace(e, **{untracked: np.full(3, value)}) for value in (0.0, np.nan))
        stepped = step_full(q, zeros, gains, cfg)
        assert np.isfinite(stepped).all()
        assert step_full(q, nans, gains, cfg).tobytes() == stepped.tobytes()


def guard_ratio(A) -> float:
    """det G / (tr G m2) of G = A A^T, m2 the sum of G's principal 2x2
    minors: the ratio step_full's Gram-form guard compares with GRAM_TOL."""
    G = A @ A.T
    m2 = sum(np.linalg.det(np.delete(np.delete(G, i, 0), i, 1)) for i in range(3))
    return float(np.linalg.det(G) / (np.trace(G) * m2))


def written_out_blocks(q, mode) -> list:
    """The 3-row task blocks of ``mode`` as the written-out law forms them."""
    J = jacobian(q, GEOM).J
    Jv, Jw = J[:3], J[3:]
    Jt = Jw @ (np.eye(9) - np.linalg.pinv(Jv, rcond=SV_TOL) @ Jv)
    return {ControllerMode.ConventionalRR: [Jv, Jt],
            ControllerMode.PositionWithJL: [Jv], ControllerMode.OrientationWithJL: [Jw],
            ControllerMode.FullThreeTask: [Jv, Jt]}[mode]


def fallback_blocks(q, desired, gains, mode) -> list:
    """The blocks one step_full call at q sends to the SVD fallback."""
    e = pose_error(desired.position, desired.rotation, forward_kinematics(q, GEOM))
    with svd_spy() as blocks:
        step_full(q, e, gains, make_cfg(mode))
    return blocks


def assert_fallback_follows_the_guard(q, desired, gains, mode):
    """step_full sends to the SVD exactly the 3-row blocks whose ratio is at
    or under GRAM_TOL; a ratio within 1e-6 of it is not judged."""
    ratios = [guard_ratio(A) for A in written_out_blocks(q, mode)]
    taken = fallback_blocks(q, desired, gains, mode)
    if all(abs(ratio / GRAM_TOL - 1) > 1e-6 for ratio in ratios):
        assert sum(A.shape[0] == 3 for A in taken) == sum(ratio <= GRAM_TOL for ratio in ratios)


#: Bent and mid-range: every 3-row block passes the guard with room and
#: takes the Gram form, det G / (tr G m2) being 6.1e-3 for J_v, 4.0e-3 for
#: J_w and 1.5e-3 for J_t, all above ILL_CONDITIONED.
Q_BENT = Q_MID + np.linspace(0.02, -0.02, 9)


def schedule_on(mode) -> GainSchedule:
    """Published-style weights with a joint-limit schedule on the error
    ``mode`` tracks, past its switch everywhere."""
    metric = "orientation" if mode is ControllerMode.OrientationWithJL else "position"
    return GainSchedule(alpha=0.05, gamma_orientation=0.1, joint_limit=JointLimitSchedule(
        value_far=-0.01, switch_threshold=0.0, metric=metric))


class TestFactorFormEdges:
    """``step_full`` inverts each 3-row task block in Gram form when the
    guard passes and by the truncated SVD otherwise. Where a block loses
    rank or is not finite it must take the SVD, and the step must still be
    the law written out with np.linalg.pinv."""

    @pytest.mark.parametrize("mode", list(ControllerMode))
    @pytest.mark.parametrize("offset, rank", [(1e-7, 3), (2e-9, 2), (0.0, 2)])
    def test_next_to_fully_straight(self, mode, offset, rank):
        # Sections 2 and 3 exactly straight, section 1 bent by one actuator's
        # offset: sigma_min / sigma_max of the orientation block is about
        # 2.3 * offset, so it falls under SV_TOL at 2e-9 and is 0 at 0. The
        # orientation block (J_t in the two-task modes) fails the guard at
        # every offset and takes the SVD; the position block passes it.
        fallback = {ControllerMode.ConventionalRR: [(3, 9)], ControllerMode.PositionWithJL: [],
                    ControllerMode.OrientationWithJL: [(3, 9)],
                    ControllerMode.FullThreeTask: [(3, 9)]}[mode]
        q = np.full(9, 0.05)
        q[0] += offset
        s = np.linalg.svd(jacobian(q, GEOM).J[3:], compute_uv=False)
        assert np.count_nonzero(s > SV_TOL * s[0]) == rank
        rng = np.random.default_rng(3)
        for gains in TABLE_GAINS:
            for _ in range(5):
                desired = offset_target(q, rng)
                taken = fallback_blocks(q, desired, gains, mode)
                assert [A.shape for A in taken] == fallback
                if mode is ControllerMode.ConventionalRR and offset and rank == 2:
                    # J_t drops the direction under SV_TOL that the 6x9 J keeps:
                    # the step is the unit-weight two-task law (to 5.3e-15) and
                    # 7.4e-8 off J^+ e.
                    unit = replace(gains, gamma_position=1.0, gamma_orientation=1.0)
                    assert_matches_written_out(q, desired, gains, mode,
                                               ControllerMode.FullThreeTask, unit, 1e-12)
                    assert_matches_written_out(q, desired, gains, mode, tolerance=1e-7)
                else:
                    assert_matches_written_out(q, desired, gains, mode)

    @pytest.mark.parametrize("mode, rows", [
        (ControllerMode.ConventionalRR, POSITION),
        (ControllerMode.ConventionalRR, ORIENTATION),
        (ControllerMode.PositionWithJL, POSITION),
        (ControllerMode.OrientationWithJL, ORIENTATION),
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
            with svd_spy() as taken:
                q_next = step(q, desired, gains, make_cfg(mode))
            assert np.isfinite(q_next).all()
            assert any(not A.any() for A in taken)  # the zero block took the SVD
            assert_matches_written_out(q, desired, gains, mode)

    @pytest.mark.parametrize("mode", list(ControllerMode))
    def test_a_nan_in_the_jacobian_takes_the_svd(self, monkeypatch, mode):
        # A NaN fails the guard, as every comparison with NaN is false, so
        # the first block goes to the SVD, which raises LinAlgError on it or
        # returns NaN factors.
        J = jacobian(Q_BENT, GEOM).J.copy()
        J[:, 0] = np.nan
        monkeypatch.setattr(softarm.controller, "jacobian", lambda q, geom: Jacobian6x9(J=J))
        desired = offset_target(Q_BENT, np.random.default_rng(6))
        e = pose_error(desired.position, desired.rotation, forward_kinematics(Q_BENT, GEOM))
        with svd_spy() as blocks:
            try:
                q_next = step_full(Q_BENT, e, gains_full_default(), make_cfg(mode))
            except np.linalg.LinAlgError:
                pass
            else:
                assert not np.isfinite(q_next).all()
        assert np.isnan(blocks[0]).any()

    @pytest.mark.parametrize("jl", [True, False], ids=["with_jl", "without_jl"])
    @pytest.mark.parametrize("mode, fallback", [
        (ControllerMode.ConventionalRR, []),
        (ControllerMode.PositionWithJL, []),
        (ControllerMode.OrientationWithJL, []),
        (ControllerMode.FullThreeTask, []),
    ])
    def test_bent_mid_range_blocks_take_the_gram_form(self, mode, fallback, jl):
        gains = schedule_on(mode) if jl else replace(schedule_on(mode), joint_limit=None)
        rng = np.random.default_rng(9)
        for _ in range(5):
            desired = offset_target(Q_BENT, rng)
            taken = fallback_blocks(Q_BENT, desired, gains, mode)
            assert [A.shape for A in taken] == fallback
            assert_matches_written_out(Q_BENT, desired, gains, mode)


class TestGramGuard:
    """det G / (tr G m2) brackets lmin / lmax of G = A A^T within a factor
    of 9, and step_full's guard sends exactly the blocks at or under
    GRAM_TOL to the SVD; the Gram form, with its one Newton-Schulz step,
    reaches eps cond(A) in the ill-conditioned band."""

    @settings(max_examples=200, deadline=None)
    @given(log_eigenvalues=st.lists(st.floats(-7.0, 0.0), min_size=3, max_size=3),
           log_scale=st.floats(-4.0, 4.0), seed=st.integers(0, 2**32 - 1))
    @example(log_eigenvalues=[0.0, 0.0, 0.0], log_scale=0.0, seed=0)  # ratio 1/9
    @example(log_eigenvalues=[0.0, -2.0, -4.5], log_scale=3.0, seed=1)  # 3.1e-5, in the band
    @example(log_eigenvalues=[0.0, -5.0, -5.5], log_scale=-3.0, seed=2)  # 2.4e-6, in the band
    @example(log_eigenvalues=[0.0, -0.5, -6.2], log_scale=0.0, seed=3)  # 4.8e-7, the SVD
    def test_guard_ratio_brackets_the_eigenvalue_ratio(self, log_eigenvalues, log_scale,
                                                       seed):
        rng = np.random.default_rng(seed)
        rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        rows = np.linalg.qr(rng.normal(size=(9, 3)))[0].T  # orthonormal
        eigenvalues = 10.0 ** (np.array(log_eigenvalues) + log_scale)
        A = (rotation * np.sqrt(eigenvalues)) @ rows
        lam = np.linalg.eigvalsh(A @ A.T)
        ratio = guard_ratio(A)
        assert ratio <= lam[0] / lam[-1] * (1 + 1e-6)
        assert lam[0] / lam[-1] <= 9 * ratio * (1 + 1e-6)
        with svd_spy() as blocks:
            pinv = softarm.controller._pinv(A)
        if abs(ratio / GRAM_TOL - 1) > 1e-6:
            assert len(blocks) == (ratio <= GRAM_TOL)
        expected = np.linalg.pinv(A, rcond=SV_TOL)
        error = np.linalg.norm(pinv - expected)
        # The corrected Gram form is within eps cond(A) of np.linalg.pinv in
        # the ill-conditioned band, where the cofactor form alone is not.
        assert error <= 1e-11 * np.linalg.norm(expected)
        if GRAM_TOL * (1 + 1e-6) < ratio < ILL_CONDITIONED:
            cond = lam[-1] ** 0.5 / lam[0] ** 0.5
            assert error <= 10 * np.finfo(float).eps * cond * np.linalg.norm(expected)

    @pytest.mark.parametrize("mode", [ControllerMode.PositionWithJL,
                                      ControllerMode.OrientationWithJL,
                                      ControllerMode.FullThreeTask])
    @pytest.mark.parametrize("jl", [True, False], ids=["with_jl", "without_jl"])
    @settings(max_examples=15, deadline=None)
    @given(q=actuator_vectors(st.permutations(["near", "near", "bent"])),
           seed=st.integers(0, 2**32 - 1))
    # Every block is above ILL_CONDITIONED: the Gram form at cond(G) < 1e3.
    @example(q=np.array([0.011322210842282328, 0.07506161913602179, 0.08302044618221774,
                         0.058530862061374395, 0.05853074525661519, 0.05853098069318157,
                         0.07526828432972257, 0.07526835405632816, 0.07526835405540992]),
             seed=0)
    # J_w (9.2e-4) and J_t (6.7e-4) at the top of the ill-conditioned band; J_v
    # (5.1e-3) above it.
    @example(q=np.array([0.0515170442483001, 0.05151704422231059, 0.05151704423364003,
                         0.07786502519261425, 0.07786502514351536, 0.07786502523401771,
                         0.047462686537131725, 0.03694823164899147, 0.03727630919072247]),
             seed=0)
    # J_w (9.5e-6) and J_t (6.4e-6) deep in the ill-conditioned band.
    @example(q=np.array([0.023091388201136057, 0.023091388524489272, 0.023091388677834012,
                         0.07438234786544104, 0.07438231991060533, 0.07438233042045476,
                         0.052052054053792124, 0.05200396794467155, 0.05098415700616927]),
             seed=0)
    # J_w (1.5e-7) and J_t (1.1e-7) under GRAM_TOL take the SVD. The third
    # section spreads 1.5e-4 m, less bent than the strategy draws.
    @example(q=np.array([0.0515170442483001, 0.05151704422231059, 0.05151704423364003,
                         0.07786502519261425, 0.07786502514351536, 0.07786502523401771,
                         0.04, 0.0401, 0.03995]), seed=0)
    def test_near_straight_blocks_on_both_sides_of_the_guard(self, mode, jl, q, seed):
        # Two near-straight sections put the orientation block and J_t
        # above ILL_CONDITIONED, in the ill-conditioned band or under
        # GRAM_TOL; every case matches the written-out law.
        gains = schedule_on(mode) if jl else replace(schedule_on(mode), joint_limit=None)
        desired = offset_target(q, np.random.default_rng(seed))
        assert_fallback_follows_the_guard(q, desired, gains, mode)
        assert_matches_written_out(q, desired, gains, mode)
