from dataclasses import replace
from itertools import count

import numpy as np
import pytest

from softarm.config import load_scenario_dict, parse_scenario
from softarm.controller import ControllerConfig, ControllerMode, pose_error, step_full
from softarm import workflow
from softarm.geometry import default_geometry
from softarm.kinematics import Pose
from softarm.plant import Plant, PlantConfig
from softarm.rotations import rot_x, rot_z
from softarm.vision import build_registry
from softarm.workflow import (
    HarvestState,
    WorkflowConfig,
    run_harvest,
)

GEOM = default_geometry()
BERRY = np.array([0.0, 0.40, 0.45])
APPROACH = rot_x(np.deg2rad(-90.0)) @ rot_z(2 * np.pi / 3)


def make_workflow(**kwargs):
    base = ControllerConfig(geometry=GEOM, joint_limits=GEOM.joint_limits(),
                            mode=ControllerMode.FullThreeTask)
    return WorkflowConfig(controller=base, **kwargs)


def registry():
    return build_registry(cam1_target=tuple(BERRY))


class RecedingPlant(Plant):
    """Reports a pose that recedes 0.5 m further along Z every step."""

    drift = 0.0

    def apply_command(self, q_cmd):
        obs = super().apply_command(q_cmd)
        self.drift += 0.5
        pose = obs.pose_filtered
        return replace(obs, pose_filtered=Pose(
            pose.position + np.array([0.0, 0.0, self.drift]), pose.rotation))


class TestWorkflowConfig:
    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            make_workflow(coarse_threshold=0.02, grasp_threshold=0.06)


class TestHarvestRun:
    def test_default_harvest_completes(self):
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow())
        assert log.final_state is HarvestState.Done
        assert log.grasp_success
        assert [s.stage for s in log.stages] == ["InitialPlacement", "FinePositioning",
                                                 "Grasp", "ReturnHome"]
        fine = log.stages[1]
        assert fine.final_dist_true < 0.02

    def test_stage_transitions_are_one_way(self):
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow())
        order = ["InitialPlacement", "FinePositioning", "Grasp", "ReturnHome"]
        indices = [order.index(r.stage) for r in log.rows]
        assert indices == sorted(indices)

    def test_fine_stage_reads_only_eye_in_hand(self):
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow())
        sources = {r.target_source for r in log.rows if r.stage == "FinePositioning"}
        assert sources <= {"c2", "c2_held"}

    def test_fine_stage_steps_on_the_position_error_alone(self, monkeypatch):
        # Orientation is frozen in the fine stage, so no pose error (and no
        # rotation log) is formed there; its steps get a zero e_zeta.
        poses, fine_errors = [], []
        monkeypatch.setattr(workflow, "pose_error",
                            lambda d, c: poses.append(d) or pose_error(d, c))

        def recording_step(q, e, gains, cfg):
            if cfg.mode is ControllerMode.PositionWithJL:
                fine_errors.append(e)
            return step_full(q, e, gains, cfg)

        monkeypatch.setattr(workflow, "step_full", recording_step)
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow())
        placement, fine = log.stages[:2]
        assert len(poses) == placement.end_iteration - placement.start_iteration
        assert len(fine_errors) == fine.end_iteration - fine.start_iteration > 0
        assert all(not e.e_zeta.any() for e in fine_errors)

    def test_gripper_closed_during_grasp(self):
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow())
        grasp_rows = [r.iteration for r in log.rows if r.stage == "Grasp"]
        close_events = [it for it, action in log.gripper_events if action == "close"]
        assert close_events and close_events[0] in grasp_rows

    def test_forced_c1_occlusion_still_converges(self):
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow(c1_occlusion_window=(20, 30)))
        assert log.final_state is HarvestState.Done
        held = [r.iteration for r in log.rows if r.target_source == "c1_held"]
        assert held and min(held) == 20
        assert log.stages[1].final_dist_true < 0.02

    def test_unreachable_berry_times_out_in_placement(self):
        cfg = make_workflow()
        cfg = replace(cfg, placement=replace(cfg.placement, max_iterations=200))
        far = np.array([0.0, 0.9, 0.5])  # beyond total arm length
        log = run_harvest(far, APPROACH, Plant(PlantConfig()), registry(), cfg)
        assert log.final_state is HarvestState.Failed
        assert "StageTimeout(InitialPlacement)" in log.failure_reason
        assert log.stages[0].outcome == "timeout"

    def test_berry_never_seen_by_c1_is_a_logged_failure(self):
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow(c1_occlusion_window=(0, 10)))
        assert log.final_state is HarvestState.Failed
        assert log.failure_reason == ("InitialPlacement: berry occluded and "
                                      "never seen before")

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(target, registry):
            raise TypeError("broken frame chain")

        monkeypatch.setattr(workflow, "cam1_target_to_base", broken)
        with pytest.raises(TypeError, match="broken frame chain"):
            run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                        make_workflow())

    def test_placement_divergence_reads_the_controller_rule(self):
        # The reported pose recedes from the berry faster every step; the
        # placement stage closes as diverged once the distance has stayed
        # above divergence_factor times its initial value for
        # divergence_window steps.
        base = ControllerConfig(geometry=GEOM, joint_limits=GEOM.joint_limits(),
                                mode=ControllerMode.FullThreeTask, divergence_window=5)
        log = run_harvest(BERRY, APPROACH, RecedingPlant(PlantConfig()), registry(),
                          WorkflowConfig(controller=base))
        placement = log.stages[0]
        assert (placement.stage, placement.outcome) == ("InitialPlacement", "diverged")
        assert log.failure_reason == "InitialPlacement: diverged"
        dists = [row.dist_est for row in log.rows]
        passed = next(k for k, d in enumerate(dists)
                      if d > base.divergence_factor * dists[0])
        assert placement.end_iteration - placement.start_iteration <= passed + 5

    def test_placement_budget_is_checked_before_divergence(self):
        # A budget that ends on the row where the divergence window ends
        # closes the stage as a timeout.
        base = ControllerConfig(geometry=GEOM, joint_limits=GEOM.joint_limits(),
                                mode=ControllerMode.FullThreeTask, divergence_window=5)
        wf = WorkflowConfig(controller=base)
        diverged = run_harvest(BERRY, APPROACH, RecedingPlant(PlantConfig()), registry(), wf)
        assert diverged.stages[0].outcome == "diverged"
        end = diverged.stages[0].end_iteration
        wf = replace(wf, placement=replace(wf.placement, max_iterations=end))
        log = run_harvest(BERRY, APPROACH, RecedingPlant(PlantConfig()), registry(), wf)
        assert (log.stages[0].outcome, log.stages[0].end_iteration) == ("timeout", end)
        assert log.failure_reason == "StageTimeout(InitialPlacement)"

    def test_repeat_runs_identical(self):
        a = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                        make_workflow())
        b = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                        make_workflow())
        assert len(a.rows) == len(b.rows)
        for ra, rb in zip(a.rows, b.rows):
            np.testing.assert_array_equal(ra.q, rb.q)
            np.testing.assert_array_equal(ra.position, rb.position)

    def test_return_home_restores_home_posture(self):
        cfg = make_workflow()
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(), cfg)
        last = log.rows[-1]
        np.testing.assert_allclose(last.q, cfg.home_q, atol=1e-12)


def row_values(row) -> tuple:
    return tuple(value.tobytes() if isinstance(value, np.ndarray) else value
                 for value in vars(row).values())


class TestReturnHome:
    @pytest.mark.parametrize("home_iterations", [0, 1, 7])
    def test_short_returns_match_one_command_at_a_time(self, monkeypatch, home_iterations):
        # The bundled harvest on a mismatched, noisy plant with noisy
        # observations. The reference sends each command on its own, each
        # from the interpolation k / n of the command before the return.
        runs = parse_scenario(load_scenario_dict("harvest_default")).runs
        for run in runs:
            wf = replace(run.workflow, home_iterations=home_iterations,
                         observation_noise_std=5e-4)
            plant_cfg = replace(run.plant, length_scale_error=np.full(9, 0.03),
                                position_noise_std=1e-4, rotation_noise_std=1e-3)
            log = run_harvest(run.berry, run.approach, Plant(plant_cfg), run.registry, wf)
            with monkeypatch.context() as patch:
                patch.setattr(Plant, "apply_commands",
                              lambda plant, q_cmds: map(plant.apply_command, q_cmds))
                reference = run_harvest(run.berry, run.approach, Plant(plant_cfg),
                                        run.registry, wf)
            assert log.final_state is reference.final_state is HarvestState.Done
            assert [row_values(row) for row in log.rows] == [
                row_values(row) for row in reference.rows]
            assert (log.stages, log.gripper_events) == (reference.stages,
                                                        reference.gripper_events)
            home = [row for row in log.rows if row.stage == "ReturnHome"]
            assert len(home) == home_iterations
            q_from = log.rows[-1 - home_iterations].q
            for k, row in enumerate(home, 1):
                assert row.q.tobytes() == (
                    q_from + (k / home_iterations) * (wf.home_q - q_from)).tobytes()


def run_recording(monkeypatch, wf, c2_lost=lambda n: False):
    """A harvest run that records the fixes each to-base function returned
    and the task error of each step. C2 is lost in observation ``n`` (from
    0) where ``c2_lost(n)`` holds."""
    fixes = {"cam1_target_to_base": [], "berry_to_base": []}
    for name, recorded in fixes.items():
        monkeypatch.setattr(workflow, name, lambda *args, convert=getattr(workflow, name),
                            recorded=recorded: recorded.append(convert(*args)) or recorded[-1])
    errors = []
    monkeypatch.setattr(workflow, "step_full",
                        lambda q, e, *args: errors.append(e) or step_full(q, e, *args))
    numbers = count()
    observe = workflow.simulate_observation
    monkeypatch.setattr(workflow, "simulate_observation", lambda *args, **kwargs: observe(
        *args, **kwargs, force_c2_occluded=c2_lost(next(numbers))))
    log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(), wf)
    return log, fixes, errors


def held(fixes, previous=None):
    """The estimate after each fix: the fix, or the one before it while
    there is none."""
    out = []
    for fix in fixes:
        previous = previous if fix is None else fix
        out.append(previous)
    return out


class TestHoldRule:
    def test_placement_holds_the_last_c1_fix_through_a_window(self, monkeypatch):
        wf = make_workflow(c1_occlusion_window=(20, 30))
        log, fixes, errors = run_recording(monkeypatch, wf)
        c1 = fixes["cam1_target_to_base"]
        assert all(fix is None for fix in c1[20:50]) and c1[19] is not None
        # Rows and steps are one per iteration; the last placement row
        # hands over instead of stepping.
        assert len(c1) == log.stages[0].end_iteration + 1
        for k, estimate in enumerate(held(c1)[:-1]):
            np.testing.assert_array_equal(
                errors[k].e_p, (estimate + APPROACH @ wf.standoff_offset) - log.rows[k].position)
            assert log.rows[k].target_source == ("c1" if c1[k] is not None else "c1_held")
        np.testing.assert_array_equal(held(c1)[49], c1[19])

    @pytest.mark.parametrize("length", [5, 10**6], ids=["window", "whole-stage"])
    def test_fine_stage_holds_the_last_fix_while_c2_is_lost(self, monkeypatch, length):
        # C2 is lost from the first fine iteration, so the estimate held
        # there is the last C1 fix of placement; with the whole stage lost,
        # the grasp is judged against it too.
        wf = make_workflow()
        start = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                            wf).stages[1].start_iteration
        # The fine stage's first iteration repeats placement's last, so its
        # observations and rows start at number start + 1.
        log, fixes, errors = run_recording(monkeypatch, wf,
                                           c2_lost=lambda n: start < n <= start + length)
        fine = log.stages[1]
        assert fine.start_iteration == start and fine.outcome == "reached"
        c2 = fixes["berry_to_base"]
        assert [fix is None for fix in c2] == [k < length for k in range(len(c2))]
        estimates = held(c2, previous=held(fixes["cam1_target_to_base"])[-1])
        rows = log.rows[start + 1:]
        for k, estimate in enumerate(estimates[:-1]):
            np.testing.assert_array_equal(errors[start + k].e_p, estimate - rows[k].position)
            assert rows[k].target_source == ("c2_held" if k < length else "c2")
        grasp_row = next(row for row in log.rows if row.stage == "Grasp")
        assert grasp_row.dist_est == float(np.linalg.norm(grasp_row.position - estimates[-1]))
