from dataclasses import replace
from itertools import count

import numpy as np
import pytest

from softarm.config import load_scenario_dict, parse_scenario
from softarm.controller import (
    DIVERGENCE_FACTOR,
    DIVERGENCE_WINDOW,
    ControllerConfig,
    ControllerMode,
    pose_error,
    step_full,
)
from softarm import workflow
from softarm.geometry import default_geometry
from softarm.kinematics import Pose
from softarm.plant import Plant, PlantConfig
from softarm.rotations import matrix_to_rotvec, rot_x, rot_z, rotvec_to_matrix
from softarm.vision import build_registry
from softarm.workflow import (
    HarvestRow,
    HarvestState,
    StageRecord,
    WorkflowConfig,
    run_harvest,
)

from conftest import svd_spy

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


class RecedingAfterHandover(RecedingPlant):
    """Follows the reset and the ``placement_steps`` commands of a clean
    placement, then recedes like :class:`RecedingPlant`, the true pose with
    the reported one: the eye-in-hand fix is chained through the reported
    pose, so only a true recession shows in the fine stage's distance."""

    def __init__(self, config, placement_steps):
        super().__init__(config)
        self.clean_commands = 1 + placement_steps  # the reset sends one

    def apply_command(self, q_cmd):
        if self.clean_commands:
            self.clean_commands -= 1
            return Plant.apply_command(self, q_cmd)
        return super().apply_command(q_cmd)

    def true_pose(self):
        pose = super().true_pose()
        return Pose(pose.position + np.array([0.0, 0.0, self.drift]), pose.rotation)


def receding_plant(stage: str):
    """A plant whose pose recedes from the berry during ``stage``."""
    if stage == "InitialPlacement":
        return RecedingPlant(PlantConfig())
    clean = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(), make_workflow())
    placement = clean.stages[0]
    return RecedingAfterHandover(PlantConfig(),
                                 placement.end_iteration - placement.start_iteration)


class TestWorkflowConfig:
    def test_thresholds_must_be_ordered(self):
        with pytest.raises(ValueError):
            make_workflow(coarse_threshold=0.02, grasp_threshold=0.06)


class TestHarvestRun:
    def test_default_harvest_completes(self):
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(),
                          make_workflow())
        assert log.final_state is HarvestState.Done
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
        placement_error = workflow._placement_error
        monkeypatch.setattr(workflow, "_placement_error",
                            lambda *args: poses.append(args) or placement_error(*args))

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
        cfg = make_workflow(placement_max_iterations=200)
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

    @pytest.mark.parametrize("stage", ["InitialPlacement", "FinePositioning"])
    def test_divergence_reads_the_controller_rule(self, stage):
        # The reported pose recedes from the berry faster every step; the
        # stage closes as diverged once the distance has stayed above
        # DIVERGENCE_FACTOR times its value on the stage's first row for
        # DIVERGENCE_WINDOW steps.
        log = run_harvest(BERRY, APPROACH, receding_plant(stage), registry(),
                          make_workflow())
        closed = log.stages[-1]
        assert (closed.stage, closed.outcome) == (stage, "diverged")
        assert log.failure_reason == f"{stage}: diverged"
        dists = [row.dist_est for row in log.rows if row.stage == stage]
        passed = next(k for k, d in enumerate(dists) if d > DIVERGENCE_FACTOR * dists[0])
        assert closed.end_iteration - closed.start_iteration == passed + DIVERGENCE_WINDOW - 1
        assert len(dists) == passed + DIVERGENCE_WINDOW

    @pytest.mark.parametrize("stage, budget", [
        ("InitialPlacement", "placement_max_iterations"),
        ("FinePositioning", "fine_max_iterations"),
    ])
    def test_budget_is_checked_before_divergence(self, stage, budget):
        # A budget that ends on the row where the divergence window ends
        # closes the stage as a timeout.
        wf = make_workflow()
        diverged = run_harvest(BERRY, APPROACH, receding_plant(stage), registry(), wf).stages[-1]
        assert (diverged.stage, diverged.outcome) == (stage, "diverged")
        wf = replace(wf, **{budget: diverged.end_iteration - diverged.start_iteration})
        log = run_harvest(BERRY, APPROACH, receding_plant(stage), registry(), wf)
        closed = log.stages[-1]
        assert (closed.stage, closed.outcome, closed.end_iteration) == (
            stage, "timeout", diverged.end_iteration)
        assert log.failure_reason == f"StageTimeout({stage})"

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

    def test_first_placement_steps_take_no_svd(self):
        # From the near-straight home posture, the guard ratio of the
        # projected orientation block J_t of harvest_default's berry 0 climbs
        # from 4e-5 to 7e-4 over the first 20 placement steps: cond(G) over
        # 1e3, but far above GRAM_TOL, so none sends it to the SVD.
        run = parse_scenario(load_scenario_dict("harvest_default")).runs[0]
        wf = replace(run.workflow, placement_max_iterations=20)
        with svd_spy() as blocks:
            log = run_harvest(run.berry, run.approach, Plant(run.plant), run.registry, wf)
        assert (log.stages[0].stage, log.stages[0].end_iteration) == ("InitialPlacement", 20)
        assert (3, 9) not in [A.shape for A in blocks]


def error_bytes(error) -> tuple:
    return (error.e_p.tobytes(), error.e_zeta.tobytes(), error.position_norm,
            error.orientation_norm)


class TestPlacementError:
    """Placement steps form ``pose_error(Pose(berry + standoff, approach),
    pose)`` with the approach checked once per harvest."""

    def test_has_the_bytes_of_pose_error(self):
        rng = np.random.default_rng(31)
        offset = make_workflow().standoff_offset
        for _ in range(2000):
            # Rotation vectors past pi in norm, so errors near pi are drawn too.
            approach, measured = (rotvec_to_matrix(w) for w in
                                  rng.normal(size=(2, 3)) * rng.uniform(0.0, 1.2, (2, 1)))
            berry = rng.uniform(-0.5, 0.5, 3)
            pose = Pose(rng.uniform(-0.5, 0.5, 3), measured)
            standoff = approach @ offset
            assert error_bytes(workflow._placement_error(berry + standoff, approach, pose)) == \
                error_bytes(pose_error(Pose(berry + standoff, approach), pose))

    def test_every_placement_step_takes_it(self, monkeypatch):
        calls = []
        placement_error = workflow._placement_error
        monkeypatch.setattr(workflow, "_placement_error", lambda *args: calls.append(
            (args, placement_error(*args))) or calls[-1][1])
        log = run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(), make_workflow())
        placement = log.stages[0]
        assert len(calls) == placement.end_iteration - placement.start_iteration > 0
        for (position, approach, pose), error in calls:
            assert approach.tobytes() == APPROACH.tobytes()
            assert error_bytes(error) == error_bytes(pose_error(Pose(position, APPROACH), pose))

    @pytest.mark.parametrize("approach, message", [
        (APPROACH * [[1.0], [1.0], [-1.0]], "proper"),
        (1.001 * APPROACH, "not orthonormal"),
    ], ids=["reflected", "stretched"])
    def test_a_bad_approach_raises(self, approach, message):
        with pytest.raises(ValueError, match=message):
            run_harvest(BERRY, approach, Plant(PlantConfig()), registry(), make_workflow())

    def test_a_non_finite_berry_estimate_raises(self, monkeypatch):
        monkeypatch.setattr(workflow, "cam1_target_to_base",
                            lambda target, registry: np.array([0.0, np.nan, 0.45]))
        with pytest.raises(ValueError, match="position must be finite"):
            run_harvest(BERRY, APPROACH, Plant(PlantConfig()), registry(), make_workflow())


def row_values(row) -> tuple:
    return tuple(value.tobytes() if isinstance(value, np.ndarray) else value
                 for value in vars(row).values())


class TestReturnHome:
    @pytest.mark.parametrize("home_iterations", [0, 1, 7, 100])
    def test_returns_match_one_command_at_a_time(self, monkeypatch, home_iterations):
        # The bundled harvest on a mismatched, noisy plant with noisy
        # observations. The reference stops at the grasp, then sends each
        # command on its own, the interpolation k / n from the command
        # before the return, and writes its row from the observation.
        runs = parse_scenario(load_scenario_dict("harvest_default")).runs
        for run in runs:
            wf = replace(run.workflow, home_iterations=home_iterations,
                         observation_noise_std=5e-4)
            plant_cfg = replace(run.plant, length_scale_error=np.full(9, 0.03),
                                position_noise_std=1e-4, rotation_noise_std=1e-3)
            log = run_harvest(run.berry, run.approach, Plant(plant_cfg), run.registry, wf)
            # The fixes of the reference run; the last one is held to the end.
            fixes = []
            for name in ("cam1_target_to_base", "berry_to_base"):
                monkeypatch.setattr(workflow, name, lambda *args, convert=getattr(workflow, name):
                                    fixes.append(convert(*args)) or fixes[-1])
            plant = Plant(plant_cfg)
            reference = run_harvest(run.berry, run.approach, plant, run.registry,
                                    replace(wf, home_iterations=0))
            monkeypatch.undo()
            berry_est = [fix for fix in fixes if fix is not None][-1]
            grasp = reference.rows[-1]
            rows = list(reference.rows)
            for k in range(1, home_iterations + 1):
                q = grasp.q + (k / home_iterations) * (wf.home_q - grasp.q)
                obs = plant.apply_command(q)
                pose = obs.pose_filtered
                rows.append(HarvestRow(
                    grasp.iteration + k, "ReturnHome", q, pose.position,
                    matrix_to_rotvec(pose.rotation),
                    float(np.linalg.norm(pose.position - berry_est)),
                    float(np.linalg.norm(plant.true_pose().position - run.berry)),
                    obs.infeasible_flags, "none"))
            assert log.final_state is reference.final_state is HarvestState.Done
            assert [row_values(row) for row in log.rows] == [row_values(row) for row in rows]
            end = grasp.iteration + home_iterations
            assert log.stages == [*reference.stages[:3], StageRecord(
                "ReturnHome", grasp.iteration, end, "home", rows[-1].dist_est,
                rows[-1].dist_true)]
            assert log.gripper_events == [(grasp.iteration, "close"), (end, "open")]


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

    def observe_losing_c2(*args, **kwargs):
        target = observe(*args, **kwargs)
        return replace(target, position_c2=None) if c2_lost(next(numbers)) else target

    monkeypatch.setattr(workflow, "simulate_observation", observe_losing_c2)
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
