"""Staged harvesting state machine: initial placement, fine positioning,
grasp, return home.

Stage transitions are one-way latches on end-effector-to-berry distance:
6 cm hands the berry feedback from the eye-to-hand camera to the
eye-in-hand chain, 2 cm triggers the grasp. Vision only reports fixes;
while the active camera has none, the harvest holds its last estimate.
"""

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .controller import (
    ControllerConfig,
    ControllerMode,
    Divergence,
    GainSchedule,
    TaskError,
    gains_full_default,
    gains_position_default,
    pose_error,
    step_full,
)
from .geometry import norm
from .kinematics import Pose, _check_position
from .rotations import matrix_to_rotvec, rows_to_rotvec
from .vision import (
    BerryTarget,
    FrameRegistry,
    berry_to_base,
    cam1_target_to_base,
    simulate_observation,
)


class HarvestState(enum.Enum):
    InitialPlacement = "InitialPlacement"
    FinePositioning = "FinePositioning"
    Grasp = "Grasp"
    ReturnHome = "ReturnHome"
    Done = "Done"
    Failed = "Failed"


def _default_home_q() -> np.ndarray:
    # Mid-range (far from both actuator bounds, where the avoidance cost is
    # flat). The bundled harvest outputs depend on this exact posture.
    return np.tile([0.051, 0.050, 0.049], 3)


@dataclass(frozen=True)
class WorkflowConfig:
    controller: ControllerConfig
    coarse_threshold: float = 0.06   # m, C1 -> C2 feedback handover
    grasp_threshold: float = 0.02    # m, gripper workspace radius
    # Pre-grasp offset in the approach frame; -Z backs off along the
    # gripper approach axis.
    standoff_offset: np.ndarray = field(
        default_factory=lambda: np.array([0.0, 0.0, -0.05]))
    home_q: np.ndarray = field(default_factory=_default_home_q)
    placement_gains: GainSchedule = field(default_factory=gains_full_default)
    placement_max_iterations: int = 2000
    # The fine stage starts inside the coarse threshold, i.e. in the
    # near-goal regime where the avoidance schedule is off; it runs the
    # plain position law.
    fine_gains: GainSchedule = field(
        default_factory=lambda: replace(gains_position_default(), joint_limit=None))
    fine_max_iterations: int = 1000
    home_iterations: int = 100
    observation_noise_std: float = 0.0
    # Forced C1 berry dropout (global iteration start, length); None disables.
    c1_occlusion_window: tuple | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if not 0 < self.grasp_threshold < self.coarse_threshold:
            raise ValueError("grasp_threshold must be positive and below coarse_threshold")
        for name in ("placement_max_iterations", "fine_max_iterations", "home_iterations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not self.observation_noise_std >= 0:
            raise ValueError("observation_noise_std must be non-negative")


@dataclass
class HarvestRow:
    iteration: int
    stage: str
    q: np.ndarray
    position: np.ndarray
    rotvec: np.ndarray
    dist_est: float
    dist_true: float
    infeasible: np.ndarray
    target_source: str


@dataclass
class StageRecord:
    stage: str
    start_iteration: int
    end_iteration: int
    outcome: str
    final_dist_est: float
    final_dist_true: float


@dataclass
class HarvestLog:
    rows: list = field(default_factory=list)
    stages: list = field(default_factory=list)
    gripper_events: list = field(default_factory=list)
    final_state: HarvestState = HarvestState.Failed
    failure_reason: str | None = None


def run_harvest(berry_base_truth, desired_approach_orientation, plant,
                registry: FrameRegistry, cfg: WorkflowConfig) -> HarvestLog:
    """Execute one harvesting attempt against a simulated plant.

    The berry is fixed in the base frame; ``desired_approach_orientation``
    is the gripper rotation whose +Z axis points at the berry. ``plant``
    takes one command per closed-loop step (``apply_command``) and the
    return home as one batch (``apply_commands``). Returns the
    complete per-stage log; failures (timeouts, divergence, a berry the
    camera has never seen, missed grasp) are recorded rather than raised.
    Any other exception propagates.
    """
    berry_truth = np.asarray(berry_base_truth, dtype=float)
    # Checked once, as Pose() checks a rotation; placement steps check only
    # their desired position.
    approach = Pose(np.zeros(3), desired_approach_orientation).rotation
    log = HarvestLog()
    rng = np.random.default_rng(cfg.rng_seed)

    obs = plant.reset(cfg.home_q)
    q = np.asarray(cfg.home_q, dtype=float).copy()
    berry_est = None  # the last base-frame fix, held while the camera has none
    iteration = 0

    def observe(it: int) -> BerryTarget:
        window = cfg.c1_occlusion_window  # (start, length) or None
        return simulate_observation(
            berry_truth, plant.true_pose(), registry,
            noise_std=cfg.observation_noise_std, rng=rng,
            force_c1_occluded=window is not None and window[0] <= it < window[0] + window[1])

    def record(stage: HarvestState, berry_est, source: str):
        pose = obs.pose_filtered
        log.rows.append(HarvestRow(
            iteration=iteration,
            stage=stage.value,
            q=q.copy(),
            position=pose.position.copy(),
            rotvec=matrix_to_rotvec(pose.rotation),
            dist_est=norm(pose.position - berry_est),
            dist_true=norm(plant.true_pose().position - berry_truth),
            infeasible=obs.infeasible_flags,
            target_source=source,
        ))

    def close_stage(stage: HarvestState, start: int, outcome: str):
        last = log.rows[-1]
        log.stages.append(StageRecord(
            stage=stage.value, start_iteration=start, end_iteration=iteration,
            outcome=outcome, final_dist_est=last.dist_est, final_dist_true=last.dist_true))

    def fail(reason: str):  # final_state stays Failed, its default
        log.failure_reason = reason
        return log

    # Stages 1 and 2 close the loop on the berry estimate, one entry each:
    # stage, camera tag, the distance that ends it, budget, gains, law, how a
    # fix is read at the measured pose, and the task error from that pose.
    # Placement drives onto the standoff pose from C1 fixes; fine positioning
    # onto the berry from C2 fixes, with the orientation frozen (zero error).
    standoff = approach @ cfg.standoff_offset
    closed_loop_stages = (
        (HarvestState.InitialPlacement, "c1", cfg.coarse_threshold,
         cfg.placement_max_iterations, cfg.placement_gains, ControllerMode.FullThreeTask,
         lambda target, pose: cam1_target_to_base(target, registry),
         lambda berry, pose: pose_error(_check_position(berry + standoff), approach, pose)),
        (HarvestState.FinePositioning, "c2", cfg.grasp_threshold,
         cfg.fine_max_iterations, cfg.fine_gains, ControllerMode.PositionWithJL,
         lambda target, pose: berry_to_base(target, pose, registry),
         lambda berry, pose: TaskError(berry - pose.position, np.zeros(3))),
    )
    for stage, source, threshold, budget, gains, mode, locate, task_error in closed_loop_stages:
        stage_start = iteration
        ctrl_cfg = replace(cfg.controller, mode=mode)
        while True:
            fix = locate(observe(iteration), obs.pose_filtered)
            if fix is None and berry_est is None:
                return fail(f"{stage.value}: berry occluded and never seen before")
            berry_est = berry_est if fix is None else fix
            record(stage, berry_est, f"{source}_held" if fix is None else source)
            dist = log.rows[-1].dist_est
            if dist <= threshold:
                close_stage(stage, stage_start, "reached")
                break
            if iteration - stage_start >= budget:
                close_stage(stage, stage_start, "timeout")
                return fail(f"StageTimeout({stage.value})")
            if iteration == stage_start:  # the stage's first row
                diverging = Divergence((dist,))
            if diverging((dist,)):
                close_stage(stage, stage_start, "diverged")
                return fail(f"{stage.value}: diverged")
            q = step_full(q, task_error(berry_est, obs.pose_filtered), gains, ctrl_cfg)
            obs = plant.apply_command(q)
            iteration += 1

    # Stage 3: grasp. Success judged on the true gripper-to-berry distance.
    stage = HarvestState.Grasp
    stage_start = iteration
    log.gripper_events.append((iteration, "close"))
    record(stage, berry_est, log.rows[-1].target_source)
    grasped = log.rows[-1].dist_true <= cfg.grasp_threshold
    close_stage(stage, stage_start, "grasped" if grasped else "missed")
    if not grasped:
        return fail("Grasp: berry outside gripper workspace")

    # Stage 4: open-loop joint-space return to the home posture. Every
    # command is known before the first is sent, so the plant plays them
    # back as one batch, and the rows are built from its stacked arrays.
    stage = HarvestState.ReturnHome
    stage_start = iteration
    home = np.asarray(cfg.home_q, dtype=float)
    n = cfg.home_iterations
    q_cmds = q + (np.arange(1, n + 1) / n)[:, None] * (home - q)
    flags, positions_true, positions, rotations = plant.apply_commands(q_cmds)
    rotvecs = np.array(list(map(rows_to_rotvec, rotations.tolist())))
    for q, position, rotvec, gap_est, gap_true, infeasible in zip(
            q_cmds, positions, rotvecs, positions - berry_est, positions_true - berry_truth, flags):
        iteration += 1
        log.rows.append(HarvestRow(iteration, stage.value, q, position, rotvec, norm(gap_est),
                                   norm(gap_true), infeasible, "none"))
    log.gripper_events.append((iteration, "open"))
    close_stage(stage, stage_start, "home")

    log.final_state = HarvestState.Done
    return log
