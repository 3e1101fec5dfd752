"""The three benchmark workloads: seeded input generators, task runners and
output checks.

Each workload is a closed loop with one client: tasks run back to back in
one process and one thread, and each task is one public softarm call timed
from outside.

* ``closed_loop`` - one-target scenario files through ``softarm.cli.run_scenario``.
* ``harvest`` - one berry per ``softarm.run_harvest`` call.
* ``workspace`` - one configuration through ``forward_kinematics``,
  ``jacobian`` and ``pinv``.

Generators depend only on the seed; they never keep or drop an input
because of its outcome. This module imports only numpy and softarm at the
top, so the set-up probe that imports it measures the package's own import
cost; the independent checks import scipy and the test oracles lazily.
"""

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import softarm
import softarm.cli
from softarm.config import upright_rotation

ROOT = Path(__file__).resolve().parents[1]

GEOM = softarm.default_geometry()
LIMITS = GEOM.joint_limits()

#: Distinct stream per workload, so one seed gives unrelated inputs to each.
_STREAM = {"closed_loop": 1, "harvest": 2, "workspace": 3}

#: Tasks in one pass. A run repeats the pass until its time is up; the
#: first pass gives the exact counts, later ones more timing samples.
TASKS_PER_PASS = {"closed_loop": 16, "harvest": 24, "workspace": 1500}

# Scenario blocks as in tools/gen_scenarios.py (the bundled suites).
POSITION_GAINS = {
    "alpha": 0.074,
    "joint_limit": {"value_far": -0.01, "switch_threshold": 0.030, "metric": "position"},
}
ORIENTATION_GAINS = {
    "alpha": 0.05,
    "joint_limit": {"value_far": -0.005, "switch_threshold": float(np.deg2rad(30.0)),
                    "metric": "orientation"},
}
FULL_GAINS = {
    "alpha": 0.05, "gamma_position": 1.0, "gamma_orientation": 0.1,
    "joint_limit": {"value_far": -5e-5, "switch_threshold": 0.050, "metric": "position"},
}
CONTROLLERS = {
    "position": {"mode": "PositionWithJL", "position_tolerance": 0.0008,
                 "max_iterations": 3000, "gains": POSITION_GAINS},
    "orientation": {"mode": "OrientationWithJL", "orientation_tolerance_deg": 0.6,
                    "max_iterations": 3000, "gains": ORIENTATION_GAINS},
    "pose": {"mode": "FullThreeTask", "position_tolerance": 0.0008,
             "orientation_tolerance_deg": 1.2, "orientation_error_axes": [0, 2],
             "max_iterations": 3000, "gains": FULL_GAINS},
}
#: The ``*_noisy`` suites' plant: 2 % actuator mismatch plus measurement noise.
NOISY_PLANT = {"mismatch": 0.02, "position_noise_std": 0.0005,
               "rotation_noise_std": 0.0005}
#: One round of closed-loop tasks in the bundled suites' proportions
#: (35 position : 15 orientation : 7 pose targets), half of each kind on the
#: noisy plant.
CLOSED_LOOP_ROUND = (
    [("position", False), ("position", True)] * 5
    + [("orientation", False), ("orientation", True)] * 2
    + [("pose", False), ("pose", True)])

#: Harvest layout of the bundled ``harvest_default`` scenario.
REGISTRY_LAYOUT = {"cam1_position": (0.0, -1.2, 0.4), "cam1_target": (0.0, 0.40, 0.45),
                   "cam2_offset": (0.0, 0.0, 0.01)}
BERRY_AHEAD_M = 0.05
GRASP_THRESHOLD_M = 0.02
HARVEST_STAGES = ["InitialPlacement", "FinePositioning", "Grasp", "ReturnHome"]


class CheckFailed(Exception):
    """A program output disagrees with what the benchmark expects."""


@dataclass
class TaskResult:
    """One timed task. ``outcome`` is compared exactly between passes."""

    seconds: float
    steps: int
    failed: bool
    outcome: object
    err_pos_m: float | None = None
    err_rot_rad: float | None = None
    converged: int = 0
    stage_iters: dict = field(default_factory=dict)
    # Closed-loop solves (harvest: placement and fine stages) started, and
    # how many of them reached their tolerance.
    loops_started: int = 0
    loops_reached: int = 0
    csv_bytes: int = 0


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed])


def _berry_side_qs(rng, n: int, margin: float, min_y: float) -> list:
    """n feasible q whose end effector lies on the berry side (y >= min_y).

    Points come from a scrambled Sobol sequence over the limit box, so every
    seed's set covers the box evenly and per-pass statistics vary little
    between seeds. The restriction is on where targets are sampled, never
    on outcomes.
    """
    from scipy.stats import qmc

    sobol = qmc.Sobol(d=9, scramble=True, seed=rng)
    lower, upper = LIMITS.lower + margin, LIMITS.upper - margin
    qs = []
    while len(qs) < n:
        for u in sobol.random(32):
            q = lower + u * (upper - lower)
            if len(qs) < n and softarm.forward_kinematics(q, GEOM).position[1] >= min_y:
                qs.append(q)
    return qs


# ---------------------------------------------------------------------------
# Input generators: plain data, a pure function of (seed, n)
# ---------------------------------------------------------------------------

def generate_closed_loop(seed: int, n: int) -> list:
    """Reachable targets as in tools/gen_scenarios.py: FK of a sampled
    feasible q for positions and 6-D poses, tilts about base X between 0
    and -150 degrees for orientations (stratified over that range). Kinds
    cycle through CLOSED_LOOP_ROUND."""
    from scipy.stats import qmc

    rng = _rng("closed_loop", seed)
    kinds = [CLOSED_LOOP_ROUND[i % len(CLOSED_LOOP_ROUND)] for i in range(n)]
    count = {k: sum(kind == k for kind, _ in kinds) for k in CONTROLLERS}
    positions = iter(_berry_side_qs(rng, count["position"], 0.015, 0.02))
    poses = iter(_berry_side_qs(rng, count["pose"], 0.02, 0.0))
    m = int(np.ceil(np.log2(max(count["orientation"], 1))))
    tilts = iter(-150.0 * qmc.Sobol(d=1, scramble=True, seed=rng).random_base2(m)[:, 0])
    tasks = []
    for kind, noisy in kinds:
        if kind == "position":
            target = {"position": [round(float(v), 6) for v in
                                   softarm.forward_kinematics(next(positions), GEOM).position]}
        elif kind == "orientation":
            target = {"rotation": {"axis": "x", "angle_deg": round(float(next(tilts)), 4),
                                   "relative_to": "upright"}}
        else:
            pose = softarm.forward_kinematics(next(poses), GEOM)
            target = {"position": [round(float(v), 6) for v in pose.position],
                      "rotation": {"rotvec": [round(float(v), 8) for v in
                                              softarm.rotations.matrix_to_rotvec(
                                                  pose.rotation)]}}
        tasks.append({"kind": kind, "noisy": noisy, "target": target,
                      "scenario_seed": int(rng.integers(2**31))})
    return tasks


def generate_harvest(seed: int, n: int) -> list:
    """Berries 5 cm ahead of FK(q) along the approach axis R(q)[:, 2], with
    approach R(q). Every second berry gets a forced C1 dropout window and
    observation noise."""
    rng = _rng("harvest", seed)
    tasks = []
    for i, q in enumerate(_berry_side_qs(rng, n, 0.02, 0.0)):
        pose = softarm.forward_kinematics(q, GEOM)
        disturbed = i % 2 == 1
        window = (int(rng.integers(10, 40)), 30) if disturbed else None
        tasks.append({
            "berry": pose.position + BERRY_AHEAD_M * pose.rotation[:, 2],
            "approach": pose.rotation,
            "c1_occlusion_window": window,
            "observation_noise_std": 0.0005 if disturbed else 0.0,
            "rng_seed": int(rng.integers(2**31)),
            "plant_seed": int(rng.integers(2**31)),
        })
    return tasks


#: Exactly straight sections per workspace configuration, cycled so that
#: every seed has the same mix: 60 % bent, 25 % one and 15 % two straight.
STRAIGHT_CYCLE = [0] * 12 + [1] * 5 + [2] * 3


def generate_workspace(seed: int, n: int) -> list:
    """Independent feasible configurations; some have one or two sections
    exactly straight (three equal elongations), never all three."""
    rng = _rng("workspace", seed)
    qs = []
    for i in range(n):
        q = rng.uniform(LIMITS.lower + 0.002, LIMITS.upper - 0.002)
        n_straight = STRAIGHT_CYCLE[i % len(STRAIGHT_CYCLE)]
        for section in rng.choice(3, size=n_straight, replace=False):
            q[3 * section:3 * section + 3] = rng.uniform(0.002, 0.098)
        qs.append(q)
    return qs


GENERATORS = {"closed_loop": generate_closed_loop, "harvest": generate_harvest,
              "workspace": generate_workspace}


# ---------------------------------------------------------------------------
# Fixed objects: built once per run, and timed by the set-up probe
# ---------------------------------------------------------------------------

def scenario_dict(task: dict, index: int) -> dict:
    """One-target scenario file in the bundled schema."""
    controller = json.loads(json.dumps(CONTROLLERS[task["kind"]]))
    plant = {"dt": 0.05, "filter_cutoff": 10.0}
    if task["noisy"]:
        plant.update(NOISY_PLANT)
        for key in ("position_tolerance", "orientation_tolerance_deg"):
            if key in controller:
                controller[key] *= 2
    return {"name": f"bench_{index}", "kind": "controller",
            "seed": task["scenario_seed"], "strict": False, "geometry": "default",
            "plant": plant, "controller": controller,
            "initial_q": {"midpoint_jitter": 0.001}, "targets": [task["target"]]}


def build_fixed(workload: str, scenario_path=None) -> dict:
    """The workload's fixed objects: geometry, a parsed scenario, registry."""
    geom = softarm.default_geometry()
    fixed = {"geometry": geom, "limits": geom.joint_limits()}
    if workload == "closed_loop":
        from softarm.config import load_scenario_dict, parse_scenario
        fixed["scenario"] = parse_scenario(load_scenario_dict(scenario_path))
    elif workload == "harvest":
        fixed["registry"] = softarm.build_registry(**REGISTRY_LAYOUT)
        fixed["controller"] = softarm.ControllerConfig(
            geometry=geom, joint_limits=fixed["limits"],
            mode=softarm.ControllerMode.FullThreeTask)
    return fixed


# ---------------------------------------------------------------------------
# Prepared tasks and their runners
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """Per-task objects built before timing, plus what the checks need."""

    spec: object
    args: tuple
    out_dir: Path | None = None


def prepare(workload: str, inputs: list, workdir: Path) -> list:
    """Write the scenario files or build the plants, before any timing."""
    if workload == "closed_loop":
        prepared = []
        for i, task in enumerate(inputs):
            path = workdir / f"scenario_{i}.json"
            path.write_text(json.dumps(scenario_dict(task, i), indent=2) + "\n",
                            encoding="utf-8")
            prepared.append(Prepared(task, (str(path),), workdir / f"out_{i}"))
        return prepared
    fixed = build_fixed(workload)
    if workload == "harvest":
        prepared = []
        for task in inputs:
            wf = softarm.WorkflowConfig(
                controller=fixed["controller"],
                observation_noise_std=task["observation_noise_std"],
                c1_occlusion_window=task["c1_occlusion_window"],
                rng_seed=task["rng_seed"])
            plant = softarm.Plant(softarm.PlantConfig(true_geometry=fixed["geometry"],
                                                      rng_seed=task["plant_seed"]))
            prepared.append(Prepared(task, (task["berry"], task["approach"], plant,
                                            fixed["registry"], wf)))
        return prepared
    return [Prepared(q, (q, fixed["geometry"])) for q in inputs]


def _tolerances(task: dict) -> dict:
    ctrl = scenario_dict(task, 0)["controller"]
    return {"position": ctrl.get("position_tolerance"),
            "orientation": (np.deg2rad(ctrl["orientation_tolerance_deg"])
                            if "orientation_tolerance_deg" in ctrl else None),
            "axes": ctrl.get("orientation_error_axes")}


def run_closed_loop(p: Prepared) -> TaskResult:
    t0 = time.perf_counter()
    code = softarm.cli.run_scenario(p.args[0], out_dir=str(p.out_dir), quiet=True)
    seconds = time.perf_counter() - t0
    if code != 0:
        raise CheckFailed(f"run_scenario exit code {code} for {p.args[0]}")
    run = json.loads((p.out_dir / "summary.json").read_text(encoding="utf-8"))["runs"][0]
    failed = not run["converged"] or run["diverged"]
    kind = p.spec["kind"]
    return TaskResult(
        seconds=seconds, steps=run["iterations"], failed=failed, outcome=run,
        err_pos_m=None if failed or kind == "orientation" else run["final_err_pos_true_m"],
        err_rot_rad=None if failed or kind == "position" else run["final_err_rot_true_rad"],
        converged=int(run["converged"]), loops_started=1,
        loops_reached=int(run["converged"]), csv_bytes=(p.out_dir / "steps.csv").stat().st_size)


def _rotvec_to_matrix(w) -> np.ndarray:
    """Rodrigues' formula; kept local so a traced run counts only the
    package's own rotation calls."""
    angle = float(np.linalg.norm(w))
    if angle == 0.0:
        return np.eye(3)
    k = np.asarray(w) / angle
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * K @ K


def run_harvest(p: Prepared) -> TaskResult:
    t0 = time.perf_counter()
    log = softarm.run_harvest(*p.args)
    seconds = time.perf_counter() - t0
    done = log.final_state is softarm.HarvestState.Done
    stage_iters = {s.stage: s.end_iteration - s.start_iteration for s in log.stages}
    closed_loop_stages = [s for s in log.stages if s.stage in HARVEST_STAGES[:2]]
    err_pos = err_rot = None
    if done:
        grasp = next(s for s in log.stages if s.stage == "Grasp")
        err_pos = grasp.final_dist_true
        # Measured (filtered) gripper rotation at the grasp against the approach.
        grasp_row = next(row for row in log.rows if row.stage == "Grasp")
        R = _rotvec_to_matrix(grasp_row.rotvec)
        cos = (np.trace(R.T @ p.args[1]) - 1.0) / 2.0
        err_rot = float(np.arccos(np.clip(cos, -1.0, 1.0)))
    outcome = (log.final_state.value, log.failure_reason,
               tuple((s.stage, s.start_iteration, s.end_iteration, s.outcome,
                      s.final_dist_true) for s in log.stages),
               tuple(log.gripper_events))
    return TaskResult(
        seconds=seconds, steps=log.rows[-1].iteration if log.rows else 0, failed=not done,
        outcome=outcome,
        err_pos_m=err_pos, err_rot_rad=err_rot, converged=int(done),
        stage_iters=stage_iters,
        loops_started=len(closed_loop_stages),
        loops_reached=sum(s.outcome == "reached" for s in closed_loop_stages))


def run_workspace(p: Prepared) -> TaskResult:
    q, geom = p.args
    t0 = time.perf_counter()
    pose = softarm.forward_kinematics(q, geom)
    jac = softarm.jacobian(q, geom)
    J = jac.J
    J_pinv = softarm.pinv(J)
    seconds = time.perf_counter() - t0
    return TaskResult(seconds=seconds, steps=1, failed=False,
                      outcome=(pose.position, pose.rotation, J, J_pinv))


RUNNERS = {"closed_loop": run_closed_loop, "harvest": run_harvest,
           "workspace": run_workspace}


# ---------------------------------------------------------------------------
# Output checks (independent of the package where it matters)
# ---------------------------------------------------------------------------

def same_outcome(a, b) -> bool:
    """Exact equality of two task outcomes, arrays included."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(same_outcome(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_outcome(a[k], b[k]) for k in a)
    return a == b


def _last_csv_row(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return len(lines) - 1, dict(zip(header, lines[-1].split(",")))


def check_closed_loop(prepared: list, results: list, seed: int) -> dict:
    """Every converged task meets its tolerance, recomputed from the last
    steps.csv row with scipy's rotation log (not the package's)."""
    from scipy.spatial.transform import Rotation

    for p, r in zip(prepared, results):
        n_rows, last = _last_csv_row(p.out_dir / "steps.csv")
        if n_rows != r.steps + 1:
            raise CheckFailed(f"{p.args[0]}: {n_rows} CSV rows for {r.steps} iterations")
        if not r.converged:
            continue
        tol = _tolerances(p.spec)
        target = p.spec["target"]
        position = np.array([float(last[k]) for k in ("pos_x", "pos_y", "pos_z")])
        rotation = Rotation.from_rotvec([float(last[k]) for k in ("rot_x", "rot_y", "rot_z")])
        slack = 1e-9
        if tol["position"] is not None:
            e_p = np.linalg.norm(np.asarray(target["position"]) - position)
            if e_p > tol["position"] + slack:
                raise CheckFailed(f"{p.args[0]}: converged with position error {e_p:.3e} m")
        if tol["orientation"] is not None:
            spec = target["rotation"]
            if "rotvec" in spec:
                desired = Rotation.from_rotvec(spec["rotvec"]).as_matrix()
            else:
                desired = (Rotation.from_euler("x", spec["angle_deg"], degrees=True).as_matrix()
                           @ upright_rotation(GEOM))
            e_zeta = (Rotation.from_matrix(desired) * rotation.inv()).as_rotvec()
            if tol["axes"] is not None:
                e_zeta = e_zeta[tol["axes"]]
            if np.linalg.norm(e_zeta) > tol["orientation"] + slack:
                raise CheckFailed(f"{p.args[0]}: converged with orientation error "
                                  f"{np.linalg.norm(e_zeta):.3e} rad")
    return {"converged_tasks_checked": sum(r.converged for r in results)}


def check_harvest(prepared: list, results: list, seed: int) -> dict:
    """Every Done harvest went through the stages in order and grasped
    within 2 cm true distance."""
    for i, r in enumerate(results):
        if r.failed:
            continue
        state, _, stages, _ = r.outcome
        names = [s[0] for s in stages]
        if names != HARVEST_STAGES:
            raise CheckFailed(f"berry {i}: stages {names}")
        if not all(a[2] <= b[1] for a, b in zip(stages, stages[1:])):
            raise CheckFailed(f"berry {i}: stage iterations out of order")
        if not r.err_pos_m <= GRASP_THRESHOLD_M:
            raise CheckFailed(f"berry {i}: Done with grasp distance {r.err_pos_m:.4f} m")
    return {"done_harvests_checked": sum(not r.failed for r in results)}


#: Relative Jacobian tolerance of acceptance criterion 2, whose configurations
#: are all bent.
JACOBIAN_RTOL = 1e-5
#: With a section exactly straight the package's FD step (h = 1e-7) makes the
#: bending measure s ~ h, and s = sqrt(l1^2 + ... - l1 l3) loses about
#: eps * l^2 / h^2 ~ 1e-4 of itself to cancellation (worst seen 1.8e-4 over
#: 400 such configurations). Checked at the roundoff scale, and the worst
#: error is reported so the defect stays visible.
JACOBIAN_RTOL_STRAIGHT = 1e-3


def _n_straight(q) -> int:
    return sum(int(np.ptp(q[3 * i:3 * i + 3]) == 0.0) for i in range(3))


def check_workspace(prepared: list, results: list, seed: int) -> dict:
    """FK against the segment-sampled oracle, the Jacobian against the
    oracle's finite differences and pinv against the Penrose identities, on
    a seeded subsample with configurations of 0, 1 and 2 straight sections."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    rng = np.random.default_rng([_STREAM["workspace"], seed, 1])
    kinds = [_n_straight(p.args[0]) for p in prepared]
    worst = {0: 0.0, 1: 0.0, 2: 0.0}
    for kind in worst:
        members = [i for i, k in enumerate(kinds) if k == kind]
        for i in rng.choice(members, size=min(4, len(members)), replace=False):
            q, geom = prepared[i].args
            position, rotation, J, J_pinv = results[i].outcome
            p_ref, R_ref = oracles.fk_reference(q, geom)
            if np.linalg.norm(position - p_ref) >= 1e-6 or \
                    oracles.rotation_angle_between(rotation, R_ref) >= 1e-6:
                raise CheckFailed(f"config {i}: FK disagrees with fk_reference")
            Jv_ref, Jw_ref = oracles.fd_jacobian(q, geom, h=1e-6)
            rel = max(np.linalg.norm(J[:3] - Jv_ref) / np.linalg.norm(Jv_ref),
                      np.linalg.norm(J[3:] - Jw_ref) / np.linalg.norm(Jw_ref))
            worst[kind] = max(worst[kind], float(rel))
            if rel >= (JACOBIAN_RTOL_STRAIGHT if kind else JACOBIAN_RTOL):
                raise CheckFailed(f"config {i}: Jacobian off fd_jacobian by {rel:.2e}")
            if np.linalg.norm(J @ J_pinv @ J - J) > 1e-8 * np.linalg.norm(J) or \
                    np.linalg.norm(J_pinv @ J @ J_pinv - J_pinv) > 1e-8 * np.linalg.norm(J_pinv):
                raise CheckFailed(f"config {i}: pinv fails the Penrose identities")
    return {f"jacobian_rel_err_max.{k}_straight": v for k, v in worst.items()}


CHECKS = {"closed_loop": check_closed_loop, "harvest": check_harvest,
          "workspace": check_workspace}
