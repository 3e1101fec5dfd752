#!/usr/bin/env python3
"""Generate the bundled scenario files.

Samples reachable targets from seeded feasible actuator states, validates
every target against the closed-loop solver at the acceptance tolerances,
and writes the scenario JSONs into src/softarm/scenarios/. Run from the
repository root after any change to the default geometry or gains.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from softarm.config import derive_seed, initial_q_from_dict, upright_rotation
from softarm.controller import (
    ControllerConfig,
    ControllerMode,
    gains_full_default,
    gains_orientation_default,
    gains_position_default,
    solve,
)
from softarm.geometry import default_geometry
from softarm.kinematics import Pose, forward_kinematics
from softarm.plant import Plant, PlantConfig
from softarm.rotations import matrix_to_rotvec, rot_x

OUT = Path(__file__).resolve().parents[1] / "src" / "softarm" / "scenarios"
GEOM = default_geometry()
LIMITS = GEOM.joint_limits()
SEED = 20260810

POSITION_GAINS = {
    "alpha": 0.074,
    "joint_limit": {"value_far": -0.01, "switch_threshold": 0.030,
                    "metric": "position"},
}
ORIENTATION_GAINS = {
    "alpha": 0.05,
    "joint_limit": {"value_far": -0.005,
                    "switch_threshold": float(np.deg2rad(30.0)),
                    "metric": "orientation"},
}
FULL_GAINS = {
    "alpha": 0.05, "gamma_position": 1.0, "gamma_orientation": 0.1,
    "joint_limit": {"value_far": -5e-5, "switch_threshold": 0.050,
                    "metric": "position"},
}


def check_run(scenario_seed, index, mode, gains, cfg, desired):
    rng = np.random.default_rng(derive_seed(scenario_seed, index, 0))
    q0 = initial_q_from_dict(None, GEOM, rng)
    plant = Plant(PlantConfig(rng_seed=derive_seed(scenario_seed, index, 0, 0x91A)))
    return solve(q0, desired, gains, cfg, plant)


def gen_positions():
    rng = np.random.default_rng(101)
    cfg = ControllerConfig(geometry=GEOM, joint_limits=LIMITS,
                           mode=ControllerMode.PositionWithJL,
                           position_tolerance=0.8e-3, max_iterations=3000)
    gains = gains_position_default()
    targets, worst = [], 0
    t0 = time.time()
    while len(targets) < 35:
        q = rng.uniform(LIMITS.lower + 0.015, LIMITS.upper - 0.015)
        pos = forward_kinematics(q, GEOM).position
        if pos[1] < 0.02:  # berry side of the base frame
            continue
        desired = Pose(pos, upright_rotation(GEOM))
        traj = check_run(SEED, len(targets), "PositionWithJL", gains, cfg, desired)
        if traj.converged and not traj.any_infeasible:
            targets.append({"position": [round(v, 6) for v in pos]})
            worst = max(worst, traj.iterations_used)
        else:
            print(f"  rejected position {np.round(pos, 3)} "
                  f"(converged={traj.converged})")
    print(f"positions: 35 targets, worst iters {worst}, {time.time()-t0:.0f}s")
    return {
        "name": "position_35pts",
        "kind": "controller",
        "seed": SEED,
        "strict": True,
        "geometry": "default",
        "plant": {"dt": 0.05, "filter_cutoff": 10.0},
        "controller": {
            "mode": "PositionWithJL",
            "position_tolerance": 0.0008,
            "max_iterations": 3000,
            "gains": POSITION_GAINS,
        },
        "initial_q": {"midpoint_jitter": 0.001},
        "targets": targets,
    }


def gen_orientations():
    cfg = ControllerConfig(geometry=GEOM, joint_limits=LIMITS,
                           mode=ControllerMode.OrientationWithJL,
                           orientation_tolerance=np.deg2rad(0.6),
                           max_iterations=3000)
    gains = gains_orientation_default()
    targets = []
    worst = 0
    for i, deg in enumerate(np.linspace(0.0, -150.0, 15)):
        desired = Pose(np.zeros(3), rot_x(np.deg2rad(deg)) @ upright_rotation(GEOM))
        traj = check_run(SEED, i, "OrientationWithJL", gains, cfg, desired)
        assert traj.converged and not traj.any_infeasible, f"orientation {deg} failed"
        worst = max(worst, traj.iterations_used)
        targets.append({"rotation": {"axis": "x", "angle_deg": round(float(deg), 4),
                                     "relative_to": "upright"}})
    print(f"orientations: 15 targets, worst iters {worst}")
    return {
        "name": "orientation_15pts",
        "kind": "controller",
        "seed": SEED,
        "strict": True,
        "geometry": "default",
        "plant": {"dt": 0.05, "filter_cutoff": 10.0},
        "controller": {
            "mode": "OrientationWithJL",
            "orientation_tolerance_deg": 0.6,
            "max_iterations": 3000,
            "gains": ORIENTATION_GAINS,
        },
        "initial_q": {"midpoint_jitter": 0.001},
        "targets": targets,
    }


def gen_poses():
    rng = np.random.default_rng(202)
    cfg = ControllerConfig(geometry=GEOM, joint_limits=LIMITS,
                           mode=ControllerMode.FullThreeTask,
                           position_tolerance=0.8e-3,
                           orientation_tolerance=np.deg2rad(1.2),
                           orientation_error_axes=(0, 2),
                           max_iterations=3000)
    gains = gains_full_default()
    targets, worst = [], 0
    t0 = time.time()
    while len(targets) < 7:
        q = rng.uniform(LIMITS.lower + 0.02, LIMITS.upper - 0.02)
        pose = forward_kinematics(q, GEOM)
        if pose.position[1] < 0.0:
            continue
        traj = check_run(SEED, len(targets), "FullThreeTask", gains, cfg, pose)
        if traj.converged and not traj.any_infeasible:
            targets.append({
                "position": [round(v, 6) for v in pose.position],
                "rotation": {"rotvec": [round(v, 8) for v in
                                        matrix_to_rotvec(pose.rotation)]},
            })
            worst = max(worst, traj.iterations_used)
        else:
            print(f"  rejected pose at {np.round(pose.position, 3)}")
    print(f"poses: 7 targets, worst iters {worst}, {time.time()-t0:.0f}s")
    return {
        "name": "pose_7pts",
        "kind": "controller",
        "seed": SEED,
        "strict": True,
        "geometry": "default",
        "plant": {"dt": 0.05, "filter_cutoff": 10.0},
        "controller": {
            "mode": "FullThreeTask",
            "position_tolerance": 0.0008,
            "orientation_tolerance_deg": 1.2,
            "orientation_error_axes": [0, 2],
            "max_iterations": 3000,
            "gains": FULL_GAINS,
        },
        "initial_q": {"midpoint_jitter": 0.001},
        "targets": targets,
    }


def noisy_variant(base, suffix="_noisy"):
    out = json.loads(json.dumps(base))
    out["name"] = base["name"] + suffix
    out["plant"].update({
        "mismatch": 0.02,
        "position_noise_std": 0.0005,
        "rotation_noise_std": 0.0005,
    })
    ctrl = out["controller"]
    if "position_tolerance" in ctrl:
        ctrl["position_tolerance"] = 2 * ctrl["position_tolerance"]
    if "orientation_tolerance_deg" in ctrl:
        ctrl["orientation_tolerance_deg"] = 2 * ctrl["orientation_tolerance_deg"]
    return out


def gen_near_limit_compare():
    return {
        "name": "near_limit_pose",
        "kind": "compare",
        "seed": SEED,
        "strict": False,
        "geometry": "default",
        "plant": {"dt": 0.05, "filter_cutoff": 10.0},
        "initial_q": [0.051, 0.050, 0.049, 0.051, 0.050, 0.049, 0.051, 0.050, 0.049],
        "target": {
            "position": [0.0, 0.35, 0.45],
            "rotation": {"axis": "x", "angle_deg": -103.0, "relative_to": "upright"},
        },
        "controllers": [
            {
                "name": "full_three_task_scheduled",
                "mode": "FullThreeTask",
                "position_tolerance": 0.0008,
                "orientation_tolerance_deg": 1.2,
                "orientation_error_axes": [0, 2],
                "max_iterations": 1500,
                "gains": FULL_GAINS,
            },
            {
                "name": "conventional_rr",
                "mode": "ConventionalRR",
                "position_tolerance": 0.0008,
                "orientation_tolerance_deg": 1.2,
                "max_iterations": 1500,
                "gains": {"alpha": 0.05},
            },
        ],
    }


def gen_orientation_compare():
    return {
        "name": "orientation_compare",
        "kind": "compare",
        "seed": SEED,
        "strict": False,
        "geometry": "default",
        "plant": {"dt": 0.05, "filter_cutoff": 10.0},
        "initial_q": [0.021, 0.020, 0.019, 0.021, 0.020, 0.019, 0.021, 0.020, 0.019],
        "target": {
            "rotation": {"axis": "x", "angle_deg": -150.0, "relative_to": "upright"},
        },
        "controllers": [
            {
                "name": "orientation_with_jl",
                "mode": "OrientationWithJL",
                "orientation_tolerance_deg": 0.57,
                "max_iterations": 3000,
                "gains": ORIENTATION_GAINS,
            },
            {
                "name": "conventional_rr_orientation",
                "mode": "OrientationWithJL",
                "orientation_tolerance_deg": 0.57,
                "max_iterations": 3000,
                "gains": {"alpha": 0.05},
            },
        ],
    }


def gen_harvest():
    return {
        "name": "harvest_default",
        "kind": "harvest",
        "seed": SEED,
        "strict": True,
        "geometry": "default",
        "plant": {"dt": 0.05, "filter_cutoff": 10.0},
        "registry": {
            "cam1_position": [0.0, -1.2, 0.4],
            "cam1_target": [0.0, 0.40, 0.45],
            "cam2_offset": [0.0, 0.0, 0.01],
        },
        "workflow": {
            "coarse_threshold": 0.06,
            "grasp_threshold": 0.02,
            "standoff_offset": [0.0, 0.0, -0.05],
            "placement_max_iterations": 2000,
            "fine_max_iterations": 1000,
            "home_iterations": 100,
        },
        "berries": [
            {"position": [0.0, 0.40, 0.45],
             "approach": {"axis": "x", "angle_deg": -90.0}},
            {"position": [0.0, 0.40, 0.45],
             "approach": {"axis": "x", "angle_deg": -90.0},
             "c1_occlusion_window": [20, 30]},
        ],
    }


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    scenarios = [
        gen_positions(),
        gen_orientations(),
        gen_poses(),
        gen_near_limit_compare(),
        gen_orientation_compare(),
        gen_harvest(),
    ]
    scenarios += [noisy_variant(s) for s in scenarios[:3]]
    for sc in scenarios:
        path = OUT / f"{sc['name']}.json"
        path.write_text(json.dumps(sc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
