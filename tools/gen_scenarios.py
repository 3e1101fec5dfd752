#!/usr/bin/env python3
"""Generate the bundled scenario files.

Samples reachable targets from seeded feasible actuator states and keeps a
target only if the scenario file that lists it, parsed by the package,
converges on it with no infeasible command. Writes the scenario JSONs into
src/softarm/scenarios/. Run from the repository root after any change to
the default geometry or gains.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from softarm.config import parse_scenario
from softarm.controller import (
    gains_full_default,
    gains_orientation_default,
    gains_position_default,
    solve,
)
from softarm.geometry import default_geometry
from softarm.kinematics import forward_kinematics
from softarm.plant import Plant
from softarm.rotations import matrix_to_rotvec

OUT = Path(__file__).resolve().parents[1] / "src" / "softarm" / "scenarios"
GEOM = default_geometry()
LIMITS = GEOM.joint_limits()
SEED = 20260810


def gains_dict(gains, two_task=False):
    """The scenario-file form of a published tuning: alpha, the two task
    weights for the two-task law only, then the joint-limit schedule."""
    out = {"alpha": gains.alpha}
    if two_task:
        out |= {"gamma_position": gains.gamma_position,
                "gamma_orientation": gains.gamma_orientation}
    jl = gains.joint_limit
    out["joint_limit"] = {"value_far": jl.value_far,
                          "switch_threshold": float(jl.switch_threshold),
                          "metric": jl.metric}
    return out


POSITION_GAINS = gains_dict(gains_position_default())
ORIENTATION_GAINS = gains_dict(gains_orientation_default())
FULL_GAINS = gains_dict(gains_full_default(), two_task=True)


def scenario(name, kind, strict=True, **blocks):
    """A scenario dict: the keys every bundled scenario shares, then
    ``blocks`` in the order given."""
    return {"name": name, "kind": kind, "seed": SEED, "strict": strict,
            "geometry": "default", "plant": {"dt": 0.05, "filter_cutoff": 10.0},
            **blocks}


def check(sc, target):
    """The trajectory of ``target``'s run, parsed from ``sc`` with
    ``target`` appended to its targets."""
    run = parse_scenario(sc | {"targets": sc["targets"] + [target]}).runs[-1]
    return solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))


def fill(sc, candidates, n):
    """``sc`` with the first ``n`` of ``candidates`` whose run converges
    with no infeasible command appended to its targets."""
    worst, t0 = 0, time.time()
    for target in candidates:
        traj = check(sc, target)
        if traj.converged and not traj.any_infeasible:
            sc["targets"].append(target)
            worst = max(worst, traj.iterations_used)
        else:
            print(f"  rejected {json.dumps(target)} (converged={traj.converged})")
        if len(sc["targets"]) == n:
            break
    if len(sc["targets"]) < n:
        raise SystemExit(f"{sc['name']}: candidates ran out at {len(sc['targets'])} targets")
    print(f"{sc['name']}: {n} targets, worst iters {worst}, {time.time()-t0:.0f}s")
    return sc


def position_candidates():
    """Positions reached from seeded states on the berry side of the base
    frame, rounded as written."""
    rng = np.random.default_rng(101)
    while True:
        q = rng.uniform(LIMITS.lower + 0.015, LIMITS.upper - 0.015)
        pos = forward_kinematics(q, GEOM).position
        if pos[1] >= 0.02:
            yield {"position": [round(v, 6) for v in pos]}


def orientation_candidates():
    """Tilts about x from upright, 0 to -150 deg in 15 steps."""
    for deg in np.linspace(0.0, -150.0, 15):
        yield {"rotation": {"axis": "x", "angle_deg": round(float(deg), 4),
                            "relative_to": "upright"}}


def pose_candidates():
    """Poses reached from seeded states in front of the base, rounded as
    written."""
    rng = np.random.default_rng(202)
    while True:
        q = rng.uniform(LIMITS.lower + 0.02, LIMITS.upper - 0.02)
        pose = forward_kinematics(q, GEOM)
        if pose.position[1] >= 0.0:
            yield {"position": [round(v, 6) for v in pose.position],
                   "rotation": {"rotvec": [round(v, 8) for v in
                                           matrix_to_rotvec(pose.rotation)]}}


def gen_positions():
    return fill(scenario(
        "position_35pts", "controller",
        controller={"mode": "PositionWithJL", "position_tolerance": 0.0008,
                    "max_iterations": 3000, "gains": POSITION_GAINS},
        initial_q={"midpoint_jitter": 0.001}, targets=[]), position_candidates(), 35)


def gen_orientations():
    return fill(scenario(
        "orientation_15pts", "controller",
        controller={"mode": "OrientationWithJL", "orientation_tolerance_deg": 0.6,
                    "max_iterations": 3000, "gains": ORIENTATION_GAINS},
        initial_q={"midpoint_jitter": 0.001}, targets=[]), orientation_candidates(), 15)


def gen_poses():
    return fill(scenario(
        "pose_7pts", "controller",
        controller={"mode": "FullThreeTask", "position_tolerance": 0.0008,
                    "orientation_tolerance_deg": 1.2, "orientation_error_axes": [0, 2],
                    "max_iterations": 3000, "gains": FULL_GAINS},
        initial_q={"midpoint_jitter": 0.001}, targets=[]), pose_candidates(), 7)


def noisy_variant(base, suffix="_noisy"):
    out = json.loads(json.dumps(base))
    out["name"] = base["name"] + suffix
    out["plant"].update({"mismatch": 0.02, "position_noise_std": 0.0005,
                         "rotation_noise_std": 0.0005})
    ctrl = out["controller"]
    for key in ("position_tolerance", "orientation_tolerance_deg"):
        if key in ctrl:
            ctrl[key] = 2 * ctrl[key]
    return out


def gen_near_limit_compare():
    return scenario(
        "near_limit_pose", "compare", strict=False,
        initial_q=[0.051, 0.050, 0.049, 0.051, 0.050, 0.049, 0.051, 0.050, 0.049],
        target={
            "position": [0.0, 0.35, 0.45],
            "rotation": {"axis": "x", "angle_deg": -103.0, "relative_to": "upright"},
        },
        controllers=[
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
    )


def gen_orientation_compare():
    return scenario(
        "orientation_compare", "compare", strict=False,
        initial_q=[0.021, 0.020, 0.019, 0.021, 0.020, 0.019, 0.021, 0.020, 0.019],
        target={
            "rotation": {"axis": "x", "angle_deg": -150.0, "relative_to": "upright"},
        },
        controllers=[
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
    )


def gen_harvest():
    return scenario(
        "harvest_default", "harvest",
        registry={"cam1_position": [0.0, -1.2, 0.4], "cam1_target": [0.0, 0.40, 0.45],
                  "cam2_offset": [0.0, 0.0, 0.01]},
        workflow={
            "coarse_threshold": 0.06,
            "grasp_threshold": 0.02,
            "standoff_offset": [0.0, 0.0, -0.05],
            "placement_max_iterations": 2000,
            "fine_max_iterations": 1000,
            "home_iterations": 100,
        },
        berries=[
            {"position": [0.0, 0.40, 0.45],
             "approach": {"axis": "x", "angle_deg": -90.0}},
            {"position": [0.0, 0.40, 0.45],
             "approach": {"axis": "x", "angle_deg": -90.0},
             "c1_occlusion_window": [20, 30]},
        ],
    )


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
