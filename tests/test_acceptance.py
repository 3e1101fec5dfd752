"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Quantitative checks run at desk scale against the bundled scenario
files; the hardware accuracies from the original system are not
reproducible here and are replaced by the simulation tolerances below.
Criteria 5, 6 and 8 read the session's one run of each bundled scenario
(the ``bundled`` fixture of ``conftest.py``).
"""

import time
from contextlib import contextmanager

import numpy as np

from softarm.cli import run_scenario
from softarm.config import load_scenario_dict, parse_scenario
from softarm.controller import (
    ControllerConfig,
    ControllerMode,
    GainSchedule,
    JointLimitSchedule,
    jl_cost,
    jl_gradient,
    pose_error,
    solve,
    step_full,
)
from softarm.geometry import default_geometry, elongation_to_pressure
from softarm.jacobian import jacobian, pinv
from softarm.kinematics import forward_kinematics
from softarm.plant import Plant
from softarm.rotations import matrix_to_rotvec, rotvec_to_matrix
from softarm.vision import (
    berry_to_base,
    build_registry,
    simulate_observation,
)

from oracles import (
    fd_gradient,
    fd_jacobian,
    fk_reference,
    random_feasible_q,
    rotation_angle_between,
)

GEOM = default_geometry()
LIMITS = GEOM.joint_limits()


@contextmanager
def criterion(number, description):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description} "
              f"[{time.time() - start:.1f}s]", flush=True)
        raise
    print(f"ACCEPTANCE {number}: PASS - {description} "
          f"[{time.time() - start:.1f}s]", flush=True)


def bundled_runs(name):
    """The resolved runs of a bundled scenario, by label."""
    return {run.label: run for run in parse_scenario(load_scenario_dict(name)).runs}


def run_solve(run):
    return solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))


def test_criterion_1_kinematics_oracle_equivalence():
    with criterion(1, "main FK vs segment-sampled reference over 1000 configs"):
        start = time.time()
        rng = np.random.default_rng(11)
        worst_pos, worst_rot = 0.0, 0.0
        for _ in range(1000):
            q = random_feasible_q(rng, LIMITS, margin_fraction=0.05)
            pose = forward_kinematics(q, GEOM)
            p_ref, R_ref = fk_reference(q, GEOM)
            worst_pos = max(worst_pos, float(np.linalg.norm(pose.position - p_ref)))
            worst_rot = max(worst_rot, rotation_angle_between(pose.rotation, R_ref))
        assert worst_pos < 1e-6, f"position discrepancy {worst_pos:.3e}"
        assert worst_rot < 1e-6, f"rotation discrepancy {worst_rot:.3e}"
        assert time.time() - start < 30.0


def test_criterion_2_jacobian_and_gradient_against_oracles():
    with criterion(2, "Jacobian vs independent FD oracle; grad H vs FD of H"):
        rng = np.random.default_rng(22)
        for _ in range(200):
            q = random_feasible_q(rng, LIMITS)
            J = jacobian(q, GEOM)
            Jv_ref, Jw_ref = fd_jacobian(q, GEOM, h=1e-6)
            rel_v = np.linalg.norm(J.J[:3] - Jv_ref) / np.linalg.norm(Jv_ref)
            rel_w = np.linalg.norm(J.J[3:] - Jw_ref) / np.linalg.norm(Jw_ref)
            assert rel_v < 1e-5 and rel_w < 1e-5, (rel_v, rel_w)
        for _ in range(100):
            q = rng.uniform(0.01, 0.09, 9)
            analytic = jl_gradient(q, LIMITS)
            numeric = fd_gradient(lambda x: jl_cost(x, LIMITS), q, h=1e-7)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-6, rel


def test_criterion_3_task_priority_algebra():
    with criterion(3, "null-space projector exactness and rate invisibility"):
        rng = np.random.default_rng(33)
        cfg = ControllerConfig(geometry=GEOM, joint_limits=LIMITS,
                               mode=ControllerMode.FullThreeTask)
        for _ in range(100):
            q = random_feasible_q(rng, LIMITS)
            Jv = jacobian(q, GEOM).J[:3]
            assert np.linalg.norm(Jv @ (np.eye(9) - pinv(Jv) @ Jv)) < 1e-8

            pose = forward_kinematics(q, GEOM)
            desired_pos = pose.position + rng.uniform(-0.08, 0.08, 3)
            desired = type(pose)(desired_pos,
                                 rotvec_to_matrix(rng.uniform(-0.3, 0.3, 3))
                                 @ pose.rotation)
            full = GainSchedule(alpha=0.05, gamma_position=1.0,
                                gamma_orientation=0.1,
                                joint_limit=JointLimitSchedule(value_far=-5e-5,
                                                               switch_threshold=0.0))
            pos_only = GainSchedule(alpha=0.05, gamma_position=1.0,
                                    gamma_orientation=0.0, joint_limit=None)
            e = pose_error(desired.position, desired.rotation, pose)
            dq_full = step_full(q, e, full, cfg) - q
            dq_pos = step_full(q, e, pos_only, cfg) - q
            rate_full = Jv @ dq_full
            rate_pos = Jv @ dq_pos
            rel = (np.linalg.norm(rate_full - rate_pos)
                   / max(np.linalg.norm(rate_pos), 1e-12))
            assert rel < 1e-8, rel


def test_criterion_4_barrier_property_on_near_limit_pose():
    with criterion(4, "barrier keeps q inside; conventional law goes infeasible"):
        start = time.time()
        runs = bundled_runs("near_limit_pose")

        scheduled = run_solve(runs["full_three_task_scheduled"])
        assert scheduled.converged
        assert np.all(scheduled.qs > LIMITS.lower), "lower bound violated"
        assert np.all(scheduled.qs < LIMITS.upper), "upper bound violated"

        conventional = run_solve(runs["conventional_rr"])
        assert conventional.any_infeasible
        assert np.any(elongation_to_pressure(conventional.qs) < 0.0), "no negative pressure seen"
        assert time.time() - start < 10.0


def test_criterion_5_convergence_suite(bundled):
    with criterion(5, "35-point position / 15-point orientation / 7-pose suites"
                      " plus mismatch+noise variants"):
        for result in bundled["position_35pts"].summary["runs"]:
            assert result["converged"] and result["iterations"] <= 3000
            assert result["final_err_pos_m"] < 0.8e-3

        for result in bundled["orientation_15pts"].summary["runs"]:
            assert result["converged"]
            assert result["final_err_rot_rad"] < np.deg2rad(0.6)

        pose = bundled["pose_7pts"]
        targets = bundled_runs("pose_7pts")
        for result in pose.summary["runs"]:
            assert result["converged"]
            assert result["final_err_pos_m"] < 0.8e-3
            last = pose.rows[str(result["target"])][-1]
            rotvec = np.array([float(last[axis]) for axis in ("rot_x", "rot_y", "rot_z")])
            R_c = rotvec_to_matrix(rotvec)
            e_zeta = matrix_to_rotvec(targets[result["target"]].desired.rotation @ R_c.T)
            xz = float(np.linalg.norm(e_zeta[[0, 2]]))
            assert xz < np.deg2rad(1.2), f"X/Z orientation error {np.rad2deg(xz)}"

        # 2% actuator mismatch + 0.5 mm measurement noise, tolerance x2
        noisy = ("position_35pts_noisy", "orientation_15pts_noisy", "pose_7pts_noisy")
        for name in noisy:
            block = load_scenario_dict(name)["controller"]
            for result in bundled[name].summary["runs"]:
                assert result["converged"], f"{name} run did not terminate"
                if "position_tolerance" in block:
                    assert result["final_err_pos_m"] <= block["position_tolerance"]
                if block.get("orientation_tolerance_deg") and \
                        block["mode"] != "FullThreeTask":
                    assert result["final_err_rot_rad"] <= np.deg2rad(
                        block["orientation_tolerance_deg"])

        suites = ("position_35pts", "orientation_15pts", "pose_7pts") + noisy
        assert sum(bundled[name].seconds for name in suites) < 120.0


def test_criterion_6_joint_limit_awareness_is_faster(bundled):
    with criterion(6, "scheduled orientation law reaches 0.57 deg in strictly"
                      " fewer iterations than the conventional law"):
        compare = bundled["orientation_compare"]
        threshold = np.deg2rad(0.57)

        def iterations_to_threshold(controller):
            below = np.nonzero(compare.column(controller, "err_rot") <= threshold)[0]
            assert below.size, "never reached the threshold"
            return int(below[0])

        with_jl = iterations_to_threshold("orientation_with_jl")
        conventional = iterations_to_threshold("conventional_rr_orientation")
        assert with_jl < conventional, (with_jl, conventional)


def test_criterion_7_vision_round_trip():
    with criterion(7, "noise-free berry recovery"):
        registry = build_registry()
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(100):
            q = random_feasible_q(rng, LIMITS)
            ee = forward_kinematics(q, GEOM)
            berry = rng.uniform([-0.2, 0.05, 0.2], [0.2, 0.4, 0.55])
            target = simulate_observation(berry, ee, registry)
            recovered = berry_to_base(target, ee, registry)
            worst = max(worst, float(np.linalg.norm(recovered - berry)))
        assert worst < 1e-10, worst


def test_criterion_8_end_to_end_harvest(bundled, tmp_path):
    with criterion(8, "harvest completes all four stages (with forced C1"
                      " occlusion) and is byte-reproducible"):
        harvest = bundled["harvest_default"]
        assert run_scenario("harvest_default", out_dir=tmp_path, quiet=True) == 0

        runs = harvest.summary["runs"]
        assert len(runs) == 2  # plain run and forced-occlusion run
        for run in runs:
            assert run["final_state"] == "Done"
            assert run["grasp_success"]
            stages = [s["stage"] for s in run["stages"]]
            assert stages == ["InitialPlacement", "FinePositioning", "Grasp",
                              "ReturnHome"]
            fine = run["stages"][1]
            assert fine["final_dist_true_m"] < 0.02

        assert (harvest.out_dir / "steps.csv").read_bytes() == \
            (tmp_path / "steps.csv").read_bytes()
