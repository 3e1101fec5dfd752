"""Scenario runner: execute controller / comparison / harvest scenarios
from JSON configs and write per-step CSV logs plus summary tables.

Exit codes: 0 success, 1 config error, 2 scenario failure (any
failed/diverged target when the config sets "strict": true).
"""

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    Scenario,
    controller_from_dict,
    derive_seed,
    initial_q_from_dict,
    load_scenario_dict,
    parse_scenario,
    plant_config_from_dict,
    rotation_from_dict,
    target_pose_from_dict,
    workflow_from_dict,
)
from .controller import solve
from .plant import Plant
from .vision import build_registry
from .workflow import HarvestState, run_harvest

_FLOAT_FMT = "%.12g"

CONTROLLER_CSV_HEADER = (
    ["target", "repetition", "iteration", "stage"]
    + [f"q{i+1}" for i in range(9)]
    + [f"p{i+1}" for i in range(9)]
    + ["pos_x", "pos_y", "pos_z", "rot_x", "rot_y", "rot_z",
       "err_pos", "err_rot", "err_pos_true", "err_rot_true", "infeasible"]
)

HARVEST_CSV_HEADER = (
    ["berry", "run", "iteration", "stage"]
    + [f"q{i+1}" for i in range(9)]
    + [f"p{i+1}" for i in range(9)]
    + ["pos_x", "pos_y", "pos_z", "rot_x", "rot_y", "rot_z",
       "dist_est", "dist_true", "infeasible", "target_source"]
)


def _fmt(values):
    return [_FLOAT_FMT % v for v in np.atleast_1d(np.asarray(values, dtype=float))]


def _mask(flags):
    return "".join("1" if f else "0" for f in flags)


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


# ---------------------------------------------------------------------------
# Controller scenarios
# ---------------------------------------------------------------------------

def _run_one_target(scenario: Scenario, target_index: int, repetition: int,
                    controller_block: dict, target: dict):
    """Execute one closed-loop solve; returns (trajectory, desired)."""
    cfg, gains = controller_from_dict(controller_block, scenario.geometry)
    desired = target_pose_from_dict(target, scenario.geometry)
    run_seed = derive_seed(scenario.seed, target_index, repetition)
    rng = np.random.default_rng(run_seed)
    q0 = initial_q_from_dict(scenario.raw.get("initial_q"), scenario.geometry, rng)
    plant_cfg = plant_config_from_dict(scenario.raw.get("plant"), scenario.geometry,
                                       derive_seed(scenario.seed, target_index,
                                                   repetition, 0x91A))
    return solve(q0, desired, gains, cfg, Plant(plant_cfg)), desired


def _trajectory_rows(trajectory, label, repetition, stage):
    rows = []
    n = trajectory.qs.shape[0]
    for k in range(n):
        rows.append(
            [str(label), str(repetition), str(k), stage]
            + _fmt(trajectory.qs[k]) + _fmt(trajectory.pressures[k])
            + _fmt(trajectory.positions[k]) + _fmt(trajectory.rotvecs[k])
            + _fmt([trajectory.err_pos[k], trajectory.err_rot[k],
                    trajectory.err_pos_true[k], trajectory.err_rot_true[k]])
            + [_mask(trajectory.infeasible[k])]
        )
    return rows


def run_controller_scenario(scenario: Scenario, out_dir: Path, quiet: bool) -> int:
    raw = scenario.raw
    targets = raw.get("targets", [])
    repetitions = int(raw.get("repetitions", 1))
    controller_block = raw.get("controller")
    if controller_block is None:
        raise ConfigError("controller scenario needs a 'controller' block")
    mode = controller_block.get("mode", "?")

    out_dir.mkdir(parents=True, exist_ok=True)
    steps_path = out_dir / "steps.csv"
    results = []
    with open(steps_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CONTROLLER_CSV_HEADER)
        for ti, target in enumerate(targets):
            for rep in range(repetitions):
                trajectory, _ = _run_one_target(scenario, ti, rep, controller_block,
                                                target)
                writer.writerows(_trajectory_rows(trajectory, ti, rep, mode))
                results.append({
                    "target": ti,
                    "repetition": rep,
                    "converged": trajectory.converged,
                    "diverged": trajectory.diverged,
                    "iterations": trajectory.iterations_used,
                    "final_err_pos_m": float(trajectory.err_pos[-1]),
                    "final_err_rot_rad": float(trajectory.err_rot[-1]),
                    "final_err_pos_true_m": float(trajectory.err_pos_true[-1]),
                    "final_err_rot_true_rad": float(trajectory.err_rot_true[-1]),
                    "any_infeasible": trajectory.any_infeasible,
                })
                _say(quiet, f"  target {ti} rep {rep}: "
                     f"{'converged' if trajectory.converged else 'NOT converged'} "
                     f"in {trajectory.iterations_used} iters, "
                     f"err_pos={trajectory.err_pos[-1] * 1e3:.3f} mm, "
                     f"err_rot={np.rad2deg(trajectory.err_rot[-1]):.3f} deg")

    summary = _controller_summary(scenario, results)
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                          encoding="utf-8")
    _write_controller_summary_txt(out_dir / "summary.txt", scenario, results, summary)
    _say(quiet, f"  wrote {steps_path}")
    if summary["aggregate"]["n_runs"]:
        pos = summary["aggregate"]
        _say(quiet, f"  position error: {pos['err_pos_mean_mm']:.3f} +/- "
             f"{pos['err_pos_std_mm']:.3f} mm; orientation error: "
             f"{pos['err_rot_mean_deg']:.3f} +/- {pos['err_rot_std_deg']:.3f} deg")

    failed = [r for r in results if not r["converged"] or r["diverged"]]
    if scenario.strict and failed:
        _say(quiet, f"  STRICT: {len(failed)} run(s) failed")
        return 2
    return 0


def _controller_summary(scenario, results):
    ep = np.array([r["final_err_pos_m"] for r in results]) if results else np.empty(0)
    er = np.array([r["final_err_rot_rad"] for r in results]) if results else np.empty(0)
    aggregate = {
        "n_runs": len(results),
        "n_converged": int(sum(r["converged"] for r in results)),
        "err_pos_mean_mm": float(ep.mean() * 1e3) if results else 0.0,
        "err_pos_std_mm": float(ep.std() * 1e3) if results else 0.0,
        "err_rot_mean_deg": float(np.rad2deg(er.mean())) if results else 0.0,
        "err_rot_std_deg": float(np.rad2deg(er.std())) if results else 0.0,
    }
    return {"name": scenario.name, "kind": scenario.kind, "seed": scenario.seed,
            "runs": results, "aggregate": aggregate}


def _write_controller_summary_txt(path, scenario, results, summary):
    lines = [f"scenario: {scenario.name}", f"seed: {scenario.seed}", ""]
    for r in results:
        lines.append(
            f"target {r['target']:3d} rep {r['repetition']}: "
            f"{'converged' if r['converged'] else 'not-converged'}"
            f"{' diverged' if r['diverged'] else ''} "
            f"iters={r['iterations']:5d} "
            f"err_pos={r['final_err_pos_m'] * 1e3:8.4f} mm "
            f"err_rot={np.rad2deg(r['final_err_rot_rad']):8.4f} deg"
            f"{' infeasible-pressures' if r['any_infeasible'] else ''}")
    agg = summary["aggregate"]
    lines.append("")
    lines.append(f"runs: {agg['n_runs']}  converged: {agg['n_converged']}")
    lines.append(f"position error: {agg['err_pos_mean_mm']:.4f} +/- "
                 f"{agg['err_pos_std_mm']:.4f} mm")
    lines.append(f"orientation error: {agg['err_rot_mean_deg']:.4f} +/- "
                 f"{agg['err_rot_std_deg']:.4f} deg")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Controller comparison
# ---------------------------------------------------------------------------

def run_compare_scenario(scenario: Scenario, out_dir: Path, quiet: bool) -> int:
    raw = scenario.raw
    entries = raw.get("controllers", [])
    if len(entries) < 2:
        raise ConfigError("compare scenario needs >= 2 entries in 'controllers'")
    if "target" not in raw:
        raise ConfigError("compare scenario needs a single 'target'")

    out_dir.mkdir(parents=True, exist_ok=True)
    runs = {}
    verdicts = {}
    for entry in entries:
        name = entry.get("name") or entry.get("mode")
        if name in runs:
            raise ConfigError(f"duplicate controller name {name!r}")
        trajectory, _ = _run_one_target(scenario, 0, 0, entry, raw["target"])
        runs[name] = trajectory
        verdict = ("converged" if trajectory.converged
                   else "diverged" if trajectory.diverged else "did-not-converge")
        if trajectory.any_infeasible:
            verdict += ", infeasible-pressures-detected"
        verdicts[name] = verdict
        _say(quiet, f"  {name}: {verdict} "
             f"(iters={trajectory.iterations_used}, "
             f"err_pos={trajectory.err_pos[-1] * 1e3:.3f} mm, "
             f"err_rot={np.rad2deg(trajectory.err_rot[-1]):.3f} deg)")

    names = list(runs)
    length = max(t.qs.shape[0] for t in runs.values())
    compare_path = out_dir / "compare.csv"
    with open(compare_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration"] + [f"{n}_{c}" for n in names
                                         for c in ("err_pos", "err_rot")])
        for k in range(length):
            row = [str(k)]
            for n in names:
                t = runs[n]
                if k < t.err_pos.size:
                    row += [_FLOAT_FMT % t.err_pos[k], _FLOAT_FMT % t.err_rot[k]]
                else:
                    row += ["", ""]
            writer.writerow(row)

    lines = [f"scenario: {scenario.name}", f"seed: {scenario.seed}", ""]
    lines += [f"{n}: {verdicts[n]} iters={runs[n].iterations_used}" for n in names]
    (out_dir / "verdicts.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    summary = {
        "name": scenario.name, "seed": scenario.seed,
        "verdicts": verdicts,
        "iterations": {n: runs[n].iterations_used for n in names},
        "any_infeasible": {n: bool(runs[n].any_infeasible) for n in names},
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n",
                                          encoding="utf-8")
    _say(quiet, f"  wrote {compare_path}")

    if scenario.strict and any(not t.converged for t in runs.values()):
        return 2
    return 0


# ---------------------------------------------------------------------------
# Harvest scenarios
# ---------------------------------------------------------------------------

def run_harvest_scenario(scenario: Scenario, out_dir: Path, quiet: bool) -> int:
    raw = scenario.raw
    berries = raw.get("berries", [])
    if not berries:
        raise ConfigError("harvest scenario needs a 'berries' list")
    controller_block = raw.get("controller", {"mode": "FullThreeTask"})
    base_cfg, _ = controller_from_dict(controller_block, scenario.geometry)

    reg_cfg = raw.get("registry", {})
    out_dir.mkdir(parents=True, exist_ok=True)
    steps_path = out_dir / "steps.csv"
    results = []
    with open(steps_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HARVEST_CSV_HEADER)
        for bi, berry_cfg in enumerate(berries):
            berry = np.asarray(berry_cfg["position"], dtype=float)
            approach = rotation_from_dict(
                {"axis": "x", "angle_deg": -90.0} | berry_cfg.get("approach", {}),
                scenario.geometry)

            window = berry_cfg.get("c1_occlusion_window")
            wf = workflow_from_dict(raw.get("workflow"), base_cfg)
            wf = replace(wf, c1_occlusion_window=tuple(window) if window else None,
                         rng_seed=derive_seed(scenario.seed, bi))
            registry = build_registry(
                cam1_position=tuple(reg_cfg.get("cam1_position", (0.0, -1.2, 0.4))),
                cam1_target=tuple(reg_cfg.get("cam1_target", tuple(berry))),
                cam2_offset=tuple(reg_cfg.get("cam2_offset", (0.0, 0.0, 0.01))),
            )
            plant = Plant(plant_config_from_dict(raw.get("plant"), scenario.geometry,
                                                 derive_seed(scenario.seed, bi, 0x91A)))
            log = run_harvest(berry, approach, plant, registry, wf)
            for r in log.rows:
                writer.writerow(
                    [str(bi), "occluded" if window else "plain", str(r.iteration),
                     r.stage]
                    + _fmt(r.q) + _fmt(r.pressures) + _fmt(r.position) + _fmt(r.rotvec)
                    + _fmt([r.dist_est, r.dist_true])
                    + [_mask(r.infeasible), r.target_source])
            results.append({
                "berry": bi,
                "final_state": log.final_state.value,
                "failure_reason": log.failure_reason,
                "grasp_success": log.grasp_success,
                "stages": [{"stage": s.stage, "iterations": s.end_iteration - s.start_iteration,
                            "outcome": s.outcome,
                            "final_dist_est_m": s.final_dist_est,
                            "final_dist_true_m": s.final_dist_true}
                           for s in log.stages],
                "gripper_events": log.gripper_events,
            })
            _say(quiet, f"  berry {bi}: {log.final_state.value}"
                 f"{' (' + log.failure_reason + ')' if log.failure_reason else ''}")

    (out_dir / "summary.json").write_text(
        json.dumps({"name": scenario.name, "seed": scenario.seed, "runs": results},
                   indent=2) + "\n", encoding="utf-8")
    lines = [f"scenario: {scenario.name}", f"seed: {scenario.seed}", ""]
    for r in results:
        lines.append(f"berry {r['berry']}: {r['final_state']}"
                     + (f" ({r['failure_reason']})" if r["failure_reason"] else ""))
        for s in r["stages"]:
            lines.append(f"    {s['stage']:<18} iters={s['iterations']:5d} "
                         f"outcome={s['outcome']:<8} "
                         f"dist_true={s['final_dist_true_m'] * 1e3:8.2f} mm")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _say(quiet, f"  wrote {steps_path}")

    if scenario.strict and any(r["final_state"] != HarvestState.Done.value
                               for r in results):
        return 2
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_scenario(path, out_dir=None, seed_override=None, quiet=False) -> int:
    """Execute a controller or harvest scenario file; returns the exit code."""
    try:
        scenario = parse_scenario(load_scenario_dict(path), seed_override)
        _say(quiet, f"scenario {scenario.name} (kind={scenario.kind}, "
             f"seed={scenario.seed})")
        out = Path(out_dir) if out_dir else Path("out") / scenario.name
        if scenario.kind == "controller":
            return run_controller_scenario(scenario, out, quiet)
        if scenario.kind == "harvest":
            return run_harvest_scenario(scenario, out, quiet)
        if scenario.kind == "compare":
            return run_compare_scenario(scenario, out, quiet)
        raise ConfigError(f"unknown kind {scenario.kind!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def compare_controllers(path, out_dir=None, seed_override=None, quiet=False) -> int:
    """Execute a compare scenario file; returns the exit code."""
    try:
        scenario = parse_scenario(load_scenario_dict(path), seed_override)
        if scenario.kind != "compare":
            raise ConfigError(f"'compare' expects kind='compare', got {scenario.kind!r}")
        _say(quiet, f"scenario {scenario.name} (kind=compare, seed={scenario.seed})")
        out = Path(out_dir) if out_dir else Path("out") / scenario.name
        return run_compare_scenario(scenario, out, quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="softarm",
        description="Continuum-arm control scenarios: run and compare.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (("run", "run a controller or harvest scenario"),
                           ("compare", "run a controller comparison scenario")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="scenario JSON file or bundled scenario name")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.config, args.out, args.seed, args.quiet)
    return compare_controllers(args.config, args.out, args.seed, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
