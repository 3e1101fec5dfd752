"""Scenario runner: execute controller / comparison / harvest scenarios
from JSON configs and write per-step CSV logs plus summary tables.

Exit codes: 0 success, 1 config error, 2 scenario failure (any
failed/diverged target when the config sets "strict": true).
"""

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import ConfigError, Scenario, load_scenario_dict, parse_scenario
from .controller import solve
from .geometry import elongation_to_pressure
from .plant import Plant
from .workflow import HarvestState, run_harvest

_FLOAT_FMT = "%.12g"

_STATE_COLUMNS = ([f"q{i+1}" for i in range(9)] + [f"p{i+1}" for i in range(9)]
                  + ["pos_x", "pos_y", "pos_z", "rot_x", "rot_y", "rot_z"])

CONTROLLER_CSV_HEADER = (["target", "repetition", "iteration", "stage"] + _STATE_COLUMNS
                         + ["err_pos", "err_rot", "err_pos_true", "err_rot_true", "infeasible"])

HARVEST_CSV_HEADER = (["berry", "run", "iteration", "stage"] + _STATE_COLUMNS
                      + ["dist_est", "dist_true", "infeasible", "target_source"])


def _csv_lines(lead, columns, trail):
    """One CSV body line per row of the stacked float ``columns`` (1-D or 2-D,
    same length, at least one row), between that row's ``lead`` and ``trail``
    field tuples: one format per line, floats as ``%.12g``, ended by csv's
    ``\\r\\n``. Body fields are numbers, enum values and 0/1 masks, which csv
    never quotes."""
    table = np.column_stack(columns).tolist()
    fmt = ",".join(["%s"] * len(lead[0]) + [_FLOAT_FMT] * len(table[0])
                   + ["%s"] * len(trail[0])) + "\r\n"
    for head, row, tail in zip(lead, table, trail):
        yield fmt % (*head, *row, *tail)


def _masks(flags: np.ndarray) -> list:
    """The 0/1 mask of each row of the (N, 9) bool array ``flags``, each a
    slice of one buffer of ASCII digits."""
    text, width = (flags.view(np.uint8) + 48).tobytes().decode("ascii"), flags.shape[1]
    return [text[k:k + width] for k in range(0, len(text), width)]


def _say(quiet, *parts):
    if not quiet:
        print(*parts)


def _report(lines: list, quiet: bool, *new: str) -> None:
    """Keep the text-report lines ``new`` in ``lines`` and echo each one,
    indented, unless ``quiet``: a report line is formatted once."""
    lines.extend(new)
    for line in new:
        _say(quiet, f"  {line}".rstrip())


@contextmanager
def _open_csv(paths: tuple, header):
    """The CSV log of ``paths``, open for writing, with ``header`` written
    through csv, which quotes compared controller names. Callers write each
    run's body lines as the run ends: rows are never all in memory."""
    with open(paths[0], "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        yield fh


def _write_summary(paths: tuple, scenario: Scenario, summary: dict, lines: list) -> None:
    """Write the JSON ``summary`` and the text report of ``paths``."""
    _, json_path, text_path = paths
    json_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    head = [f"scenario: {scenario.name}", f"seed: {scenario.seed}", ""]
    text_path.write_text("\n".join(head + lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Controller scenarios
# ---------------------------------------------------------------------------

def _run_controller(scenario: Scenario, paths: tuple, quiet: bool) -> int:
    """Solve each target; returns the number of runs that failed."""
    results, lines = [], []
    with _open_csv(paths, CONTROLLER_CSV_HEADER) as fh:
        for run in scenario.runs:
            trajectory = solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))
            r = {
                "target": run.label,
                "repetition": 0,
                "converged": trajectory.converged,
                "diverged": trajectory.diverged,
                "iterations": trajectory.iterations_used,
                "final_err_pos_m": float(trajectory.err_pos[-1]),
                "final_err_rot_rad": float(trajectory.err_rot[-1]),
                "final_err_pos_true_m": float(trajectory.err_pos_true[-1]),
                "final_err_rot_true_rad": float(trajectory.err_rot_true[-1]),
                "any_infeasible": trajectory.any_infeasible,
            }
            results.append(r)
            _report(lines, quiet,
                    f"target {r['target']:3d} rep {r['repetition']}: "
                    f"{'converged' if r['converged'] else 'not-converged'}"
                    f"{' diverged' if r['diverged'] else ''} "
                    f"iters={r['iterations']:5d} "
                    f"err_pos={r['final_err_pos_m'] * 1e3:8.4f} mm "
                    f"err_rot={np.rad2deg(r['final_err_rot_rad']):8.4f} deg"
                    f"{' infeasible-pressures' if r['any_infeasible'] else ''}")
            qs, stage = trajectory.qs, run.controller.mode.value
            fh.writelines(_csv_lines(
                [(run.label, 0, k, stage) for k in range(qs.shape[0])],
                (qs, elongation_to_pressure(qs), trajectory.positions, trajectory.rotvecs,
                 trajectory.err_pos, trajectory.err_rot, trajectory.err_pos_true,
                 trajectory.err_rot_true),
                [(mask,) for mask in _masks(trajectory.infeasible)]))
    ep = np.array([r["final_err_pos_m"] for r in results])
    er = np.array([r["final_err_rot_rad"] for r in results])
    agg = {
        "n_runs": len(results),
        "n_converged": int(sum(r["converged"] for r in results)),
        "err_pos_mean_mm": float(ep.mean() * 1e3) if results else 0.0,
        "err_pos_std_mm": float(ep.std() * 1e3) if results else 0.0,
        "err_rot_mean_deg": float(np.rad2deg(er.mean())) if results else 0.0,
        "err_rot_std_deg": float(np.rad2deg(er.std())) if results else 0.0,
    }
    _report(lines, quiet, "",
            f"runs: {agg['n_runs']}  converged: {agg['n_converged']}",
            f"position error: {agg['err_pos_mean_mm']:.4f} +/- {agg['err_pos_std_mm']:.4f} mm",
            f"orientation error: {agg['err_rot_mean_deg']:.4f} +/- "
            f"{agg['err_rot_std_deg']:.4f} deg")
    _write_summary(paths, scenario,
                   {"name": scenario.name, "kind": scenario.kind, "seed": scenario.seed,
                    "runs": results, "aggregate": agg}, lines)
    return sum(not r["converged"] for r in results)


# ---------------------------------------------------------------------------
# Controller comparison
# ---------------------------------------------------------------------------

def _run_compare(scenario: Scenario, paths: tuple, quiet: bool) -> int:
    """Solve with each compared controller; returns the number that did not
    converge."""
    runs, verdicts, lines = {}, {}, []
    for run in scenario.runs:
        trajectory = solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))
        runs[run.label] = trajectory
        verdict = ("converged" if trajectory.converged
                   else "diverged" if trajectory.diverged else "did-not-converge")
        if trajectory.any_infeasible:
            verdict += ", infeasible-pressures-detected"
        verdicts[run.label] = verdict
        _report(lines, quiet, f"{run.label}: {verdict} iters={trajectory.iterations_used}")

    names = list(runs)
    with _open_csv(paths, ["iteration"] + [
            f"{n}_{c}" for n in names for c in ("err_pos", "err_rot")]) as fh:
        for k in range(max(t.qs.shape[0] for t in runs.values())):
            row = [str(k)]
            for t in runs.values():
                if k < t.err_pos.size:
                    row += [_FLOAT_FMT % t.err_pos[k], _FLOAT_FMT % t.err_rot[k]]
                else:
                    row += ["", ""]
            fh.write(",".join(row) + "\r\n")
    summary = {
        "name": scenario.name, "seed": scenario.seed,
        "verdicts": verdicts,
        "iterations": {n: runs[n].iterations_used for n in names},
        "any_infeasible": {n: bool(runs[n].any_infeasible) for n in names},
    }
    _write_summary(paths, scenario, summary, lines)
    return sum(not t.converged for t in runs.values())


# ---------------------------------------------------------------------------
# Harvest scenarios
# ---------------------------------------------------------------------------

def _run_harvest(scenario: Scenario, paths: tuple, quiet: bool) -> int:
    """Harvest each berry; returns the number of runs that did not end Done."""
    results, lines = [], []
    with _open_csv(paths, HARVEST_CSV_HEADER) as fh:
        for bi, run in enumerate(scenario.runs):
            log = run_harvest(run.berry, run.approach, Plant(run.plant), run.registry,
                              run.workflow)
            results.append({
                "berry": bi,
                "final_state": log.final_state.value,
                "failure_reason": log.failure_reason,
                "grasp_success": log.final_state is HarvestState.Done,
                "stages": [{"stage": s.stage, "iterations": s.end_iteration - s.start_iteration,
                            "outcome": s.outcome,
                            "final_dist_est_m": s.final_dist_est,
                            "final_dist_true_m": s.final_dist_true}
                           for s in log.stages],
                "gripper_events": log.gripper_events,
            })
            _report(lines, quiet,
                    f"berry {bi}: {log.final_state.value}"
                    + (f" ({log.failure_reason})" if log.failure_reason else ""),
                    *(f"    {s.stage:<18} iters={s.end_iteration - s.start_iteration:5d} "
                      f"outcome={s.outcome:<8} dist_true={s.final_dist_true * 1e3:8.2f} mm"
                      for s in log.stages))
            if not log.rows:
                continue
            kind = "occluded" if run.workflow.c1_occlusion_window else "plain"
            qs = np.array([r.q for r in log.rows])
            fh.writelines(_csv_lines(
                [(bi, kind, r.iteration, r.stage) for r in log.rows],
                (qs, elongation_to_pressure(qs),
                 *zip(*((r.position, r.rotvec, r.dist_est, r.dist_true) for r in log.rows))),
                list(zip(_masks(np.array([r.infeasible for r in log.rows])),
                         (r.target_source for r in log.rows)))))

    _write_summary(paths, scenario,
                   {"name": scenario.name, "seed": scenario.seed, "runs": results}, lines)
    return sum(not r["grasp_success"] for r in results)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: Each kind's runner and output files: the CSV log, JSON summary, text report.
_KINDS = {"controller": (_run_controller, ("steps.csv", "summary.json", "summary.txt")),
          "compare": (_run_compare, ("compare.csv", "summary.json", "verdicts.txt")),
          "harvest": (_run_harvest, ("steps.csv", "summary.json", "summary.txt"))}


def run_scenario(path, out_dir=None, seed_override=None, quiet=False) -> int:
    """Execute a scenario file of any kind; returns the exit code: 2 when the
    scenario is strict and a run failed. Before any run the output directory
    is made and the kind's earlier outputs in it removed, or it is a config
    error: each output is a new file, and a run that raises leaves no earlier one."""
    try:
        scenario = parse_scenario(load_scenario_dict(path), seed_override)
        _say(quiet, f"scenario {scenario.name} (kind={scenario.kind}, "
             f"seed={scenario.seed})")
        out = Path(out_dir) if out_dir else Path("out") / scenario.name
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {out}: {exc}") from exc
        runner, names = _KINDS[scenario.kind]
        paths = tuple(out / name for name in names)
        try:
            for output in paths:
                output.unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot remove earlier output {output}: {exc}") from exc
        failed = runner(scenario, paths, quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    _say(quiet, f"  wrote {out}")
    if scenario.strict and failed:
        _say(quiet, f"  STRICT: {failed} run(s) failed")
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="softarm",
        description="Continuum-arm control scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run a controller, compare or harvest scenario")
    p.add_argument("config", help="scenario JSON file or bundled scenario name")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    return run_scenario(args.config, args.out, args.seed, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
