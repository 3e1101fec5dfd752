#!/usr/bin/env python3
"""softarm benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, runs its tasks back to back
in passes until ``--seconds`` have elapsed, checks the outputs and prints a
report followed, on the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
gives the per-layer metrics. See bench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("closed_loop", "harvest", "workspace")
#: One client, one thread: BLAS may not fan out behind the benchmark's back.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh processes timed for setup_s (after one untimed warm-up).
SETUP_REPEATS = 9
SUBPROCESS_TIMEOUT_S = 60
#: Least full passes a completed task is timed in, even past ``--seconds``:
#: three 3000-iteration failures can fill a 30-second run's first pass, and
#: one sample per task made step_us_p90 swing by 20 %.
MIN_PASSES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=SUBPROCESS_TIMEOUT_S).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def measure_setup(workload: str, scenario_path) -> tuple:
    """Median over fresh processes of importing softarm and building the
    workload's fixed objects: (scaled to the host's speed, as measured).
    Each process's time is scaled by bench/speed.py's kernel, sampled here
    right before and right after it."""
    command = [sys.executable, str(BENCH / "setup_probe.py"), workload]
    if scenario_path is not None:
        command.append(str(scenario_path))
    speed.warm_up()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        before = speed.sample()
        done = subprocess.run(command, capture_output=True, text=True, check=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        after = speed.sample()
        setup_s = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        scaled.append(setup_s * speed.REF_S * 2 / (before + after))
        raw.append(setup_s)
    return statistics.median(scaled[1:]), statistics.median(raw[1:])


def run_pass(runner, prepared, deadline=None) -> tuple:
    """Run the tasks in order; stop early only when a deadline is given and
    passed. Returns (results, wall seconds or None if cut short)."""
    results = []
    t0 = time.perf_counter()
    for p in prepared:
        if deadline is not None and time.perf_counter() >= deadline:
            return results, None
        results.append(runner(p))
    return results, time.perf_counter() - t0


def check_repeat(workloads, reference, results, label) -> None:
    for i, (a, b) in enumerate(zip(reference, results)):
        if not workloads.same_outcome(a.outcome, b.outcome):
            raise workloads.CheckFailed(f"task {i}: {label} outcome differs from the first pass")


def timed_pass(runner, prepared, deadline=None) -> tuple:
    """run_pass with bench/speed.py's kernel sampled before the first task,
    after the last and between tasks at least ``speed.EVERY_S`` apart.
    Returns (results, scaled seconds per task, wall seconds net of the
    samples or None if cut short). A task's scaled time is its time times ``speed.REF_S`` over the
    mean of the samples taken just before and just after it."""
    samples, marks, results = [speed.sample()], [], []
    sampling_s = 0.0  # left out of the pass's wall time
    t0 = last = time.perf_counter()
    for p in prepared:
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            break
        if now - last >= speed.EVERY_S:
            samples.append(speed.sample())
            last = time.perf_counter()
            sampling_s += last - now
        marks.append(len(samples) - 1)
        results.append(runner(p))
    wall = (time.perf_counter() - t0 - sampling_s
            if len(results) == len(prepared) else None)
    samples.append(speed.sample())
    scaled = [r.seconds * speed.REF_S * 2 / (samples[m] + samples[m + 1])
              for r, m in zip(results, marks)]
    return results, scaled, wall


def end_to_end(workloads, runner, prepared, seconds, setup_s) -> tuple:
    """One full pass, then repeats of the completed tasks until the deadline,
    and at least until each is timed in MIN_PASSES passes.

    Failed tasks are counted (first pass) but not timed, so repeats skip
    them. Times are scaled to the host's speed (bench/speed.py) task by
    task; a task's time is the median of its scaled times over the repeats,
    and percentiles are then taken over the tasks. The unscaled figures are
    printed too, not gated.
    """
    speed.warm_up()
    deadline = time.perf_counter() + seconds
    first, scaled, wall = timed_pass(runner, prepared)
    done = [i for i, r in enumerate(first) if not r.failed] or list(range(len(first)))
    reference = [first[i] for i in done]
    repeats = [[scaled[i]] for i in done]
    raw = [[r.seconds] for r in reference]
    passes = 1
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        results, scaled, _ = timed_pass(runner, [prepared[i] for i in done],
                                        deadline if passes >= MIN_PASSES else None)
        check_repeat(workloads, reference, results, "repeated")
        for times, raw_times, r, t in zip(repeats, raw, results, scaled):
            times.append(t)
            raw_times.append(r.seconds)
        passes += 1

    steps = [r.steps for r in reference]
    if not any(steps):
        raise workloads.CheckFailed("no task made a single step")

    def timings(per_task):
        task_s = [statistics.median(times) for times in per_task]
        step_us = [t / n * 1e6 for t, n in zip(task_s, steps) if n > 0]
        timed_s = sum(t for t, n in zip(task_s, steps) if n > 0)
        return {
            "steps_per_s": (sum(steps) / timed_s, "1/s"),
            "task_ms_p50": (percentile(task_s, 0.5) * 1e3, "ms"),
            "step_us_p50": (percentile(step_us, 0.5), "us"),
            "step_us_p90": (percentile(step_us, 0.9), "us"),
        }, percentile(task_s, 0.9) * 1e3

    scaled_metrics, task_ms_p90 = timings(repeats)
    raw_metrics, _ = timings(raw)
    metrics = {
        "setup_s": (setup_s, "s"),
        **scaled_metrics,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"passes": passes, "timed_tasks": len(done),
            "repeats_min": min(len(t) for t in repeats),
            "speed_kernel_us": round(speed.sample() * 1e6, 3),
            "not_gated": {"wall_s": (wall, "s"),
                          "task_ms_p90": (task_ms_p90, "ms"),
                          **quality(first)},
            "unscaled": raw_metrics}
    return first, metrics, info


def quality(first) -> dict:
    """Outcome metrics of the first pass; printed, not gated: they can be 0
    or undefined on a workload, or follow the seed's count of failures."""
    steps = [r.steps for r in first]
    err_pos = [r.err_pos_m * 1e3 for r in first if r.err_pos_m is not None]
    err_rot = [math.degrees(r.err_rot_rad) for r in first if r.err_rot_rad is not None]
    return {
        "iters_per_task_p50": (percentile(steps, 0.5), "count"),
        "fail_frac": (sum(r.failed for r in first) / len(first), "ratio"),
        "err_pos_mm_p50": (percentile(err_pos, 0.5) if err_pos else None, "mm"),
        "err_rot_deg_p50": (percentile(err_rot, 0.5) if err_rot else None, "deg"),
    }


def per_layer(workloads, tracing, runner, prepared, seconds) -> tuple:
    """Alternate untraced and traced passes (at least one pair) for about
    ``seconds``. Calls and counts must repeat exactly between traced passes;
    self times are medians over them."""
    start = time.perf_counter()
    tracer = tracing.Tracer()
    untraced_walls, traced_walls, traced = [], [], []
    first = None
    # Start another pair only if it is expected to end within the time.
    while not traced or (time.perf_counter() - start) * (len(traced) + 1) / len(traced) < seconds:
        results, wall = run_pass(runner, prepared)
        if first is None:
            first = results
        check_repeat(workloads, first, results, "untraced")
        untraced_walls.append(wall)
        with tracer:
            results, wall = run_pass(runner, prepared)
        check_repeat(workloads, first, results, "traced")
        traced_walls.append(wall)
        traced.append(({name: (s.calls, s.self_s) for name, s in tracer.stats.items()},
                       dict(tracer.counts)))
    stats, counts = traced[0]
    for other_stats, other_counts in traced[1:]:
        if other_counts != counts or any(other_stats[n][0] != stats[n][0] for n in stats):
            raise workloads.CheckFailed("traced passes disagree on call counts")

    metrics = {}
    for name, (calls, _) in stats.items():
        self_s = statistics.median(t[0][name][1] for t in traced)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.us_per_call"] = (self_s / calls * 1e6 if calls else 0.0, "us")

    def ratio(num, den):
        return num / den if den else 0.0

    stage_iters = {}
    for r in first:
        for stage, n in r.stage_iters.items():
            stage_iters[stage] = stage_iters.get(stage, 0) + n
    metrics.update({
        "controller.converged_ratio": (ratio(sum(r.loops_reached for r in first),
                                             sum(r.loops_started for r in first)), "ratio"),
        "plant.infeasible_ratio": (ratio(counts["infeasible_cmds"], counts["plant_cmds"]), "ratio"),
        "vision.held_ratio": (ratio(counts["to_base_held"], counts["to_base_calls"]), "ratio"),
        "vision.c1_occluded_ratio": (ratio(counts["c1_occluded"], counts["observations"]), "ratio"),
        "cli.csv_bytes": (sum(r.csv_bytes for r in first), "bytes"),
        "count.iters_total": (sum(r.steps for r in first), "count"),
        "count.converged": (sum(r.converged for r in first), "count"),
        "count.infeasible_cmds": (counts["infeasible_cmds"], "count"),
    })
    for stage in workloads.HARVEST_STAGES:
        metrics[f"count.stage_iters.{stage}"] = (stage_iters.get(stage, 0), "count")
    untraced = statistics.median(untraced_walls)
    metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced, "s")
    info = {"traced_passes": len(traced), "untraced_wall_s": round(untraced, 4),
            "missing_spans": tracer.missing}
    return first, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in ("src/softarm/__init__.py", "tests/oracles.py"):
        if not (ROOT / name).is_file():
            print(f"bench: {ROOT / name} not found; run from a softarm checkout",
                  file=sys.stderr)
            return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import softarm
    import tracing
    import workloads

    if not Path(softarm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported softarm from {softarm.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    env = environment(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    first, metrics, info, correct = [], {}, {}, True
    try:
        inputs = workloads.GENERATORS[args.workload](
            args.seed, workloads.TASKS_PER_PASS[args.workload])
        prepared = workloads.prepare(args.workload, inputs, workdir)
        runner = workloads.RUNNERS[args.workload]
        try:
            if args.trace:
                first, metrics, info = per_layer(workloads, tracing, runner, prepared,
                                                 args.seconds)
            else:
                setup_s, setup_raw = measure_setup(
                    args.workload,
                    prepared[0].args[0] if args.workload == "closed_loop" else None)
                first, metrics, info = end_to_end(workloads, runner, prepared,
                                                  args.seconds, setup_s)
                info["unscaled"]["setup_s"] = (setup_raw, "s")
            info["checks"] = workloads.CHECKS[args.workload](prepared, first, args.seed)
        except workloads.CheckFailed as exc:
            print(f"bench: CHECK FAILED: {exc}", file=sys.stderr)
            correct, metrics = False, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print("env " + json.dumps(env))
    for key, value in info.items():
        print(f"{key} {json.dumps(value)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value!r:>24} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(inputs),
        "failed": sum(r.failed for r in first),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
