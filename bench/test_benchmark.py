"""Tests of the benchmark itself: input generation, tracer hygiene and
exact repeatability of the traced counts.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import softarm  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every loaded softarm module, and of Plant."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "softarm" or name.startswith("softarm.")):
            found.update({(name, attr): value for attr, value in vars(module).items()})
    found.update({("Plant", attr): value for attr, value in vars(softarm.Plant).items()})
    return found


def _traced_counts(workload: str, seed: int, n: int, tmp_path: Path) -> dict:
    tmp_path.mkdir()
    inputs = workloads.GENERATORS[workload](seed, n)
    prepared = workloads.prepare(workload, inputs, tmp_path)
    _, metrics, info = run.per_layer(workloads, tracing, workloads.RUNNERS[workload],
                                     prepared, seconds=0.0)
    assert info["missing_spans"] == []
    return {name: value for name, (value, _) in metrics.items()
            if name.startswith("count.") or name.endswith(".calls")}


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_seed_determines_inputs(workload):
    generate = workloads.GENERATORS[workload]
    first = generate(7, 6)
    assert workloads.same_outcome(first, generate(7, 6))
    assert not workloads.same_outcome(first, generate(8, 6))


def test_tracer_wraps_and_restores_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert tracer.missing == []
        assert softarm.controller.jacobian is not before[("softarm.controller", "jacobian")]
        assert softarm.jacobian is not before[("softarm", "jacobian")]
        assert softarm.Plant.apply_command is not before[("Plant", "apply_command")]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_missing_span_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "kinematics.removed",
                        [("softarm.kinematics", "no_such_function")])
    with tracing.Tracer() as tracer:
        assert tracer.missing == ["kinematics.removed"]


@pytest.mark.parametrize("workload,seed,n", [
    ("workspace", 3, 40),
    ("closed_loop", 3, 2),
    # A seed whose berry completes quickly; a timed-out one costs 2000 steps.
    ("harvest", 3, 1),
])
def test_traced_counts_repeat_exactly(workload, seed, n, tmp_path):
    counts = _traced_counts(workload, seed, n, tmp_path / "a")
    assert counts["count.iters_total"] > 0
    assert counts == _traced_counts(workload, seed, n, tmp_path / "b")


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    inputs = workloads.GENERATORS["workspace"](1, 20)
    prepared = workloads.prepare("workspace", inputs, tmp_path)
    runner = workloads.RUNNERS["workspace"]
    _, e2e, _ = run.end_to_end(workloads, runner, prepared, seconds=0.0, setup_s=1.0)
    _, layers, _ = run.per_layer(workloads, tracing, runner, prepared, seconds=0.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "workspace", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
