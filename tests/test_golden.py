"""Behaviour gate: every bundled scenario keeps the outcome fields of its
golden summary in ``tests/golden/``.

A golden holds only what a numerically equivalent rewrite must not change:
per controller run ``converged``, ``diverged`` and ``iterations``; per
compared controller its verdict and iterations; per harvest berry the final
state and each stage's outcome and iterations. Regenerate the goldens, only
when a change of behaviour is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest

from conftest import run_bundled

GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.name.removesuffix(".json")
                   for p in resources.files("softarm").joinpath("scenarios").iterdir()
                   if p.name.endswith(".json"))


def behaviour(summary: dict) -> dict:
    """The outcome fields of a scenario's ``summary.json``."""
    if "verdicts" in summary:
        return {"verdicts": summary["verdicts"], "iterations": summary["iterations"]}
    if "aggregate" in summary:
        return {"runs": [{k: r[k] for k in ("target", "repetition", "converged",
                                            "diverged", "iterations")}
                         for r in summary["runs"]]}
    return {"runs": [{"berry": r["berry"], "final_state": r["final_state"],
                      "stages": [{k: s[k] for k in ("stage", "outcome", "iterations")}
                                 for s in r["stages"]]}
                     for r in summary["runs"]]}


@pytest.mark.parametrize("name", SCENARIOS)
def test_bundled_scenario_matches_golden(name, bundled):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert behaviour(bundled[name].summary) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            result = behaviour(run_bundled(name, Path(tmp)).summary)
        (GOLDEN / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n",
                                            encoding="utf-8")
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
