"""Hypothesis profiles and the session's runs of the bundled scenarios.

``ci`` (``pytest --hypothesis-profile=ci``) draws the same examples on
every run of one commit and prints the reproduction blob of a failing
example, so a failure seen in CI can be replayed with ``@reproduce_failure``.
Without the option the default profile applies.

The ``bundled`` fixture runs each bundled scenario through
``run_scenario`` once per session, on first use, so the golden, acceptance,
tail-rate and CSV checks all read one run instead of each solving it again.
``svd_spy`` records what np.linalg.svd is handed, for the tests of the
controller step's SVD fallback, and ``kept_cond`` is the condition number
their rounding bounds scale with. ``section_fields`` names the slots of the
flat section record that ``section_chain`` returns.
"""

import contextlib
import csv
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

from softarm.cli import run_scenario
from softarm.jacobian import SV_TOL

settings.register_profile("ci", derandomize=True, print_blob=True)


@dataclass(frozen=True)
class BundledRun:
    """One ``run_scenario`` run of a bundled scenario into ``out_dir``.

    ``rows`` groups the CSV rows, as csv reads them: ``steps.csv`` rows by
    their first column (target or berry); ``compare.csv`` rows by compared
    controller, as ``err_pos``/``err_rot`` dicts for the steps that
    controller's run made."""

    out_dir: Path
    seconds: float
    summary: dict
    rows: dict

    def column(self, group: str, field: str) -> np.ndarray:
        """The float column ``field`` of the rows of ``group``."""
        return np.array([float(row[field]) for row in self.rows[group]])


def _grouped_rows(out_dir: Path, summary: dict) -> dict:
    if "verdicts" in summary:
        with open(out_dir / "compare.csv", newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        return {name: [{c: row[f"{name}_{c}"] for c in ("err_pos", "err_rot")}
                       for row in table if row[f"{name}_err_pos"]]
                for name in summary["verdicts"]}
    groups = {}
    with open(out_dir / "steps.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        key = reader.fieldnames[0]
        for row in reader:
            groups.setdefault(row[key], []).append(row)
    return groups


def run_bundled(name: str, out_dir: Path) -> BundledRun:
    """Run the bundled scenario ``name`` into ``out_dir`` and read it back."""
    start = time.perf_counter()
    assert run_scenario(name, out_dir=out_dir, quiet=True) == 0
    seconds = time.perf_counter() - start
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return BundledRun(out_dir, seconds, summary, _grouped_rows(out_dir, summary))


class BundledRuns(dict):
    """Scenario name -> :class:`BundledRun`, each run on first lookup."""

    def __init__(self, root: Path):
        super().__init__()
        self.root = root

    def __missing__(self, name: str) -> BundledRun:
        run = self[name] = run_bundled(name, self.root / name)
        return run


@pytest.fixture(scope="session")
def bundled(tmp_path_factory) -> BundledRuns:
    return BundledRuns(tmp_path_factory.mktemp("bundled"))


@contextlib.contextmanager
def svd_spy():
    """Every block handed to np.linalg.svd inside the ``with``; within a
    step only step_full's SVD fallback calls it."""
    blocks, svd = [], np.linalg.svd

    def spy(A, *args, **kwargs):
        blocks.append(np.array(A))
        return svd(A, *args, **kwargs)

    np.linalg.svd = spy
    try:
        yield blocks
    finally:
        np.linalg.svd = svd


def kept_cond(M) -> float:
    """cond(M) over the singular values np.linalg.pinv(M, rcond=SV_TOL)
    keeps; 1 for a zero M, whose pinv is 0."""
    s = np.linalg.svd(M, compute_uv=False)
    kept = s[s > SV_TOL * s[0]]
    return kept[0] / kept[-1] if kept.size else 1.0


class SectionFields(NamedTuple):
    """One section of a walk, its slots named."""

    c: tuple             # (c0, c1) = (dx, dy) / (3 r)
    arc: float           # arc length, m
    coefficients: tuple  # arc_coefficients(c0^2 + c1^2)
    base_rotation: tuple  # rows of the base-frame rotation of the base plate
    arc_end: tuple       # base-frame end point of the arc


def section_fields(record: tuple) -> SectionFields:
    """The flat record (c0, c1, arc, coefficients, r00, ..., r22, o0, o1, o2)
    of one section of ``section_chain``, by name."""
    c0, c1, arc, coefficients, *rest = record
    assert len(rest) == 12
    return SectionFields((c0, c1), arc, coefficients, (tuple(rest[0:3]), tuple(rest[3:6]),
                                                       tuple(rest[6:9])), tuple(rest[9:12]))
