"""The closed loop's tail rate against its linear model.

Near the goal, with no noise, a task whose step gain is k and the plant's
low-pass filter form a linear loop whose per-step decay rate is
``oracles.tail_rate``. Every clean, converged run of a bundled controller
scenario must decay at that rate over its last steps, as the session's run
of the scenario wrote them to ``steps.csv``.
"""

from importlib import resources

import numpy as np
import pytest

from softarm.config import load_scenario_dict, parse_scenario
from softarm.controller import ControllerMode

from oracles import tail_rate

#: Per mode, the true-error columns with a predicted rate and the step gain
#: each decays by. FullThreeTask's position error is left out: on pose_7pts
#: it decays at 0.949-0.990, which the one-task model does not explain.
PREDICTED = {
    ControllerMode.PositionWithJL: {"err_pos_true": lambda gains: gains.alpha},
    ControllerMode.OrientationWithJL: {"err_rot_true": lambda gains: gains.alpha},
    ControllerMode.FullThreeTask: {
        "err_rot_true": lambda gains: gains.alpha * gains.gamma_orientation},
}

#: The rate is the median of the last TAIL per-step ratios.
TAIL = 12


#: The bundled controller scenarios whose plant has no noise and no
#: actuator mismatch.
CLEAN = ["orientation_15pts", "pose_7pts", "position_35pts"]


def test_the_clean_suites_are_all_the_clean_controller_scenarios():
    found = []
    for path in resources.files("softarm").joinpath("scenarios").iterdir():
        scenario = parse_scenario(load_scenario_dict(str(path)))
        if scenario.kind == "controller" and all(
                run.plant.position_noise_std == 0 and run.plant.rotation_noise_std == 0
                and not run.plant.length_scale_error.any() for run in scenario.runs):
            found.append(scenario.name)
    assert sorted(found) == CLEAN


@pytest.mark.parametrize("name", CLEAN)
def test_tail_rate_matches_the_linear_model(name, bundled):
    checked = 0
    written = bundled[name]
    for run, result in zip(parse_scenario(load_scenario_dict(name)).runs,
                           written.summary["runs"], strict=True):
        if not result["converged"] or result["iterations"] == 0:
            continue
        assert result["iterations"] >= TAIL, run.label
        for column, gain in PREDICTED[run.controller.mode].items():
            error = written.column(str(run.label), column)
            rate = float(np.median(error[-TAIL:] / error[-TAIL - 1:-1]))
            expected = tail_rate(gain(run.gains), run.plant.filter_cutoff, run.plant.dt)
            assert rate == pytest.approx(expected, abs=1e-3), (run.label, column)
        checked += 1
    assert checked
