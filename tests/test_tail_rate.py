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

#: Per mode, the true-error columns with a one-task rate and the step gain
#: each decays by. FullThreeTask's position error has two regimes and is
#: checked on its own, by test_three_task_position_tail_is_its_regime_rate.
PREDICTED = {
    ControllerMode.PositionWithJL: {"err_pos_true": lambda gains: gains.alpha},
    ControllerMode.OrientationWithJL: {"err_rot_true": lambda gains: gains.alpha},
    ControllerMode.FullThreeTask: {
        "err_rot_true": lambda gains: gains.alpha * gains.gamma_orientation},
}

#: The rate is the median of the last TAIL per-step ratios.
TAIL = 12


def tail(error: np.ndarray) -> float:
    return float(np.median(error[-TAIL:] / error[-TAIL - 1:-1]))


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
            rate = tail(written.column(str(run.label), column))
            expected = tail_rate(gain(run.gains), run.plant.filter_cutoff, run.plant.dt)
            assert rate == pytest.approx(expected, abs=1e-3), (run.label, column)
        checked += 1
    assert checked


#: e_p / e_o^2 (m/rad^2) at a three-task run's last row, under which its
#: position error has reached the second-order floor. The six pose_7pts runs
#: that end there read 2.9e-5 to 3.2e-5; the one that does not reads 1.19e-4.
SECOND_ORDER_BELOW = 6e-5

#: How far above the position task's own rate a run that ends in that regime
#: may decay (measured: 3.6e-3 on pose_7pts target 0).
FIRST_ORDER_SLACK = 5e-3


def test_three_task_position_tail_is_its_regime_rate(bundled):
    """The orientation task moves q inside the position task's null space,
    so to first order it leaves the position alone; the position error it
    leaves is second order in that motion, and decays at lambda_o^2, the
    square of the orientation rate. So a run's position error ends in one of
    two regimes: the position task's own rate lambda(alpha gamma_p), while
    its first-order error is still the larger, or lambda_o^2 once e_p has
    fallen to the floor, about 3e-5 e_o^2. Each run asserts the regime its
    last row is in, and that regime's rate.

    The second-order regime holds to 1e-3. The first-order one is bounded
    apart: its floor component, which decays more slowly, is already a
    fraction of e_p over the last steps and lifts the median ratio above
    lambda(alpha gamma_p), though still well short of lambda_o^2."""
    regimes = []
    written = bundled["pose_7pts"]
    for run, result in zip(parse_scenario(load_scenario_dict("pose_7pts")).runs,
                           written.summary["runs"], strict=True):
        assert result["converged"] and run.controller.mode is ControllerMode.FullThreeTask
        e_p = written.column(str(run.label), "err_pos_true")
        e_o = written.column(str(run.label), "err_rot_true")
        gains, plant = run.gains, run.plant
        own = tail_rate(gains.alpha * gains.gamma_position, plant.filter_cutoff, plant.dt)
        squared = tail_rate(gains.alpha * gains.gamma_orientation,
                            plant.filter_cutoff, plant.dt) ** 2
        rate = tail(e_p)
        if e_p[-1] / e_o[-1] ** 2 < SECOND_ORDER_BELOW:
            regimes.append("second")
            assert rate == pytest.approx(squared, abs=1e-3), run.label
        else:
            regimes.append("first")
            assert own <= rate <= own + FIRST_ORDER_SLACK < squared, run.label
    # Target 0, the shortest run (217 iterations), is the one that converges
    # before its position error reaches the floor.
    assert regimes == ["first"] + ["second"] * 6
