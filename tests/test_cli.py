import csv
import importlib.util
import io
import json
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import softarm.cli
from softarm.cli import _csv_lines, main, run_scenario
from softarm.config import (
    ConfigError,
    geometry_from_dict,
    load_scenario_dict,
    parse_scenario,
    target_pose_from_dict,
)
from softarm.controller import (
    gains_full_default,
    gains_orientation_default,
    gains_position_default,
    solve,
)
from softarm.geometry import default_geometry, elongation_to_pressure
from softarm.plant import Plant
from softarm.rotations import rot_x, rot_z, rotvec_to_matrix
from softarm.workflow import run_harvest


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def minimal_controller_config(**overrides):
    cfg = {
        "name": "mini",
        "kind": "controller",
        "seed": 7,
        "geometry": "default",
        "controller": {
            "mode": "PositionWithJL",
            "position_tolerance": 0.0008,
            "max_iterations": 500,
            "gains": {"alpha": 0.074,
                      "joint_limit": {"value_far": -0.01,
                                      "switch_threshold": 0.03}},
        },
        "targets": [{"position": [-0.0498, 0.0657, 0.6674]}],
    }
    cfg.update(overrides)
    return cfg


def minimal_compare_config():
    return {
        "name": "cmp",
        "kind": "compare",
        "seed": 3,
        "initial_q": [0.051, 0.05, 0.049] * 3,
        "target": {"position": [-0.0498, 0.0657, 0.6674]},
        "controllers": [
            {"name": "a", "mode": "PositionWithJL", "max_iterations": 500,
             "gains": {"alpha": 0.074,
                       "joint_limit": {"value_far": -0.01,
                                       "switch_threshold": 0.03}}},
            {"name": "b", "mode": "PositionWithJL", "max_iterations": 500,
             "gains": {"alpha": 0.074}},
        ],
    }


def one_of_each_kind(kind, fail_one=False):
    """A small scenario of ``kind`` with two runs; with ``fail_one`` the
    second run fails."""
    if kind == "controller":
        cfg = minimal_controller_config(targets=[
            {"position": [-0.0498, 0.0657, 0.6674]},
            # [0, 0.9, 0.5] is beyond the arm's reach
            {"position": [0.0, 0.9, 0.5] if fail_one else [-0.0601, -0.1457, 0.6309]}])
    elif kind == "compare":
        cfg = minimal_compare_config()
        if fail_one:
            cfg["controllers"][1]["max_iterations"] = 2  # cannot converge in 2 steps
    else:
        cfg = load_scenario_dict("harvest_default")
        if fail_one:
            cfg["berries"][1]["c1_occlusion_window"] = [0, 10]  # C1 never sees the berry
    return cfg


def _with(cfg, path, value):
    """``cfg`` with the value at the key path ``path`` set to ``value``."""
    block = cfg
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return cfg


class TestConfigParsing:
    def test_bundled_scenarios_resolve_by_name(self):
        data = load_scenario_dict("position_35pts")
        assert data["kind"] == "controller"
        assert len(data["targets"]) == 35

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            load_scenario_dict("no_such_scenario_anywhere")

    def test_a_directory_does_not_hide_a_bundled_name(self, tmp_path, monkeypatch):
        # The first run makes the directory near_limit_pose; the second
        # still reads the bundled scenario of that name.
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            assert main(["run", "near_limit_pose", "--out", "near_limit_pose",
                         "--quiet"]) == 0
        assert (tmp_path / "near_limit_pose" / "compare.csv").is_file()

    def test_a_file_named_like_a_bundled_scenario_is_read(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, minimal_controller_config(), name="near_limit_pose")
        assert load_scenario_dict("near_limit_pose")["name"] == "mini"

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario_dict(path)

    @pytest.mark.parametrize("kind", ["directory", "bare-directory", "not-utf8"])
    def test_unreadable_scenario_is_config_error(self, tmp_path, capsys, monkeypatch, kind):
        path = tmp_path / "scenario.json"
        if kind == "bare-directory":  # a bare name that no bundled scenario has
            monkeypatch.chdir(tmp_path)
            path = Path("scenario.json")
            path.mkdir()
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'{"name": "caf\xe9"}')  # Latin-1
        with pytest.raises(ConfigError, match="cannot read scenario file"):
            load_scenario_dict(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read scenario file")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_utf8_geometry_file_is_config_error(self, tmp_path):
        geom_path = tmp_path / "geom.json"
        geom_path.write_bytes(b'{"sections": [], "note": "caf\xe9"}')  # Latin-1
        with pytest.raises(ConfigError, match="cannot read geometry file"):
            parse_scenario(minimal_controller_config(geometry=str(geom_path)))

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_scenario({"name": "x", "kind": "wat"})

    @pytest.mark.parametrize("kind", [["controller"], {"controller": {}}], ids=["list", "object"])
    def test_a_kind_that_is_not_a_string_is_one_config_error_line(self, tmp_path, capsys, kind):
        path = write_config(tmp_path, {"name": "x", "kind": kind})
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: kind: must be one of ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("sections, message", [
        ([{"radius": 0.04}, {"radius": 0.05}, {"radius": 0.06}],
         "geometry: sections: radii must not grow toward the tip"),
        ([{"radius": 0.06}, {"radius": 0.05}],
         "geometry: sections: must be 3, got 2"),
        ([{"radius": 0.06}, {"radius": -0.05}, {"radius": -0.06}],
         r"geometry: sections\[1\]: radius: must be positive, got -0.05"),
        ([{"radius": 0.06}, {"radius": 0.05}, {"radius": 0.04, "initial_length": 0.0}],
         r"geometry: sections\[2\]: initial_length: must be positive, got 0.0"),
        # A full stroke that bends a section past one turn: these ended in a
        # traceback from the kinematics, a math domain error for the radii
        # and a non-finite actuator vector for the elongation.
        ([{"radius": 1e-300}] * 3,
         r"geometry: sections\[0\]: actuator_max_elongation: must be at most 3 pi radius"),
        ([{"radius": 1e-200}] * 3,
         r"geometry: sections\[0\]: actuator_max_elongation: must be at most 3 pi radius"),
        ([{"radius": 0.06}, {"radius": 0.05, "actuator_max_elongation": 1e300},
          {"radius": 0.04}],
         r"geometry: sections\[1\]: actuator_max_elongation: must be at most 3 pi radius "
         r"= 0.47\d*, got 1e\+300"),
    ], ids=["growing-radii", "two-sections", "negative-radius", "zero-length",
            "radii-1e-300", "radii-1e-200", "elongation-1e300"])
    def test_geometry_validation_enforced(self, tmp_path, capsys, sections, message):
        with pytest.raises(ConfigError, match=message):
            geometry_from_dict({"sections": sections})
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(json.dumps({"sections": sections}), encoding="utf-8")
        for geometry in ({"sections": sections}, str(geom_path)):
            path = write_config(tmp_path, minimal_controller_config(geometry=geometry))
            assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
            err = capsys.readouterr().err
            assert re.match(f"config error: {message}", err) and err.count("\n") == 1
            assert not (tmp_path / "out").exists()

    def test_rotation_relative_to_upright(self):
        geom = default_geometry()
        pose = target_pose_from_dict(
            {"rotation": {"axis": "x", "angle_deg": -90.0}}, geom)
        expected = rot_x(np.deg2rad(-90.0)) @ rot_z(2 * np.pi / 3)
        np.testing.assert_allclose(pose.rotation, expected, atol=1e-12)

    @pytest.mark.parametrize("rotation, key", [
        ({"axis": "x", "angle_deg": 10.0, "relative_to": "Upright"}, "relative_to"),
        ({"axis": "z", "relative_to": "world"}, "relative_to"),
        ({"rotvec": [0.1, 0.0, 0.0], "axis": "x"}, "axis"),
        ({"rotvec": [0.1, 0.0, 0.0], "angle_deg": 0.0}, "angle_deg"),
        ({"rotvec": [0.1, 0.0, 0.0], "relative_to": "base"}, "relative_to"),
    ], ids=["misspelled-frame", "unknown-frame", "rotvec-axis", "rotvec-angle",
            "rotvec-frame"])
    def test_ambiguous_rotation_rejected(self, rotation, key):
        cfg = minimal_controller_config()
        cfg["targets"][0]["rotation"] = rotation
        with pytest.raises(ConfigError, match=rf"targets\[0\]: rotation: .*{key}"):
            parse_scenario(cfg)
        cfg = load_scenario_dict("harvest_default")
        cfg["berries"][0]["approach"] = rotation
        with pytest.raises(ConfigError, match=rf"berries\[0\]: approach: .*{key}"):
            parse_scenario(cfg)

    def test_approach_rotvec_is_absolute(self):
        cfg = load_scenario_dict("harvest_default")
        cfg["berries"][0]["approach"] = {"rotvec": [0.1, -0.2, 0.3]}
        np.testing.assert_array_equal(parse_scenario(cfg).runs[0].approach,
                                      rotvec_to_matrix([0.1, -0.2, 0.3]))

    def test_seed_override(self, tmp_path):
        data = minimal_controller_config()
        scenario = parse_scenario(data, seed_override=99)
        assert scenario.seed == 99


def _load_module(relative):
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestStrictSchema:
    def test_misspelled_controller_key_exits_1(self, tmp_path, capsys):
        cfg = minimal_controller_config()
        cfg["controller"]["postion_tolerance"] = cfg["controller"].pop("position_tolerance")
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: controller: unknown key 'postion_tolerance'; expected one of: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block, typo", [
        ((), "seeed"),
        (("controller", "gains"), "gama_position"),
        (("controller", "gains", "joint_limit"), "metrik"),
        (("plant",), "noise"),
        (("initial_q",), "jitter"),
        (("targets", 0), "positon"),
        (("targets", 0, "rotation"), "angle"),
    ])
    def test_unknown_key_in_any_controller_block(self, block, typo):
        cfg = minimal_controller_config(plant={"dt": 0.05},
                                        initial_q={"midpoint_jitter": 0.001})
        cfg["targets"][0]["rotation"] = {"axis": "x", "angle_deg": 10.0}
        node = cfg
        for key in block:
            node = node[key]
        node[typo] = 1
        with pytest.raises(ConfigError, match=repr(typo)):
            parse_scenario(cfg)

    @pytest.mark.parametrize("block, typo", [
        (("registry",), "cam3_position"),
        (("workflow",), "grasp_treshold"),
        (("workflow", "placement_gains"), "alpah"),
        (("berries", 1), "occlusion"),
        (("berries", 0, "approach"), "angle"),
    ])
    def test_unknown_key_in_any_harvest_block(self, block, typo):
        cfg = load_scenario_dict("harvest_default")
        cfg["workflow"]["placement_gains"] = {"alpha": 0.05}
        node = cfg
        for key in block:
            node = node[key]
        node[typo] = 1
        with pytest.raises(ConfigError, match=repr(typo)):
            parse_scenario(cfg)

    @pytest.mark.parametrize("scenario, key, value", [
        ("controller", "berries", [{"position": [0.0, 0.4, 0.45]}]),
        ("harvest_default", "targets", [{"position": [0.0, 0.4, 0.45]}]),
        ("harvest_default", "controller", {"mode": "FullThreeTask"}),
        ("near_limit_pose", "controller", {"mode": "FullThreeTask"}),
    ], ids=["berries-in-controller", "targets-in-harvest", "controller-in-harvest",
            "controller-in-compare"])
    def test_key_of_another_kind_is_rejected(self, scenario, key, value):
        cfg = (minimal_controller_config() if scenario == "controller"
               else load_scenario_dict(scenario))
        cfg[key] = value
        with pytest.raises(ConfigError, match=f"^unknown key {key!r}; expected one of: "):
            parse_scenario(cfg)

    def test_unknown_key_in_compare_entry_and_geometry(self):
        cfg = load_scenario_dict("near_limit_pose")
        cfg["controllers"][1]["label"] = "x"
        with pytest.raises(ConfigError, match=r"^controllers\[1\]: unknown key 'label'; "):
            parse_scenario(cfg)
        with pytest.raises(ConfigError,
                           match=r"^geometry: sections\[2\]: unknown key 'radius_mm'; "):
            geometry_from_dict({"sections": [{"radius": 0.06}, {"radius": 0.05},
                                             {"radius_mm": 40.0}]})

    def test_every_written_scenario_parses(self):
        written = [json.loads(f.read_text(encoding="utf-8"))
                   for f in resources.files("softarm").joinpath("scenarios").iterdir()
                   if f.name.endswith(".json")]
        assert len(written) == 9
        gen = _load_module("tools/gen_scenarios.py")
        written += [gen.gen_near_limit_compare(), gen.gen_orientation_compare(),
                    gen.gen_harvest(), gen.noisy_variant(load_scenario_dict("pose_7pts"))]
        workloads = _load_module("bench/workloads.py")
        target = {"position": [0.0, 0.4, 0.45], "rotation": {"rotvec": [0.1, 0.0, 0.0]}}
        written += [workloads.scenario_dict({"kind": kind, "noisy": noisy, "target": target,
                                             "scenario_seed": 1}, 0)
                    for kind in workloads.CONTROLLERS for noisy in (False, True)]
        for data in written:
            parse_scenario(data)


class TestPublishedTuning:
    """The published gains live in ``controller.gains_*_default()``, in the
    generator's dicts (and so in the bundled files) and in the benchmark's
    dicts; every home must give the same schedule."""

    def test_published_gains_agree_across_homes(self):
        defaults = {"position": gains_position_default(),
                    "orientation": gains_orientation_default(),
                    "pose": gains_full_default()}
        for kind, name in (("position", "position_35pts"), ("orientation", "orientation_15pts"),
                           ("pose", "pose_7pts")):
            for suffix in ("", "_noisy"):
                runs = parse_scenario(load_scenario_dict(name + suffix)).runs
                assert runs and all(run.gains == defaults[kind] for run in runs), name + suffix
        compared = {run.label: run.gains
                    for name in ("near_limit_pose", "orientation_compare")
                    for run in parse_scenario(load_scenario_dict(name)).runs}
        assert compared["full_three_task_scheduled"] == defaults["pose"]
        assert compared["orientation_with_jl"] == defaults["orientation"]
        for run in parse_scenario(load_scenario_dict("harvest_default")).runs:
            assert run.workflow.placement_gains == defaults["pose"]
        workloads = _load_module("bench/workloads.py")
        for kind in workloads.CONTROLLERS:
            # A target gives each part its mode tracks, so this one gives both.
            task = {"kind": kind, "noisy": False, "scenario_seed": 1,
                    "target": {"position": [0.0, 0.4, 0.45],
                               "rotation": {"axis": "x", "angle_deg": -30.0}}}
            assert parse_scenario(workloads.scenario_dict(task, 0)).runs[0].gains == \
                defaults[kind], kind

    @pytest.mark.parametrize("name", ["position_35pts", "pose_7pts"])
    def test_generator_checks_the_written_run(self, name):
        """The generator's check on a file's last target, made on the file
        without it, is the run that the file itself describes."""
        gen = _load_module("tools/gen_scenarios.py")
        written = load_scenario_dict(name)
        checked = gen.check(written | {"targets": written["targets"][:-1]},
                            written["targets"][-1])
        run = parse_scenario(written).runs[-1]
        solved = solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))
        assert checked.converged and not checked.any_infeasible
        assert checked.qs.tobytes() == solved.qs.tobytes()


class TestConfigValueErrors:
    """A value a block's dataclass or number conversion rejects is a config
    error: exit code 1, before any output is written."""

    @pytest.mark.parametrize("block, key, value", [
        ("plant", "dt", -1.0),
        ("plant", "mismatch", -0.02),
        ("controller", "position_tolerance", "x"),
        ("controller", "max_iterations", -3),
    ])
    def test_controller_scenario(self, tmp_path, capsys, block, key, value):
        cfg = minimal_controller_config(plant={})
        cfg[block][key] = value
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"config error: {block}:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "steps.csv").exists()

    @pytest.mark.parametrize("registry, message", [
        ({"cam1_position": [0, 1]}, "cam1_position: must be a 3-vector"),
        ({"cam1_position": 5}, "cam1_position: must be a 3-vector"),
        ({"cam2_offset": "abc"}, "cam2_offset: must be a 3-vector"),
        ({"cam1_position": [0.0, 0.4, 0.45]}, "a camera cannot look at its own position"),
        # No RuntimeWarning either: this suite's filterwarnings make one an error.
        ({"cam1_position": [1e300, 0.0, 0.0]},
         "a camera is too far from its target: the squared distance overflows"),
        ([], "must be an object"),
        (0, "must be an object"),
        (False, "must be an object"),
        ("", "must be an object"),
    ], ids=["2-vector", "scalar", "string", "camera-on-its-target", "camera-too-far",
            "block-list", "block-zero", "block-false", "block-empty-string"])
    def test_harvest_registry(self, tmp_path, capsys, registry, message):
        cfg = load_scenario_dict("harvest_default")
        cfg["registry"] = registry
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: registry: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out" / "steps.csv").exists()

    @pytest.mark.parametrize("block, value", [
        ("plant", {"dt": -1.0}),
        ("plant", {"noise": 0.1}),
        ("initial_q", {"midpoint_jitter": "x"}),
        ("initial_q", [0.05] * 8),
        ("initial_q", {"midpoint_jitter": 1e308}),
        ("plant", []),
        ("plant", 0),
        ("plant", False),
        ("plant", ""),
    ], ids=["plant-dt", "plant-key", "initial_q-jitter", "initial_q-length",
            "initial_q-overflow", "plant-list", "plant-zero", "plant-false",
            "plant-empty-string"])
    def test_shared_blocks_checked_without_targets(self, tmp_path, capsys, block, value):
        cfg = load_scenario_dict("position_35pts")
        cfg["targets"] = []
        cfg[block] = value
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and block in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", [
        (("plant", "mismatch"), float("nan")),
        (("plant", "position_noise_std"), float("nan")),
        (("controller", "gains", "joint_limit", "switch_threshold"), float("nan")),
        (("plant", "mismatch"), float("inf")),
    ], ids=["mismatch-NaN", "noise-NaN", "switch_threshold-NaN", "mismatch-Infinity"])
    def test_non_finite_number_in_scenario_file(self, tmp_path, capsys, path, value):
        # json.dumps writes NaN and Infinity, which json.load reads back.
        config = write_config(tmp_path, _with(minimal_controller_config(plant={}), path, value))
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"config error: {config}: non-finite number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", [
        (("plant", "mismatch"), "nan"),
        (("plant", "mismatch"), "inf"),
        (("controller", "gains", "gamma_position"), "nan"),
        (("initial_q", "midpoint_jitter"), "inf"),
        (("targets", 0, "position"), ["nan", 0.0, 0.5]),
    ], ids=["mismatch-nan", "mismatch-inf", "gamma_position-nan", "jitter-inf",
            "target-nan"])
    def test_non_finite_string_value(self, tmp_path, capsys, path, value):
        # float() reads the strings "nan" and "inf"; a number is a JSON number.
        cfg = _with(minimal_controller_config(plant={}, initial_q={}), path, value)
        config = write_config(tmp_path, cfg)
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be a number" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, path, value, message", [
        ("controller", ("controller", "gains", "alpha"), True, "gains: alpha"),
        ("controller", ("controller", "gains", "joint_limit", "switch_threshold"), False,
         "joint_limit: switch_threshold"),
        ("controller", ("plant", "dt"), "0.05", "plant: dt"),
        ("controller", ("controller", "position_tolerance"), " 8e-4 ",
         "controller: position_tolerance"),
        ("controller", ("targets", 0, "position"), [True, 0, 0.5], "targets[0]: position"),
        ("harvest_default", ("berries", 0, "approach", "angle_deg"), "-90", "angle_deg"),
    ], ids=["alpha-true", "switch_threshold-false", "dt-string", "tolerance-string",
            "target-bool", "angle-string"])
    def test_numbers_take_json_numbers(self, tmp_path, capsys, scenario, path, value,
                                       message):
        # float(True) is 1.0 and float("0.05") is 0.05: a switch threshold of
        # false kept the joint-limit term on all the way to the goal.
        cfg = (minimal_controller_config(plant={}) if scenario == "controller"
               else load_scenario_dict(scenario))
        config = write_config(tmp_path, _with(cfg, path, value))
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{message}: must be a number" in err
        assert not (tmp_path / "out").exists()

    def test_numbers_read_as_given(self):
        cfg = minimal_controller_config(plant={"dt": 1}, targets=[{"position": [0, 0, 1]}])
        cfg["controller"]["gains"]["alpha"] = 2
        run = parse_scenario(cfg).runs[0]
        assert run.plant.dt == 1.0 and run.gains.alpha == 2.0
        assert run.desired.position.tolist() == [0.0, 0.0, 1.0]
        cfg["controller"]["gains"]["alpha"] = float("nan")  # a dict, not JSON text
        with pytest.raises(ConfigError, match="alpha: must be finite"):
            parse_scenario(cfg)

    @pytest.mark.parametrize("scenario, target, message", [
        ("position_35pts", {"rotation": {"axis": "x", "angle_deg": -30}},
         "targets[0]: PositionWithJL tracks the position"),
        ("pose_7pts", {"position": [0, 0.2, 0.5]},
         "targets[0]: FullThreeTask tracks the rotation"),
        ("orientation_15pts", {"position": [0, 0.2, 0.5]},
         "targets[0]: OrientationWithJL tracks the rotation"),
        ("near_limit_pose", {"position": [0.0, 0.35, 0.45]},
         "target: FullThreeTask tracks the rotation"),
    ], ids=["position-without-position", "pose-without-rotation",
            "orientation-without-rotation", "compare-without-rotation"])
    def test_target_gives_every_part_its_mode_tracks(self, tmp_path, capsys, scenario,
                                                     target, message):
        # A missing position once read as the base origin, which
        # PositionWithJL then tracked, and a missing rotation as upright.
        cfg = load_scenario_dict(scenario)
        if "targets" in cfg:
            cfg["targets"] = [target]
        else:
            cfg["target"] = target
        config = write_config(tmp_path, cfg)
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {message}, which the target does not give\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_mode(self, tmp_path, capsys):
        # A mode is only its task list: FullThreeTask without a joint-limit
        # schedule is what PosOriPriority named.
        cfg = minimal_controller_config()
        cfg["controller"]["mode"] = "PosOriPriority"
        assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: controller: mode: unknown mode 'PosOriPriority'; one of: "
            "ConventionalRR, PositionWithJL, OrientationWithJL, FullThreeTask\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["scenario", "geometry"])
    def test_duplicate_key(self, tmp_path, capsys, where):
        # json would keep the last of the two values.
        geom_path = tmp_path / "geom.json"
        geom_path.write_text('{"sections": [{"radius": 0.06}, {"radius": 0.05},'
                             ' {"radius": 0.04, "radius": 0.03}]}')
        cfg = minimal_controller_config(geometry=str(geom_path) if where == "geometry"
                                        else "default")
        path = tmp_path / "scenario.json"
        text = json.dumps(cfg)
        if where == "scenario":
            text = '{"strict": true, "strict": false, ' + text[1:]
        path.write_text(text, encoding="utf-8")
        assert main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        source, key = ((path, "strict") if where == "scenario"
                       else (f"geometry file {geom_path}", "radius"))
        assert err == f"config error: {source}: duplicate key {key!r}\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_number_in_geometry_file(self, tmp_path, capsys):
        geom_path = tmp_path / "geom.json"
        geom_path.write_text('{"sections": [{"radius": 0.06}, {"radius": 0.05},'
                             ' {"radius": 0.04, "plate_offset_angle": NaN}]}')
        path = write_config(tmp_path, minimal_controller_config(geometry=str(geom_path)))
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"geometry file {geom_path}: non-finite number NaN" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("strict", "false", "strict: must be true or false"),
        ("strict", 1, "strict: must be true or false"),
        ("strict", None, "strict: must be true or false"),
        ("seed", 3.7, "seed: must be an integer"),
        ("seed", 3.0, "seed: must be an integer"),
        ("seed", True, "seed: must be an integer"),
        ("seed", "3", "seed: must be an integer"),
        ("name", 5, "name: must be a string"),
        ("name", None, "name: must be a string"),
        ("name", ["mini"], "name: must be a string"),
    ], ids=["strict-string", "strict-int", "strict-null", "seed-fraction",
            "seed-float", "seed-bool", "seed-string", "name-number", "name-null",
            "name-list"])
    def test_strict_and_seed_take_json_types(self, tmp_path, capsys, key, value, message):
        # bool("false") is True and int(3.7) is 3: no conversion, only the
        # JSON type the key means.
        cfg = minimal_controller_config()
        cfg[key] = value
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../escaped", "a\\b", "/absolute"],
                             ids=["empty", "dot", "dotdot", "separator", "parent",
                                  "backslash", "absolute"])
    def test_name_must_be_one_output_directory(self, tmp_path, monkeypatch, capsys, name):
        # The default output directory is out/<name>: these would write into
        # out/ itself or outside it. Nothing is opened before the error.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        if name == "/absolute":
            name = str(tmp_path / "absolute")
        path = write_config(tmp_path, minimal_controller_config(name=name))
        assert main(["run", path, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("config error: name: ")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json", "work"]

    @pytest.mark.parametrize("seed, options, given", [(-3, [], -3), (7, ["--seed", "-1"], -1)],
                             ids=["file", "override"])
    def test_negative_seed(self, tmp_path, capsys, seed, options, given):
        # numpy's SeedSequence once rejected it with a traceback.
        path = write_config(tmp_path, minimal_controller_config(seed=seed))
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet", *options]) == 1
        assert capsys.readouterr().err == (
            f"config error: seed: must be non-negative, got {given}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario", ["controller", "near_limit_pose"])
    def test_controller_block_needs_gains(self, tmp_path, capsys, scenario):
        # A block without gains once ran on a step gain of 0.05 that no
        # dataclass gives as its default.
        if scenario == "controller":
            cfg, place = minimal_controller_config(), "controller"
            del cfg["controller"]["gains"]
        else:
            cfg, place = load_scenario_dict(scenario), "controllers[1]"
            del cfg["controllers"][1]["gains"]
        assert main(["run", write_config(tmp_path, cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
        assert capsys.readouterr().err == f"config error: {place}: needs 'gains'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_strict_and_seed_read_as_given(self, strict, seed):
        scenario = parse_scenario(minimal_controller_config(strict=strict, seed=seed))
        assert scenario.strict is strict and scenario.seed == seed

    @pytest.mark.parametrize("value", [3.7, 12.0, True, "12"],
                             ids=["fraction", "float", "bool", "string"])
    @pytest.mark.parametrize("scenario, path, where", [
        ("controller", ("controller", "max_iterations"), "controller"),
        ("near_limit_pose", ("controllers", 1, "max_iterations"), "controllers[1]"),
        ("harvest_default", ("workflow", "home_iterations"), "workflow"),
        ("harvest_default", ("workflow", "placement_max_iterations"), "workflow"),
        ("harvest_default", ("workflow", "fine_max_iterations"), "workflow"),
    ], ids=["max_iterations", "compare-max_iterations", "home_iterations",
            "placement_max_iterations", "fine_max_iterations"])
    def test_iteration_counts_take_json_integers(self, tmp_path, capsys, scenario, path,
                                                 where, value):
        # int(3.7) is 3, int(True) is 1 and int("12") is 12: a count is a
        # JSON integer or a config error.
        cfg = (minimal_controller_config() if scenario == "controller"
               else load_scenario_dict(scenario))
        config_path = write_config(tmp_path, _with(cfg, path, value))
        assert main(["run", config_path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        message = f"config error: {where}: {path[-1]}: must be an integer"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "steps.csv").exists()

    def test_iteration_counts_read_as_given(self):
        cfg = minimal_controller_config()
        cfg["controller"]["max_iterations"] = 12
        assert parse_scenario(cfg).runs[0].controller.max_iterations == 12
        cfg = load_scenario_dict("harvest_default")
        cfg["workflow"].update(home_iterations=7, placement_max_iterations=8,
                               fine_max_iterations=9)
        workflow = parse_scenario(cfg).runs[0].workflow
        assert (workflow.home_iterations, workflow.placement_max_iterations,
                workflow.fine_max_iterations) == (7, 8, 9)

    @pytest.mark.parametrize("key, value, message", [
        ("grasp_threshold", 0.1, "grasp_threshold must be positive and below coarse"),
        ("grasp_threshold", 0.0, "grasp_threshold must be positive"),
        ("grasp_threshold", -0.01, "grasp_threshold must be positive"),
        ("home_iterations", -5, "home_iterations must be non-negative"),
        ("placement_max_iterations", -1, "placement_max_iterations must be non-negative"),
        ("fine_max_iterations", -1, "fine_max_iterations must be non-negative"),
        ("observation_noise_std", -0.001, "observation_noise_std must be non-negative"),
    ], ids=["grasp-above-coarse", "grasp-zero", "grasp-negative", "home_iterations",
            "placement_max_iterations", "fine_max_iterations", "observation_noise_std"])
    def test_harvest_workflow(self, tmp_path, capsys, key, value, message):
        # Run, a negative count would take no steps, a negative noise none,
        # and a grasp threshold of 0 is never met.
        cfg = load_scenario_dict("harvest_default")
        cfg["workflow"][key] = value
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"config error: workflow: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "steps.csv").exists()

    @pytest.mark.parametrize("value", [[], 0, False, ""],
                             ids=["list", "zero", "false", "empty-string"])
    @pytest.mark.parametrize("block", ["plant", "workflow"])
    def test_harvest_block_must_be_an_object(self, tmp_path, capsys, block, value):
        # A falsy block once ran with every default.
        cfg = load_scenario_dict("harvest_default")
        cfg[block] = value
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"config error: {block}: must be an object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scenario, path", [
        ("harvest_default", ("plant",)),
        ("harvest_default", ("workflow",)),
        ("harvest_default", ("registry",)),
        ("harvest_default", ("berries", 1, "c1_occlusion_window")),
        ("controller", ("plant",)),
    ], ids=["harvest-plant", "workflow", "registry", "c1_occlusion_window",
            "controller-plant"])
    def test_null_reads_as_absent(self, scenario, path):
        cfg = (minimal_controller_config(plant={}) if scenario == "controller"
               else load_scenario_dict(scenario))
        null = repr(parse_scenario(_with(json.loads(json.dumps(cfg)), path, None)).runs)
        *parent, key = path
        block = cfg
        for part in parent:
            block = block[part]
        block.pop(key, None)
        assert null == repr(parse_scenario(cfg).runs)

    @pytest.mark.parametrize("window", [["20", 30], [20.5, 30], [True, 30], [20, "30"],
                                        [20, 30.0], "20", [20], [20, 30, 40], {"20": 30},
                                        [], 0, False, "", [10, -5], [20, 0], [-1, 30]],
                             ids=["string-start", "fraction", "bool", "string-length",
                                  "float-length", "string", "one", "three", "object",
                                  "empty-list", "zero", "false", "empty-string",
                                  "negative-length", "zero-length", "negative-start"])
    def test_occlusion_window_takes_two_json_integers(self, tmp_path, capsys, window):
        # A string start once died in run_harvest with a TypeError after
        # steps.csv opened; a fraction or a bool ran as given, and a window
        # of negative length never occluded.
        cfg = load_scenario_dict("harvest_default")
        cfg["berries"][1]["c1_occlusion_window"] = window
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: berries[1]: c1_occlusion_window:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axes", [[0, 5], [-1], "02", [0, 0], [0, 2.0], [True],
                                      ["0"], 2, []],
                             ids=["out-of-range", "negative", "string", "repeated",
                                  "float", "bool", "string-entry", "scalar", "empty"])
    def test_orientation_error_axes_take_distinct_axis_indices(self, tmp_path, capsys, axes):
        # [0, 5] and "02" once died in solve with an IndexError after
        # steps.csv opened; [0, 0] ran.
        cfg = load_scenario_dict("pose_7pts")
        cfg["controller"]["orientation_error_axes"] = axes
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: controller: orientation_error_axes:")
        assert not (tmp_path / "out" / "steps.csv").exists()

    def test_window_and_axes_read_as_given(self):
        harvest = parse_scenario(load_scenario_dict("harvest_default"))
        assert [run.workflow.c1_occlusion_window for run in harvest.runs] == [None, (20, 30)]
        cfg = load_scenario_dict("pose_7pts")
        assert parse_scenario(cfg).runs[0].controller.orientation_error_axes == (0, 2)
        for axes, parsed in [([2, 0, 1], (2, 0, 1)), (None, None)]:
            cfg["controller"]["orientation_error_axes"] = axes
            assert parse_scenario(cfg).runs[0].controller.orientation_error_axes == parsed

    @pytest.mark.parametrize("scenario, path, value, place", [
        ("controller", ("geometry",),
         {"sections": [{"radius": 0.06}, {"radius": -0.05}, {"radius": 0.04}]},
         "geometry: sections[1]"),
        ("controller", ("controller", "gains", "joint_limit"), 5,
         "controller: gains: joint_limit"),
        ("pose_7pts", ("targets", 1, "rotation"), {"axis": "w"}, "targets[1]: rotation"),
        ("position_35pts", ("targets", 3), {}, "targets[3]"),
        ("near_limit_pose", ("controllers", 1, "gains"), {"gamma_position": 1.0},
         "controllers[1]: gains"),
        ("harvest_default", ("berries", 1, "approach"), 5, "berries[1]: approach"),
        ("harvest_default", ("workflow", "fine_gains"), {"alpha": -1.0},
         "workflow: fine_gains"),
        ("harvest_default", ("registry",), {"cam1_position": [0, 1]}, "registry"),
        ("controller", ("plant",), {"dt": -1.0}, "plant"),
        ("controller", ("initial_q",), [0.05] * 8, "initial_q"),
    ], ids=["geometry-section", "joint_limit", "target-rotation", "empty-target",
            "compare-gains", "berry-approach", "fine_gains", "registry", "plant", "initial_q"])
    def test_an_error_names_its_place_by_its_key_chain(self, tmp_path, capsys, scenario, path,
                                                        value, place):
        # Every place reads as the keys and list items down to it, one way:
        # no "scenario." prefix, no dotted path, no message without a place.
        cfg = (minimal_controller_config() if scenario == "controller"
               else load_scenario_dict(scenario))
        config = write_config(tmp_path, _with(cfg, path, value))
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {place}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis", [["x"], {"x": 1}], ids=["list", "object"])
    @pytest.mark.parametrize("scenario, path, place", [
        ("pose_7pts", ("targets", 0, "rotation"), "targets[0]: rotation"),
        ("harvest_default", ("berries", 0, "approach"), "berries[0]: approach"),
    ], ids=["target", "approach"])
    def test_a_rotation_axis_that_is_not_a_string(self, tmp_path, capsys, scenario, path,
                                                   place, axis):
        # A list or an object once read as "unhashable type: 'list'".
        cfg = _with(load_scenario_dict(scenario), path, {"axis": axis, "angle_deg": -30.0})
        config = write_config(tmp_path, cfg)
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: {place}: axis: rotation axis must be one of x/y/z, got {axis!r}\n")

    @pytest.mark.parametrize("metric", [5, ["position"]], ids=["number", "list"])
    def test_joint_limit_metric_takes_a_string(self, tmp_path, capsys, metric):
        # str() once read 5 as "5", which the schedule then rejected under
        # the name threshold_metric, a key the file does not have.
        cfg = _with(minimal_controller_config(),
                    ("controller", "gains", "joint_limit", "metric"), metric)
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: controller: gains: joint_limit: metric: must be a string\n")

    def test_joint_limit_metric_names_its_key(self, tmp_path, capsys):
        # It once read "joint_limit: threshold_metric must be ...", the
        # schedule's old field name.
        cfg = _with(minimal_controller_config(),
                    ("controller", "gains", "joint_limit", "metric"), "foo")
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: controller: gains: joint_limit: metric: must be 'position' or "
            "'orientation', got 'foo'\n")

    def test_negative_midpoint_jitter(self, tmp_path, capsys):
        # It once read numpy's "initial_q: high - low < 0".
        cfg = minimal_controller_config(initial_q={"midpoint_jitter": -1.0})
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: initial_q: midpoint_jitter: must be non-negative, got -1.0\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mismatch, shown", [(2.0, "2.0"), (1.0, "1.0"), (1e308, "1e+308"),
                                                 (-0.02, "-0.02")],
                             ids=["two", "one", "1e308", "negative"])
    def test_mismatch_keeps_every_length_scale_positive(self, tmp_path, capsys, mismatch,
                                                        shown):
        # Each true length scale is 1 + e, |e| <= mismatch: 2.0 once ran with
        # scales that could be negative, and 1e308 read numpy's "high - low
        # range exceeds valid bounds".
        cfg = minimal_controller_config(plant={"mismatch": mismatch})
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"config error: plant: mismatch: must be in [0, 1), got {shown}\n")
        assert not (tmp_path / "out").exists()


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e16, -1e16, 1.2345678901234567e300])


class TestCsvFormat:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(finite_floats, finite_floats, finite_floats),
                         min_size=1, max_size=4))
    @example(rows=[(-0.0, 5e-324, 1e16), (9.999999999995e15, -1e300, 2.2250738585072014e-308)])
    def test_one_pass_rows_match_per_value_format(self, rows):
        table = np.array(rows)
        lines = list(_csv_lines([(7, k, "Stage") for k in range(len(rows))],
                                (table[:, :2], table[:, 2]), [("010",)] * len(rows)))
        assert all(line.endswith("\r\n") for line in lines)
        assert [line[:-2].split(",") for line in lines] == [
            ["7", str(k), "Stage"] + ["%.12g" % np.float64(v) for v in row] + ["010"]
            for k, row in enumerate(rows)]

    @pytest.mark.parametrize("scenario", ["pose_7pts_noisy", "harvest_default"])
    def test_steps_csv_is_what_csv_writes(self, bundled, scenario):
        """Every body line ends in \\r\\n, has the header's column count, and
        reads back to rows that csv writes to the same bytes."""
        text = (bundled[scenario].out_dir / "steps.csv").read_bytes().decode("utf-8")
        lines = text.splitlines(keepends=True)
        assert len(lines) > 1 and all(line.endswith("\r\n") for line in lines)
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert len(rows) == len(lines) - 1
        assert all(len(row) == len(header) for row in rows)
        rewritten = io.StringIO(newline="")
        csv.writer(rewritten).writerows([header, *rows])
        assert rewritten.getvalue() == text


class TestPressureColumns:
    """``p1..p9`` of ``steps.csv`` are the regulator pressures of the
    commands the controller or the harvest sent, not of the elongations a
    mismatched plant applied."""

    PRESSURES = [f"p{i + 1}" for i in range(9)]

    def _written(self, rows):
        return [[row[p] for p in self.PRESSURES] for row in rows]

    def _expected(self, qs):
        return [["%.12g" % v for v in row] for row in elongation_to_pressure(qs).tolist()]

    def test_controller_rows(self, bundled):
        run = parse_scenario(load_scenario_dict("position_35pts_noisy")).runs[0]
        assert np.any(run.plant.length_scale_error)
        traj = solve(run.q0, run.desired, run.gains, run.controller, Plant(run.plant))
        rows = bundled["position_35pts_noisy"].rows[str(run.label)]
        assert self._written(rows) == self._expected(traj.qs)

    def test_harvest_rows(self, bundled):
        run = parse_scenario(load_scenario_dict("harvest_default")).runs[0]
        log = run_harvest(run.berry, run.approach, Plant(run.plant), run.registry,
                          run.workflow)
        rows = bundled["harvest_default"].rows["0"]
        assert self._written(rows) == self._expected(np.array([r.q for r in log.rows]))


class TestRunScenario:
    def test_empty_target_list_succeeds(self, tmp_path):
        path = write_config(tmp_path, minimal_controller_config(targets=[]))
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["aggregate"]["n_runs"] == 0

    def test_single_target_produces_csv_and_summary(self, tmp_path):
        path = write_config(tmp_path, minimal_controller_config())
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 0
        with open(tmp_path / "out" / "steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert set(rows[0]) >= {"target", "iteration", "q1", "p9", "err_pos",
                                "infeasible"}
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["aggregate"]["n_converged"] == 1

    def test_summary_stats_recomputable_from_csv(self, tmp_path):
        cfg = minimal_controller_config(
            targets=[{"position": [-0.0498, 0.0657, 0.6674]},
                     {"position": [-0.0601, -0.1457, 0.6309]}])
        path = write_config(tmp_path, cfg)
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 0
        with open(tmp_path / "out" / "steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        finals = {}
        for row in rows:
            finals[(row["target"], row["repetition"])] = float(row["err_pos"])
        errs = np.array(sorted(finals.values()))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["aggregate"]["err_pos_mean_mm"] == pytest.approx(
            errs.mean() * 1e3, rel=1e-9)
        assert summary["aggregate"]["err_pos_std_mm"] == pytest.approx(
            errs.std() * 1e3, rel=1e-9)

    def test_straight_start_converges(self, tmp_path):
        # Every section exactly straight at the start: the run exits 0 with
        # both targets converged (71 and 50 iterations).
        cfg = load_scenario_dict("position_35pts")
        cfg["targets"] = cfg["targets"][:2]
        cfg["initial_q"] = [0.05] * 9
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(r["converged"], r["any_infeasible"]) for r in summary["runs"]] == \
            [(True, False)] * 2

    def test_rerun_is_byte_identical(self, tmp_path):
        # Into a new directory, and again over the first run's files.
        path = write_config(tmp_path, minimal_controller_config())
        outputs = []
        for out in ("a", "b", "a"):
            assert run_scenario(path, out_dir=tmp_path / out, quiet=True) == 0
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / out).iterdir()})
        assert sorted(outputs[0]) == ["steps.csv", "summary.json", "summary.txt"]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("kind, runner", [("controller", "solve"), ("compare", "solve"),
                                              ("harvest", "run_harvest")])
    def test_a_rerun_that_raises_leaves_no_earlier_output(self, tmp_path, monkeypatch, kind,
                                                         runner):
        # Rerun into the directory of an earlier run that converged, the
        # second run raises: no summary of the earlier run is left beside
        # the new, partial log to be read as this run's.
        path = write_config(tmp_path, one_of_each_kind(kind))
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out, quiet=True) == 0
        assert json.loads((out / "summary.json").read_text(encoding="utf-8"))
        calls, run = 0, getattr(softarm.cli, runner)

        def raises_in_the_second_run(*args):
            nonlocal calls
            calls += 1
            if calls == 2:
                raise RuntimeError("mid-run")
            return run(*args)

        monkeypatch.setattr(softarm.cli, runner, raises_in_the_second_run)
        with pytest.raises(RuntimeError, match="mid-run"):
            run_scenario(path, out_dir=out, quiet=True)
        # The log of a controller or harvest run is opened before its first
        # run; a comparison writes nothing until every run is done.
        assert sorted(p.name for p in out.iterdir()) == ([] if kind == "compare"
                                                         else ["steps.csv"])

    @pytest.mark.parametrize("strict", [True, False])
    @pytest.mark.parametrize("kind", ["controller", "compare", "harvest"])
    def test_strict_mode_fails_on_a_failed_run(self, tmp_path, capsys, kind, strict):
        path = write_config(tmp_path, dict(one_of_each_kind(kind, fail_one=True),
                                           strict=strict))
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == (2 if strict else 0)
        tail = [f"  wrote {out}"] + (["  STRICT: 1 run(s) failed"] if strict else [])
        assert capsys.readouterr().out.splitlines()[-len(tail):] == tail

    @pytest.mark.parametrize("kind, report", [("controller", "summary.txt"),
                                              ("compare", "verdicts.txt"),
                                              ("harvest", "summary.txt")])
    def test_stdout_echoes_the_text_report(self, tmp_path, capsys, kind, report):
        # Each report line is formatted once, as its run ends: stdout is the
        # scenario line, the report's body indented, and the output directory.
        cfg = one_of_each_kind(kind)
        out = tmp_path / "out"
        assert run_scenario(write_config(tmp_path, cfg), out_dir=out) == 0
        head, *body = (out / report).read_text(encoding="utf-8").split("\n\n", 1)
        assert head == f"scenario: {cfg['name']}\nseed: {cfg['seed']}"
        assert capsys.readouterr().out.splitlines() == (
            [f"scenario {cfg['name']} (kind={kind}, seed={cfg['seed']})"]
            + [f"  {line}".rstrip() for line in body[0].splitlines()]
            + [f"  wrote {out}"])

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"name": "x"})  # missing kind
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 1

    def test_unreadable_geometry_file_exit_code(self, tmp_path):
        cfg = minimal_controller_config(geometry="does/not/exist.json")
        path = write_config(tmp_path, cfg)
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 1

    @pytest.mark.parametrize("scenario", ["position_35pts", "orientation_compare",
                                          "harvest_default"])
    def test_output_path_that_is_a_file_exits_1_before_any_run(self, tmp_path, capsys,
                                                                monkeypatch, scenario):
        for runner in ("solve", "run_harvest"):
            monkeypatch.setattr(f"softarm.cli.{runner}", lambda *args: pytest.fail("ran"))
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", scenario, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot make output directory {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("scenario, name", [("position_35pts", "steps.csv"),
                                                ("orientation_compare", "verdicts.txt"),
                                                ("harvest_default", "summary.json")])
    def test_an_output_that_is_a_directory_exits_1_before_any_run(self, tmp_path, capsys,
                                                                   monkeypatch, scenario, name):
        for runner in ("solve", "run_harvest"):
            monkeypatch.setattr(f"softarm.cli.{runner}", lambda *args: pytest.fail("ran"))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["run", scenario, "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot remove earlier output {out / name}: ")
        assert err.count("\n") == 1

    def test_geometry_loaded_from_file(self, tmp_path):
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(json.dumps({"sections": [
            {"radius": 0.06}, {"radius": 0.05},
            {"radius": 0.04, "plate_offset_angle": 0.0}]}))
        cfg = minimal_controller_config(geometry=str(geom_path))
        path = write_config(tmp_path, cfg)
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 0

    @pytest.mark.parametrize("content", ['"default"', "null"])
    def test_geometry_file_may_name_the_default(self, tmp_path, content):
        """The path is read first, then its content tested for the default."""
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(content, encoding="utf-8")
        assert geometry_from_dict(str(geom_path)) == default_geometry()
        assert parse_scenario(minimal_controller_config(
            geometry=str(geom_path))).runs[0].controller.geometry == default_geometry()


class TestCompare:
    def test_compare_writes_aligned_csv_and_verdicts(self, tmp_path):
        path = write_config(tmp_path, minimal_compare_config())
        assert main(["run", path, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        with open(tmp_path / "out" / "compare.csv", newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["iteration", "a_err_pos", "a_err_rot",
                          "b_err_pos", "b_err_rot"]
        verdicts = (tmp_path / "out" / "verdicts.txt").read_text()
        assert "a: converged" in verdicts and "b: converged" in verdicts

    def test_mode_compared_with_itself_is_identical(self, tmp_path):
        cfg = minimal_compare_config()
        cfg["controllers"][1] = dict(cfg["controllers"][0], name="a2")
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        with open(tmp_path / "out" / "compare.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                assert row["a_err_pos"] == row["a2_err_pos"]
                assert row["a_err_rot"] == row["a2_err_rot"]

    def test_controller_name_csv_must_quote_round_trips(self, tmp_path):
        cfg = minimal_compare_config()
        cfg["controllers"][0]["name"] = 'a,"b"'
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        with open(tmp_path / "out" / "compare.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["iteration", 'a,"b"_err_pos', 'a,"b"_err_rot',
                                     "b_err_pos", "b_err_rot"]
        assert rows and all(None not in row for row in rows)
        assert [row["iteration"] for row in rows] == [str(k) for k in range(len(rows))]

    @pytest.mark.parametrize("name, label", [(None, "PositionWithJL"), ("", "PositionWithJL"),
                                             ("c", "c")], ids=["null", "empty", "string"])
    def test_controller_name_defaults_to_the_mode(self, name, label):
        cfg = minimal_compare_config()
        cfg["controllers"][0]["name"] = name
        assert [run.label for run in parse_scenario(cfg).runs] == [label, "b"]

    @pytest.mark.parametrize("name", [7, False, 0, ["a"]],
                             ids=["number", "false", "zero", "list"])
    def test_controller_name_must_be_a_string(self, tmp_path, capsys, name):
        # str() once named the controller "7", "False" or "['a']", and 0 or
        # false fell back to the mode name.
        cfg = minimal_compare_config()
        cfg["controllers"][0]["name"] = name
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "config error: controllers[0]: name: must be a string" in err
        assert not (tmp_path / "out").exists()

    def test_compare_requires_two_controllers(self, tmp_path):
        cfg = minimal_compare_config()
        cfg["controllers"] = cfg["controllers"][:1]
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--quiet"]) == 1

    def test_controller_names_must_differ(self, tmp_path, capsys):
        cfg = minimal_compare_config()
        cfg["controllers"][1]["name"] = "a"
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            "config error: controllers[1]: duplicate controller name 'a'\n")


class TestHarvestScenario:
    def test_bundled_harvest_runs(self, bundled):
        harvest = bundled["harvest_default"]
        assert all(r["final_state"] == "Done" for r in harvest.summary["runs"])
        stages = [r["stage"] for r in harvest.rows["0"]]
        for stage in ("InitialPlacement", "FinePositioning", "Grasp", "ReturnHome"):
            assert stage in stages

    def test_failed_harvest_reports_no_grasp(self, tmp_path):
        cfg = load_scenario_dict("harvest_default")
        cfg["workflow"]["placement_max_iterations"] = 0
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [(r["final_state"], r["grasp_success"]) for r in summary["runs"]] == \
            [("Failed", False)] * 2

    @pytest.mark.parametrize("position", [None, [0.0, 0.4]], ids=["missing", "2-vector"])
    def test_bad_berry_position_exits_1_before_any_output(self, tmp_path, capsys, position):
        cfg = load_scenario_dict("harvest_default")
        if position is None:
            del cfg["berries"][1]["position"]
        else:
            cfg["berries"][1]["position"] = position
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert "berries[1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOutputsDigest:
    """``tools/outputs_digest.py --against``: a listing compared with an
    earlier one names every differing, missing and extra file."""

    def test_differences_name_every_file(self):
        digest = _load_module("tools/outputs_digest.py")
        expected = {"a/steps.csv": "1", "a/summary.json": "2", "b/steps.csv": "3"}
        got = {"a/steps.csv": "1", "a/summary.json": "9", "c/steps.csv": "4"}
        assert digest.differences(got, expected) == [
            "differs: a/summary.json", "missing: b/steps.csv", "extra: c/steps.csv"]
        assert digest.differences(expected, dict(expected)) == []

    def test_exit_code_and_listing(self, tmp_path, capsys, monkeypatch):
        digest = _load_module("tools/outputs_digest.py")
        got = {"a/steps.csv": "1", "a/summary.json": "2"}
        monkeypatch.setattr(digest, "digests", lambda out: dict(got))
        assert digest.main([str(tmp_path / "out")]) == 0
        listing = tmp_path / "first.txt"
        listing.write_text(capsys.readouterr().out)
        assert digest.read_listing(listing.read_text()) == got
        assert digest.main([str(tmp_path / "out"), "--against", str(listing)]) == 0
        got["a/summary.json"] = "5"
        assert digest.main([str(tmp_path / "out"), "--against", str(listing)]) == 1
        assert capsys.readouterr().err == "differs: a/summary.json\n"


class TestOutputsDiff:
    """``tools/outputs_diff.py OLD_DIR NEW_DIR``: which floats moved where,
    and exit 1 when anything but a float moved."""

    HEADER = "target,iteration,stage,q1,err_pos,infeasible\r\n"
    ROWS = ["0,0,PositionWithJL,0.05081032075,0.388367871855,000000000\r\n",
            "0,1,PositionWithJL,0.048942172231,0.377110592463,000000000\r\n"]
    SUMMARY = {"name": "s", "runs": [{"converged": True, "iterations": 1,
                                      "final_state": "Done", "final_err_pos_m": 0.25}]}

    def tree(self, root, rows=None, summary=None, text="target 0: iters=1\n"):
        (root / "s").mkdir(parents=True)
        (root / "s" / "steps.csv").write_text(self.HEADER + "".join(rows or self.ROWS),
                                              newline="")
        (root / "s" / "summary.json").write_text(json.dumps(summary or self.SUMMARY))
        (root / "s" / "summary.txt").write_text(text)
        return root

    def run(self, tmp_path, capsys, **new):
        tool = _load_module("tools/outputs_diff.py")
        old = self.tree(tmp_path / "old")
        code = tool.main([str(old), str(self.tree(tmp_path / "new", **new))])
        return code, capsys.readouterr().out.splitlines()

    def test_equal_trees_report_nothing(self, tmp_path, capsys):
        assert self.run(tmp_path, capsys) == (0, [])

    def test_moved_floats_are_counted_per_column(self, tmp_path, capsys):
        rows = [self.ROWS[0].replace("0.388367871855", "0.388367871856"),
                self.ROWS[1].replace("0.048942172231", "0.048942172331")
                .replace("0.377110592463", "0.377110592462")]
        summary = json.loads(json.dumps(self.SUMMARY))
        summary["runs"][0]["final_err_pos_m"] = 0.25 + 2.0 ** -52
        code, lines = self.run(tmp_path, capsys, rows=rows, summary=summary)
        assert code == 0
        assert lines == [
            "s/steps.csv: 2 rows, 2 changed",
            "  q1: 1 cells, max abs 1e-10, max rel 2.04e-09",
            "  err_pos: 2 cells, max abs 1e-12, max rel 2.65e-12",
            "s/summary.json: 5 fields, 1 changed",
            "  runs[].final_err_pos_m: 1 cells, max abs 2.22e-16, max rel 8.88e-16",
        ]

    @pytest.mark.parametrize("change, problem", [
        ({"rows": ROWS[:1]}, "row count: 2 -> 1"),
        ({"rows": [ROWS[0].replace("PositionWithJL", "FullThreeTask"), ROWS[1]]},
         "stage: 'PositionWithJL' -> 'FullThreeTask'"),
        ({"rows": [ROWS[0], ROWS[1].replace("000000000", "000000001")]},
         "infeasible: '000000000' -> '000000001'"),
        ({"rows": [ROWS[0], ROWS[1].replace("0,1,", "0,2,")]}, "iteration: '1' -> '2'"),
        ({"summary": {**SUMMARY, "runs": [{**SUMMARY["runs"][0], "iterations": 2}]}},
         "runs[].iterations: 1 -> 2"),
        ({"summary": {**SUMMARY, "runs": [{**SUMMARY["runs"][0], "converged": False}]}},
         "runs[].converged: True -> False"),
        ({"summary": {**SUMMARY, "runs": [{**SUMMARY["runs"][0], "final_state": "Failed"}]}},
         "runs[].final_state: 'Done' -> 'Failed'"),
        ({"text": "target 0: iters=2\n"}, "field 2: 'iters=1' -> 'iters=2'"),
    ], ids=["rows", "stage", "mask", "iteration", "iterations", "converged", "final_state",
            "text"])
    def test_anything_but_a_float_exits_1(self, tmp_path, capsys, change, problem):
        code, lines = self.run(tmp_path, capsys, **change)
        assert code == 1
        assert f"  not a float: {problem}" in lines

    def test_a_file_on_one_side_exits_1(self, tmp_path, capsys):
        tool = _load_module("tools/outputs_diff.py")
        old = self.tree(tmp_path / "old")
        new = self.tree(tmp_path / "new")
        (new / "s" / "extra.csv").write_text(self.HEADER)
        assert tool.main([str(old), str(new)]) == 1
        assert capsys.readouterr().out == "s/extra.csv: only in NEW_DIR\n"
