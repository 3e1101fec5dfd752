import csv
import importlib.util
import io
import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from softarm.geometry import default_geometry
from softarm.plant import Plant
from softarm.rotations import rot_x, rot_z, rotvec_to_matrix


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

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_scenario_dict(path)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_scenario({"name": "x", "kind": "wat"})

    def test_geometry_validation_enforced(self):
        bad = {"sections": [{"radius": 0.04}, {"radius": 0.05}, {"radius": 0.06}]}
        with pytest.raises(ConfigError):
            geometry_from_dict(bad)

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
        assert "'postion_tolerance' in scenario.controller" in capsys.readouterr().err
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
        with pytest.raises(ConfigError, match=f"unknown key {key!r} in scenario;"):
            parse_scenario(cfg)

    def test_unknown_key_in_compare_entry_and_geometry(self):
        cfg = load_scenario_dict("near_limit_pose")
        cfg["controllers"][1]["label"] = "x"
        with pytest.raises(ConfigError, match=r"scenario\.controllers\[1\]"):
            parse_scenario(cfg)
        with pytest.raises(ConfigError, match="'radius_mm'"):
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
            assert run.workflow.placement.gains == defaults["pose"]
        workloads = _load_module("bench/workloads.py")
        for kind in workloads.CONTROLLERS:
            task = {"kind": kind, "noisy": False, "scenario_seed": 1,
                    "target": {"position": [0.0, 0.4, 0.45]}}
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
        ({"cam2_offset": "abc"}, "cam2_offset: could not convert"),
        ({"cam1_position": [0.0, 0.4, 0.45]}, "a camera cannot look at its own position"),
        ([], "must be an object"),
        (0, "must be an object"),
        (False, "must be an object"),
        ("", "must be an object"),
    ], ids=["2-vector", "scalar", "string", "camera-on-its-target", "block-list",
            "block-zero", "block-false", "block-empty-string"])
    def test_harvest_registry(self, tmp_path, capsys, registry, message):
        cfg = load_scenario_dict("harvest_default")
        cfg["registry"] = registry
        path = write_config(tmp_path, cfg)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        assert f"config error: registry: {message}" in capsys.readouterr().err
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
        # float() reads the strings "nan" and "inf".
        cfg = _with(minimal_controller_config(plant={}, initial_q={}), path, value)
        config = write_config(tmp_path, cfg)
        assert main(["run", config, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be finite" in err
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
        assert f"config error: scenario: {message}" in capsys.readouterr().err
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
        assert "config error: scenario: name: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scenario.json", "work"]

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
        command = "compare" if scenario == "near_limit_pose" else "run"
        assert main([command, config_path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
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
        assert (workflow.home_iterations, workflow.placement.max_iterations,
                workflow.fine.max_iterations) == (7, 8, 9)

    @pytest.mark.parametrize("key, value, message", [
        ("grasp_threshold", 0.1, "grasp_threshold must be positive and below coarse"),
        ("grasp_threshold", 0.0, "grasp_threshold must be positive"),
        ("grasp_threshold", -0.01, "grasp_threshold must be positive"),
        ("home_iterations", -5, "home_iterations must be non-negative"),
        ("placement_max_iterations", -1, "max_iterations must be non-negative"),
        ("fine_max_iterations", -1, "max_iterations must be non-negative"),
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
                                        [], 0, False, ""],
                             ids=["string-start", "fraction", "bool", "string-length",
                                  "float-length", "string", "one", "three", "object",
                                  "empty-list", "zero", "false", "empty-string"])
    def test_occlusion_window_takes_two_json_integers(self, tmp_path, capsys, window):
        # A string start once died in run_harvest with a TypeError after
        # steps.csv opened; a fraction or a bool ran as given.
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
    def test_steps_csv_is_what_csv_writes(self, tmp_path, scenario):
        """Every body line ends in \\r\\n, has the header's column count, and
        reads back to rows that csv writes to the same bytes."""
        assert run_scenario(scenario, out_dir=tmp_path, quiet=True) == 0
        text = (tmp_path / "steps.csv").read_bytes().decode("utf-8")
        lines = text.splitlines(keepends=True)
        assert len(lines) > 1 and all(line.endswith("\r\n") for line in lines)
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        assert len(rows) == len(lines) - 1
        assert all(len(row) == len(header) for row in rows)
        rewritten = io.StringIO(newline="")
        csv.writer(rewritten).writerows([header, *rows])
        assert rewritten.getvalue() == text


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

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, minimal_controller_config())
        run_scenario(path, out_dir=tmp_path / "a", quiet=True)
        run_scenario(path, out_dir=tmp_path / "b", quiet=True)
        assert (tmp_path / "a" / "steps.csv").read_bytes() == \
            (tmp_path / "b" / "steps.csv").read_bytes()

    def test_strict_mode_fails_on_nonconverged(self, tmp_path):
        cfg = minimal_controller_config(strict=True)
        cfg["controller"]["max_iterations"] = 2  # cannot converge in 2 steps
        path = write_config(tmp_path, cfg)
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 2

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"name": "x"})  # missing kind
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 1

    def test_unreadable_geometry_file_exit_code(self, tmp_path):
        cfg = minimal_controller_config(geometry="does/not/exist.json")
        path = write_config(tmp_path, cfg)
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 1

    def test_geometry_loaded_from_file(self, tmp_path):
        geom_path = tmp_path / "geom.json"
        geom_path.write_text(json.dumps({"sections": [
            {"radius": 0.06}, {"radius": 0.05},
            {"radius": 0.04, "plate_offset_angle": 0.0}]}))
        cfg = minimal_controller_config(geometry=str(geom_path))
        path = write_config(tmp_path, cfg)
        assert run_scenario(path, out_dir=tmp_path / "out", quiet=True) == 0


class TestCompare:
    def compare_config(self):
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

    def test_compare_writes_aligned_csv_and_verdicts(self, tmp_path):
        path = write_config(tmp_path, self.compare_config())
        assert main(["compare", path, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        with open(tmp_path / "out" / "compare.csv", newline="") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["iteration", "a_err_pos", "a_err_rot",
                          "b_err_pos", "b_err_rot"]
        verdicts = (tmp_path / "out" / "verdicts.txt").read_text()
        assert "a: converged" in verdicts and "b: converged" in verdicts

    def test_mode_compared_with_itself_is_identical(self, tmp_path):
        cfg = self.compare_config()
        cfg["controllers"][1] = dict(cfg["controllers"][0], name="a2")
        path = write_config(tmp_path, cfg)
        assert main(["compare", path, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        with open(tmp_path / "out" / "compare.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                assert row["a_err_pos"] == row["a2_err_pos"]
                assert row["a_err_rot"] == row["a2_err_rot"]

    def test_controller_name_csv_must_quote_round_trips(self, tmp_path):
        cfg = self.compare_config()
        cfg["controllers"][0]["name"] = 'a,"b"'
        path = write_config(tmp_path, cfg)
        assert main(["compare", path, "--out", str(tmp_path / "out"),
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
        cfg = self.compare_config()
        cfg["controllers"][0]["name"] = name
        assert [run.label for run in parse_scenario(cfg).runs] == [label, "b"]

    @pytest.mark.parametrize("name", [7, False, 0, ["a"]],
                             ids=["number", "false", "zero", "list"])
    def test_controller_name_must_be_a_string(self, tmp_path, capsys, name):
        # str() once named the controller "7", "False" or "['a']", and 0 or
        # false fell back to the mode name.
        cfg = self.compare_config()
        cfg["controllers"][0]["name"] = name
        path = write_config(tmp_path, cfg)
        assert main(["compare", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "config error: controllers[0]: name: must be a string" in err
        assert not (tmp_path / "out").exists()

    def test_compare_requires_two_controllers(self, tmp_path):
        cfg = self.compare_config()
        cfg["controllers"] = cfg["controllers"][:1]
        path = write_config(tmp_path, cfg)
        assert main(["compare", path, "--quiet"]) == 1

    def test_compare_rejects_other_kinds(self, tmp_path):
        path = write_config(tmp_path, minimal_controller_config())
        assert main(["compare", path, "--quiet"]) == 1


class TestHarvestScenario:
    def test_bundled_harvest_runs(self, tmp_path):
        assert main(["run", "harvest_default", "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert all(r["final_state"] == "Done" for r in summary["runs"])
        with open(tmp_path / "out" / "steps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        stages = [r["stage"] for r in rows if r["berry"] == "0"]
        for stage in ("InitialPlacement", "FinePositioning", "Grasp", "ReturnHome"):
            assert stage in stages

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
