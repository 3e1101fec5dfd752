"""Scenario configuration: the one reader of the scenario file format.

One JSON file fully describes a run: geometry, plant, controller(s) or
workflow, targets, seed. :func:`parse_scenario` checks the file and resolves
it into the runs it describes, so a config error surfaces before anything
runs. Each block parser names the keys it reads, through :func:`_read`, and
any other key is a config error. An error names its place by the chain of
keys and list items above it, ``controller: gains: alpha: must be a
number``, built as it travels up. Every random draw derives from the
scenario seed so re-running a file reproduces its outputs byte for byte.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import (
    TRACKS,
    ControllerConfig,
    ControllerMode,
    GainSchedule,
    JointLimitSchedule,
)
from .geometry import RobotGeometry, SectionGeometry, default_geometry
from .kinematics import Pose
from .plant import PlantConfig
from .rotations import rot_x, rot_y, rot_z, rotvec_to_matrix
from .vision import FrameRegistry, build_registry
from .workflow import WorkflowConfig


class ConfigError(Exception):
    """Schema violation or unresolvable reference in a scenario file."""


#: What a converter or a dataclass raises on a value it rejects, an
#: overflow included (numpy's uniform draw on a jitter near 1e308).
_REJECTED = (ConfigError, TypeError, ValueError, OverflowError)


@contextmanager
def _at(place: str):
    """Report an error raised inside as a ConfigError at ``place``, a key or
    list item put in front of the place the error already names."""
    try:
        yield
    except _REJECTED as exc:
        raise ConfigError(f"{place}: {exc}") from exc


def _read(data, required=(), **convert) -> dict:
    """Each key of the block ``data`` passed through its converter in
    ``convert``; each key in ``required`` must be given.

    A key the block leaves out is not passed on, so the dataclass that owns
    its default applies. A key with no converter is a ConfigError, and so
    is a converter's error, at that key: :func:`_at` written out, since a
    context manager per key made a parse 10-20 % slower.
    """
    if not isinstance(data, dict):
        raise ConfigError("must be an object")
    for key in data:
        if key not in convert:
            known = ", ".join(sorted(convert))
            raise ConfigError(f"unknown key {key!r}; expected one of: {known}")
    for key in required:
        if key not in data:
            raise ConfigError(f"needs {key!r}")
    given = {}
    for key, value in data.items():
        try:
            given[key] = convert[key](value)
        except _REJECTED as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return given


def _as_given(value):
    return value


def _list(value, least: int = 0) -> list:
    if not isinstance(value, list):
        raise ValueError("must be a list")
    if len(value) < least:
        raise ValueError(f"needs {least} or more entries")
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise ValueError("must be a string")
    return value


def _scenario_name(value) -> str:
    """A scenario name, which also names the default output directory
    out/<name>: so one directory, not out/ itself or a path leading out."""
    name = _string(value)
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"{name!r} must name one directory: not '', '.' or '..', "
                         "and no path separator")
    return name


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("must be an integer")
    return value


def _number(value) -> float:
    """A JSON number, never a bool, and finite. ``float`` would read true as
    1.0 and the strings "0.05", "nan" and "inf"."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _vector(value, n: int = 3) -> np.ndarray:
    if not isinstance(value, list) or len(value) != n:
        raise ValueError(f"must be a {n}-vector")
    return np.array([_number(v) for v in value])


def derive_seed(*keys) -> int:
    """Stable sub-seed from the scenario seed and integer keys."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def upright_rotation(geom: RobotGeometry) -> np.ndarray:
    """End-effector rotation of the straight arm (plate twists only)."""
    total = sum(sec.plate_offset_angle for sec in geom.sections)
    return rot_z(total)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def _read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; a path that is not a readable
    file, or bytes that are not UTF-8, are a config error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _parse_json(text: str, source: str):
    """JSON text with finite numbers and unique object keys only. Python's
    json reads NaN, Infinity and overflowing literals such as 1e999, and a
    NaN slips past range checks written as ``x < 0``; it also keeps the
    last of two equal keys."""
    def finite(literal):
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"{source}: non-finite number {literal} is not allowed")
        return value

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"{source}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, parse_float=finite, parse_constant=finite,
                          object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from exc


def geometry_from_dict(data) -> RobotGeometry:
    """A scenario's geometry: "default" or absent (None), the inline form
    {"sections": [{...} x3]} with keys radius, initial_length,
    plate_offset_length, plate_offset_angle, actuator_max_elongation
    (meters/radians), or the path of a geometry JSON file holding either.
    An error in the file's contents is at ``geometry``; one that keeps the
    file from being read as JSON names the file."""
    if isinstance(data, str) and data != "default":
        data = _parse_json(_read_text(data, "geometry file"), f"geometry file {data}")
    if data == "default" or data is None:
        return default_geometry()
    section_keys = dict.fromkeys((f.name for f in fields(SectionGeometry)), _number)
    with _at("geometry"):
        geom_sections = []
        for i, sec in enumerate(_read(data, ("sections",), sections=_list)["sections"]):
            with _at(f"sections[{i}]"):
                geom_sections.append(SectionGeometry(**_read(sec, ("radius",), **section_keys)))
        return RobotGeometry(sections=geom_sections)


# ---------------------------------------------------------------------------
# Gains / controller
# ---------------------------------------------------------------------------

def _joint_limit(data) -> JointLimitSchedule | None:
    if data is None:
        return None
    return JointLimitSchedule(**_read(data, ("value_far", "switch_threshold"),
                                      value_far=_number, switch_threshold=_number,
                                      metric=_string))


def _gains(data) -> GainSchedule:
    return GainSchedule(**_read(data, ("alpha",), alpha=_number, gamma_position=_number,
                                gamma_orientation=_number, joint_limit=_joint_limit))


def _mode(name) -> ControllerMode:
    try:
        return ControllerMode(name)
    except ValueError:
        names = ", ".join(m.value for m in ControllerMode)
        raise ValueError(f"unknown mode {name!r}; one of: {names}") from None


def _axes(value) -> tuple | None:
    """Rotation-vector components the orientation tolerance reads, or None
    for all three; ControllerConfig checks that they are axes."""
    return None if value is None else tuple(map(_integer, _list(value)))


def _controller(data, geom: RobotGeometry, **extra) -> tuple:
    """(ControllerConfig, GainSchedule) of a controller block, followed by
    the value (or None) of each key in ``extra``, the converters of the keys
    only the caller reads."""
    kwargs = _read(data, ("mode", "gains"), mode=_mode, position_tolerance=_number,
                   orientation_tolerance_deg=lambda deg: float(np.deg2rad(_number(deg))),
                   max_iterations=_integer, orientation_error_axes=_axes, gains=_gains, **extra)
    if "orientation_tolerance_deg" in kwargs:
        kwargs["orientation_tolerance"] = kwargs.pop("orientation_tolerance_deg")
    gains = kwargs.pop("gains")
    extras = [kwargs.pop(key, None) for key in extra]
    cfg = ControllerConfig(geometry=geom, joint_limits=geom.joint_limits(), **kwargs)
    return (cfg, gains, *extras)


# ---------------------------------------------------------------------------
# Plant
# ---------------------------------------------------------------------------

def plant_config_from_dict(data, geom: RobotGeometry, seed: int) -> PlantConfig:
    with _at("plant"):
        kwargs = _read({} if data is None else data, mismatch=_number,
                       position_noise_std=_number, rotation_noise_std=_number,
                       filter_cutoff=_number, dt=_number)
        mismatch = kwargs.pop("mismatch", 0.0)
        if not 0 <= mismatch < 1:  # so each true length scale 1 + e, |e| <= mismatch, is > 0
            raise ValueError(f"mismatch: must be in [0, 1), got {mismatch}")
        if mismatch > 0:
            kwargs["length_scale_error"] = np.random.default_rng(
                derive_seed(seed, 0xA11)).uniform(-mismatch, mismatch, 9)
        return PlantConfig(true_geometry=geom, rng_seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

_AXES = {"x": rot_x, "y": rot_y, "z": rot_z}


def _axis(name):
    if not isinstance(name, str) or name not in _AXES:  # a list is unhashable
        raise ValueError(f"rotation axis must be one of x/y/z, got {name!r}")
    return _AXES[name]


def _relative_to(name):
    if name not in ("upright", "base"):
        raise ValueError(f"must be 'upright' or 'base', got {name!r}")
    return name


def _rotation(data, geom: RobotGeometry) -> np.ndarray:
    """Rotation spec: {"rotvec": [...]} (radians, absolute) or
    {"axis": "x", "angle_deg": a, "relative_to": "upright"|"base"}."""
    spec = _read(data, rotvec=_vector, axis=_axis, angle_deg=_number, relative_to=_relative_to)
    if "rotvec" in spec:
        for key in ("axis", "angle_deg", "relative_to"):
            if key in spec:
                raise ValueError(f"{key!r} cannot be combined with an absolute 'rotvec'")
        return rotvec_to_matrix(spec["rotvec"])
    if "axis" not in spec:
        raise ValueError("needs a 'rotvec' or an 'axis'")
    R = spec["axis"](float(np.deg2rad(spec.get("angle_deg", 0.0))))
    if spec.get("relative_to", "upright") == "upright":
        R = R @ upright_rotation(geom)
    return R


def target_pose_from_dict(data, geom: RobotGeometry) -> Pose:
    """A target is a position, a rotation, or both. A missing position reads
    as the base origin and a missing rotation as the upright one: values for
    a part no task of the mode tracks (see :func:`_check_tracked`)."""
    target = _read(data, position=_vector, rotation=lambda r: _rotation(r, geom))
    if not target:
        raise ConfigError("needs 'position' and/or 'rotation'")
    return Pose(target["position"] if "position" in target else np.zeros(3),
                target["rotation"] if "rotation" in target else upright_rotation(geom))


def _check_tracked(data: dict, controller: ControllerConfig) -> None:
    """The target ``data`` gives each part its controller's mode tracks."""
    for part, tracked in zip(("position", "rotation"), TRACKS[controller.mode]):
        if tracked and part not in data:
            raise ConfigError(f"{controller.mode.value} tracks the {part}, "
                              "which the target does not give")


def initial_q_from_dict(data, geom: RobotGeometry, rng) -> np.ndarray:
    """Initial actuator state: explicit 9-vector or
    {"midpoint_jitter": j}, the joint-limit midpoint plus a uniform jitter
    drawn from the run RNG."""
    with _at("initial_q"):
        if data is not None and not isinstance(data, dict):
            return _vector(data, 9)
        jitter = _read(data or {}, midpoint_jitter=_number).get("midpoint_jitter", 1e-3)
        if jitter < 0:
            raise ValueError(f"midpoint_jitter: must be non-negative, got {jitter}")
        return geom.joint_limits().midpoint() + rng.uniform(-jitter, jitter, 9)


# ---------------------------------------------------------------------------
# Harvest blocks
# ---------------------------------------------------------------------------

def _window(value) -> tuple | None:
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("must be [start, length]")
    start, length = map(_integer, value)
    if start < 0 or length < 1:
        raise ValueError("start must be non-negative and length positive")
    return start, length


def _berry(data, geom: RobotGeometry) -> tuple:
    """(position, approach rotation, C1 occlusion window or None) of one
    berry. An approach without a rotvec defaults to -90 deg about x,
    relative to upright."""
    def approach(spec):
        if isinstance(spec, dict) and "rotvec" not in spec:
            spec = {"axis": "x", "angle_deg": -90.0} | spec
        return _rotation(spec, geom)

    berry = _read(data, ("position",), position=_vector, approach=approach,
                  c1_occlusion_window=_window)
    return (berry["position"], berry["approach"] if "approach" in berry else approach({}),
            berry.get("c1_occlusion_window"))


def _workflow(data, controller: ControllerConfig) -> WorkflowConfig:
    """The harvest workflow a scenario's ``workflow`` block describes."""
    with _at("workflow"):
        return WorkflowConfig(controller=controller, **_read(
            {} if data is None else data, coarse_threshold=_number, grasp_threshold=_number,
            observation_noise_std=_number, home_iterations=_integer,
            standoff_offset=_vector, home_q=lambda q: _vector(q, 9),
            placement_gains=_gains, placement_max_iterations=_integer,
            fine_gains=_gains, fine_max_iterations=_integer))


def _registry(data) -> dict:
    """The ``build_registry`` arguments a scenario gives."""
    with _at("registry"):
        return _read({} if data is None else data, cam1_position=_vector,
                     cam1_target=_vector, cam2_offset=_vector)


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Solve:
    """One closed-loop solve: a controller scenario's target or a compare
    scenario's controller."""

    label: int | str  # the target's index, or the compared controller's name
    controller: ControllerConfig
    gains: GainSchedule
    q0: np.ndarray
    desired: Pose
    plant: PlantConfig


@dataclass(frozen=True)
class Harvest:
    """One berry of a harvest scenario; ``workflow`` carries the berry's
    occlusion window and rng seed."""

    berry: np.ndarray
    approach: np.ndarray
    plant: PlantConfig
    registry: FrameRegistry
    workflow: WorkflowConfig


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario file: every run it describes, resolved, in order."""

    name: str
    kind: str
    seed: int
    strict: bool
    runs: list


def _solve(label, controller: tuple, desired: Pose, given: dict, geom: RobotGeometry,
           seed: int, i: int) -> Solve:
    """A solve whose initial state and plant derive from the seeds of
    target ``i``."""
    q0 = initial_q_from_dict(given.get("initial_q"), geom,
                             np.random.default_rng(derive_seed(seed, i, 0)))
    plant = plant_config_from_dict(given.get("plant"), geom, derive_seed(seed, i, 0, 0x91A))
    return Solve(label, *controller, q0, desired, plant)


def _controller_runs(given: dict, geom: RobotGeometry, seed: int) -> list:
    with _at("controller"):
        controller = _controller(given["controller"], geom)
    if not given.get("targets"):  # no run reads the shared blocks; check them all the same
        _solve(None, controller, None, given, geom, seed, 0)
    runs = []
    for i, target in enumerate(given.get("targets", [])):
        with _at(f"targets[{i}]"):
            desired = target_pose_from_dict(target, geom)
            _check_tracked(target, controller[0])
        runs.append(_solve(i, controller, desired, given, geom, seed, i))
    return runs


def _compare_runs(given: dict, geom: RobotGeometry, seed: int) -> list:
    """One solve per compared controller, all from the seeds of target 0."""
    with _at("target"):
        desired = target_pose_from_dict(given["target"], geom)
    runs = []
    for i, entry in enumerate(given["controllers"]):
        with _at(f"controllers[{i}]"):
            *controller, name = _controller(
                entry, geom, name=lambda name: None if name is None else _string(name))
            label = name or controller[0].mode.value
            if label in (run.label for run in runs):
                raise ConfigError(f"duplicate controller name {label!r}")
        with _at("target"):
            _check_tracked(given["target"], controller[0])
        runs.append(_solve(label, controller, desired, given, geom, seed, 0))
    return runs


def _harvest_runs(given: dict, geom: RobotGeometry, seed: int) -> list:
    """One run per berry. The workflow sets each stage's gains and budget;
    the shared controller config supplies the rest."""
    workflow = _workflow(given.get("workflow"), ControllerConfig(
        geometry=geom, joint_limits=geom.joint_limits(), mode=ControllerMode.FullThreeTask))
    layout = _registry(given.get("registry"))
    runs = []
    for i, data in enumerate(given["berries"]):
        with _at(f"berries[{i}]"):
            berry, approach, window = _berry(data, geom)
        with _at("registry"):
            registry = build_registry(**({"cam1_target": berry} | layout))
        runs.append(Harvest(
            berry, approach,
            plant_config_from_dict(given.get("plant"), geom, derive_seed(seed, i, 0x91A)),
            registry,
            replace(workflow, c1_occlusion_window=window, rng_seed=derive_seed(seed, i))))
    return runs


#: Each kind's resolver, the top-level blocks it needs and those it reads,
#: on top of the name, kind, seed, strict, geometry and plant that every
#: kind takes. The resolver parses each block; here a list is only checked
#: to be one, with enough entries.
_KINDS = {
    "controller": (_controller_runs, ("controller",),
                   {"controller": _as_given, "initial_q": _as_given, "targets": _list}),
    "compare": (_compare_runs, ("controllers", "target"),
                {"controllers": partial(_list, least=2), "initial_q": _as_given,
                 "target": _as_given}),
    "harvest": (_harvest_runs, ("berries",),
                {"berries": partial(_list, least=1), "registry": _as_given,
                 "workflow": _as_given}),
}


def load_scenario_dict(path) -> dict:
    """Load a scenario JSON file. A bare bundled name (no directory part,
    e.g. 'position_35pts') resolves to the packaged scenario directory
    unless a regular file of that name exists."""
    p = Path(path)
    if p.name == str(path) and not p.is_file():
        name = p.name if p.suffix else f"{p.name}.json"
        candidate = resources.files("softarm").joinpath("scenarios").joinpath(name)
        if candidate.is_file():
            return _parse_json(candidate.read_text(encoding="utf-8"), str(candidate))
    if not p.exists():
        raise ConfigError(f"scenario file not found: {path}")
    return _parse_json(_read_text(p, "scenario file"), str(path))


def parse_scenario(data, seed_override=None) -> Scenario:
    """Check a scenario dict and resolve it into its runs."""
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list is unhashable
        raise ConfigError(f"kind: must be one of {tuple(_KINDS)}, got {kind!r}")
    resolve, required, blocks = _KINDS[kind]
    given = _read(data, ("name", *required), name=_scenario_name, kind=_as_given, seed=_integer,
                  strict=_flag, geometry=_as_given, plant=_as_given, **blocks)
    seed = given.get("seed", 0) if seed_override is None else int(seed_override)
    if seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {seed}")
    geom = geometry_from_dict(given.get("geometry"))
    return Scenario(name=given["name"], kind=given["kind"], seed=seed,
                    strict=given.get("strict", False), runs=resolve(given, geom, seed))
