"""Scenario configuration: the one reader of the scenario file format.

One JSON file fully describes a run: geometry, plant, controller(s) or
workflow, targets, seed. :func:`parse_scenario` checks the file and resolves
it into the runs it describes, so a config error surfaces before anything
runs. Each block parser names the keys it reads, through :func:`_read`, and
any other key is a config error. Every random draw derives from the scenario
seed so re-running a file reproduces its outputs byte for byte.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import (
    ControllerConfig,
    ControllerMode,
    GainSchedule,
    JointLimitSchedule,
)
from .geometry import (
    RobotGeometry,
    SectionGeometry,
    default_geometry,
    validate_geometry,
)
from .kinematics import Pose
from .plant import PlantConfig
from .rotations import rot_x, rot_y, rot_z, rotvec_to_matrix
from .vision import FrameRegistry, build_registry
from .workflow import WorkflowConfig


class ConfigError(Exception):
    """Schema violation or unresolvable reference in a scenario file."""


def _read(data, where: str, **convert) -> dict:
    """Each key of the block ``data`` passed through its converter in
    ``convert``.

    A key the block leaves out is not passed on, so the dataclass that owns
    its default applies. A key with no converter is a ConfigError, and a
    converter's TypeError, ValueError or OverflowError comes out as a
    ValueError that names the key. So does a float that is not finite:
    ``float`` reads the strings "nan" and "inf".
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where.removeprefix('scenario.')}: must be an object")
    for key in data:
        if key not in convert:
            known = ", ".join(sorted(convert))
            raise ConfigError(f"unknown key {key!r} in {where}; expected one of: {known}")
    given = {}
    for key, value in data.items():
        try:
            given[key] = convert[key](value)
            if isinstance(given[key], float) and not math.isfinite(given[key]):
                raise ValueError("must be finite")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return given


@contextmanager
def _block(where: str):
    """Report a value the block at ``where`` rejects, or one too large for
    it (numpy's uniform draw overflows on a jitter near 1e308), as a
    ConfigError."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where.removeprefix('scenario.')}: {exc}") from exc


def _as_given(value):
    return value


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError("must be a list")
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


def _vector(value, n: int = 3) -> np.ndarray:
    v = np.asarray(value, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"must be a {n}-vector")
    if not np.isfinite(v).all():
        raise ValueError("must be finite")
    return v


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

def geometry_from_dict(data) -> RobotGeometry:
    """Build a RobotGeometry from the config representation.

    Accepts the string "default" or {"sections": [{...} x3]} with keys
    radius, initial_length, plate_offset_length, plate_offset_angle,
    actuator_max_elongation (meters/radians).
    """
    if data == "default" or data is None:
        return default_geometry()
    if not isinstance(data, dict) or "sections" not in data:
        raise ConfigError("geometry must be 'default' or {'sections': [...]}")
    with _block("geometry"):
        sections = _read(data, "geometry", sections=_list)["sections"]
    section_keys = dict.fromkeys((f.name for f in fields(SectionGeometry)), float)
    geom_sections = []
    for i, sec in enumerate(sections):
        where = f"geometry.sections[{i}]"
        with _block(where):
            geom_sections.append(SectionGeometry(**_read(sec, where, **section_keys)))
    geom = RobotGeometry(sections=tuple(geom_sections))
    violations = validate_geometry(geom)
    if violations:
        raise ConfigError("invalid geometry: " + "; ".join(violations))
    return geom


def _parse_json(text: str, source: str):
    """JSON text with finite numbers only. Python's json reads NaN,
    Infinity and overflowing literals such as 1e999, and a NaN slips past
    range checks written as ``x < 0``."""
    def finite(literal):
        value = float(literal)
        if not math.isfinite(value):
            raise ConfigError(f"{source}: non-finite number {literal} is not allowed")
        return value

    try:
        return json.loads(text, parse_float=finite, parse_constant=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source} is not valid JSON: {exc}") from exc


def _geometry(value) -> RobotGeometry:
    """A scenario's geometry: "default", inline, or the path of a geometry
    JSON file (same schema as the inline form)."""
    if not isinstance(value, str) or value == "default":
        return geometry_from_dict(value)
    try:
        text = Path(value).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read geometry file {value}: {exc}") from exc
    return geometry_from_dict(_parse_json(text, f"geometry file {value}"))


# ---------------------------------------------------------------------------
# Gains / controller
# ---------------------------------------------------------------------------

def _joint_limit(data, where: str) -> JointLimitSchedule | None:
    if data is None:
        return None
    kwargs = _read(data, where, value_far=float, switch_threshold=float, metric=str)
    if "metric" in kwargs:
        kwargs["threshold_metric"] = kwargs.pop("metric")
    return JointLimitSchedule(**kwargs)


def _gains(data, where: str) -> GainSchedule:
    if not isinstance(data, dict) or "alpha" not in data:
        raise ConfigError(f"{where} must be an object with at least 'alpha'")
    return GainSchedule(**_read(
        data, where, alpha=float, gamma_position=float, gamma_orientation=float,
        joint_limit=lambda j: _joint_limit(j, f"{where}.joint_limit")))


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


def _controller(data, geom: RobotGeometry, where: str, **extra) -> tuple:
    """(ControllerConfig, GainSchedule) of a controller block, followed by
    the value (or None) of each key in ``extra``, the converters of the keys
    only the caller reads."""
    if not isinstance(data, dict) or "mode" not in data:
        raise ConfigError(f"{where} needs a 'mode'")
    with _block(where):
        kwargs = _read(data, where, mode=_mode, position_tolerance=float,
                       orientation_tolerance_deg=lambda deg: float(np.deg2rad(deg)),
                       max_iterations=_integer,
                       orientation_error_axes=_axes,
                       gains=lambda g: _gains(g, f"{where}.gains"), **extra)
        if "orientation_tolerance_deg" in kwargs:
            kwargs["orientation_tolerance"] = kwargs.pop("orientation_tolerance_deg")
        gains = kwargs.pop("gains") if "gains" in kwargs else GainSchedule(alpha=0.05)
        extras = [kwargs.pop(key, None) for key in extra]
        cfg = ControllerConfig(geometry=geom, joint_limits=geom.joint_limits(), **kwargs)
    return (cfg, gains, *extras)


# ---------------------------------------------------------------------------
# Plant
# ---------------------------------------------------------------------------

def plant_config_from_dict(data, geom: RobotGeometry, seed: int) -> PlantConfig:
    with _block("scenario.plant"):
        kwargs = _read({} if data is None else data, "scenario.plant", mismatch=float,
                       position_noise_std=float, rotation_noise_std=float,
                       filter_cutoff=float, dt=float)
        mismatch = kwargs.pop("mismatch", 0.0)
        if mismatch < 0:
            raise ValueError("mismatch must be non-negative")
        if mismatch > 0:
            kwargs["length_scale_error"] = np.random.default_rng(
                derive_seed(seed, 0xA11)).uniform(-mismatch, mismatch, 9)
        return PlantConfig(true_geometry=geom, rng_seed=seed, **kwargs)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

_AXES = {"x": rot_x, "y": rot_y, "z": rot_z}


def _axis(name):
    if name not in _AXES:
        raise ValueError(f"rotation axis must be one of x/y/z, got {name!r}")
    return _AXES[name]


def _relative_to(name):
    if name not in ("upright", "base"):
        raise ValueError(f"must be 'upright' or 'base', got {name!r}")
    return name


def _rotation(data, geom: RobotGeometry, where: str) -> np.ndarray:
    """Rotation spec: {"rotvec": [...]} (radians, absolute) or
    {"axis": "x", "angle_deg": a, "relative_to": "upright"|"base"}."""
    spec = _read(data, where, rotvec=_vector, axis=_axis, angle_deg=float,
                 relative_to=_relative_to)
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


def target_pose_from_dict(data, geom: RobotGeometry, where: str = "scenario.target") -> Pose:
    """A target is a position, a rotation, or both. Missing parts default
    to the straight-arm pose (ignored by single-task modes)."""
    if not isinstance(data, dict) or ("position" not in data and "rotation" not in data):
        raise ConfigError("target needs 'position' and/or 'rotation'")
    with _block(where):
        target = _read(data, where, position=_vector,
                       rotation=lambda r: _rotation(r, geom, f"{where}.rotation"))
    return Pose(target["position"] if "position" in target else np.zeros(3),
                target["rotation"] if "rotation" in target else upright_rotation(geom))


def initial_q_from_dict(data, geom: RobotGeometry, rng) -> np.ndarray:
    """Initial actuator state: explicit 9-vector or
    {"midpoint_jitter": j} drawn from the run RNG (keeps the start off the
    straight singularity, mirroring the perturbation rule)."""
    with _block("scenario.initial_q"):
        if data is not None and not isinstance(data, dict):
            return _vector(data, 9)
        jitter = _read(data or {}, "scenario.initial_q", midpoint_jitter=float).get(
            "midpoint_jitter", 1e-3)
        return geom.joint_limits().midpoint() + rng.uniform(-jitter, jitter, 9)


# ---------------------------------------------------------------------------
# Harvest blocks
# ---------------------------------------------------------------------------

def _window(value) -> tuple | None:
    if value is None:
        return None
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("must be [start, length]")
    return tuple(map(_integer, value))


def _berry(data, geom: RobotGeometry, where: str) -> tuple:
    """(position, approach rotation, C1 occlusion window or None) of one
    berry. An approach without a rotvec defaults to -90 deg about x,
    relative to upright."""
    def approach(spec):
        if isinstance(spec, dict) and "rotvec" not in spec:
            spec = {"axis": "x", "angle_deg": -90.0} | spec
        return _rotation(spec, geom, f"{where}.approach")

    with _block(where):
        berry = _read(data, where, position=_vector, approach=approach,
                      c1_occlusion_window=_window)
        if "position" not in berry:
            raise ValueError("needs a 'position'")
        return (berry["position"], berry["approach"] if "approach" in berry else approach({}),
                berry.get("c1_occlusion_window"))


def _workflow(data, controller: ControllerConfig) -> WorkflowConfig:
    """The harvest workflow; a stage's gains or iteration budget replace
    those of its default policy."""
    where = "scenario.workflow"
    with _block(where):
        kwargs = _read({} if data is None else data, where,
                       coarse_threshold=float, grasp_threshold=float,
                       observation_noise_std=float, home_iterations=_integer,
                       standoff_offset=_vector, home_q=lambda q: _vector(q, 9),
                       placement_gains=lambda g: _gains(g, f"{where}.placement_gains"),
                       placement_max_iterations=_integer,
                       fine_gains=lambda g: _gains(g, f"{where}.fine_gains"),
                       fine_max_iterations=_integer)
        policies = {"placement": {}, "fine": {}}
        for key in [key for key in kwargs if key.startswith(("placement_", "fine_"))]:
            stage, name = key.split("_", 1)
            policies[stage][name] = kwargs.pop(key)
        wf = WorkflowConfig(controller=controller, **kwargs)
        return replace(wf, **{stage: replace(getattr(wf, stage), **policy)
                              for stage, policy in policies.items()})


def _registry(data) -> dict:
    """The ``build_registry`` arguments a scenario gives."""
    with _block("scenario.registry"):
        return _read({} if data is None else data, "scenario.registry", cam1_position=_vector,
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
    if "controller" not in given:
        raise ConfigError("controller scenario needs a 'controller' block")
    controller = _controller(given["controller"], geom, "scenario.controller")
    if not given.get("targets"):  # no run reads the shared blocks; check them all the same
        initial_q_from_dict(given.get("initial_q"), geom, np.random.default_rng(seed))
        plant_config_from_dict(given.get("plant"), geom, seed)
    return [_solve(i, controller, target_pose_from_dict(target, geom, f"scenario.targets[{i}]"),
                   given, geom, seed, i)
            for i, target in enumerate(given.get("targets", []))]


def _compare_runs(given: dict, geom: RobotGeometry, seed: int) -> list:
    """One solve per compared controller, all from the seeds of target 0."""
    entries = given.get("controllers", [])
    if len(entries) < 2:
        raise ConfigError("compare scenario needs >= 2 entries in 'controllers'")
    if "target" not in given:
        raise ConfigError("compare scenario needs a single 'target'")
    desired = target_pose_from_dict(given["target"], geom, "scenario.target")
    runs = []
    for i, entry in enumerate(entries):
        *controller, name = _controller(entry, geom, f"scenario.controllers[{i}]",
                                        name=lambda name: None if name is None else _string(name))
        label = name or controller[0].mode.value
        if label in (run.label for run in runs):
            raise ConfigError(f"duplicate controller name {label!r}")
        runs.append(_solve(label, controller, desired, given, geom, seed, 0))
    return runs


def _harvest_runs(given: dict, geom: RobotGeometry, seed: int) -> list:
    """One run per berry. The stage policies set each stage's gains and
    budget; the shared controller config supplies the rest."""
    if not given.get("berries"):
        raise ConfigError("harvest scenario needs a 'berries' list")
    workflow = _workflow(given.get("workflow"), ControllerConfig(
        geometry=geom, joint_limits=geom.joint_limits(), mode=ControllerMode.FullThreeTask))
    layout = _registry(given.get("registry"))
    runs = []
    for i, data in enumerate(given["berries"]):
        berry, approach, window = _berry(data, geom, f"scenario.berries[{i}]")
        with _block("scenario.registry"):
            registry = build_registry(**({"cam1_target": berry} | layout))
        runs.append(Harvest(
            berry, approach,
            plant_config_from_dict(given.get("plant"), geom, derive_seed(seed, i, 0x91A)),
            registry,
            replace(workflow, c1_occlusion_window=window, rng_seed=derive_seed(seed, i))))
    return runs


#: Each kind's resolver and the top-level blocks it reads, on top of the
#: name, kind, seed, strict, geometry and plant that every kind takes. The
#: resolver parses each block; here a list is only checked to be one.
_KINDS = {
    "controller": (_controller_runs,
                   {"controller": _as_given, "initial_q": _as_given, "targets": _list}),
    "compare": (_compare_runs,
                {"controllers": _list, "initial_q": _as_given, "target": _as_given}),
    "harvest": (_harvest_runs,
                {"berries": _list, "registry": _as_given, "workflow": _as_given}),
}
VALID_KINDS = tuple(_KINDS)


def load_scenario_dict(path) -> dict:
    """Load a scenario JSON file; bare bundled names (e.g.
    'position_35pts') resolve to the packaged scenario directory."""
    p = Path(path)
    if not p.exists():
        name = p.name if p.suffix else f"{p.name}.json"
        candidate = resources.files("softarm").joinpath("scenarios").joinpath(name)
        if candidate.is_file():
            return _parse_json(candidate.read_text(encoding="utf-8"), str(candidate))
        raise ConfigError(f"scenario file not found: {path}")
    return _parse_json(p.read_text(encoding="utf-8"), str(path))


def parse_scenario(data, seed_override=None) -> Scenario:
    """Check a scenario dict and resolve it into its runs."""
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    for key in ("name", "kind"):
        if key not in data:
            raise ConfigError(f"scenario missing required key {key!r}")
    if data["kind"] not in _KINDS:
        raise ConfigError(f"kind must be one of {VALID_KINDS}, got {data['kind']!r}")
    resolve, blocks = _KINDS[data["kind"]]
    with _block("scenario"):
        given = _read(data, "scenario", name=_scenario_name, kind=str, seed=_integer, strict=_flag,
                      geometry=_geometry, plant=_as_given, **blocks)
    seed = given.get("seed", 0) if seed_override is None else int(seed_override)
    geom = given["geometry"] if "geometry" in given else default_geometry()
    return Scenario(name=given["name"], kind=given["kind"], seed=seed,
                    strict=given.get("strict", False), runs=resolve(given, geom, seed))
