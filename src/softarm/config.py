"""Scenario configuration: JSON schema parsing and object construction.

One JSON file fully describes a run: geometry, plant, controller(s) or
workflow, targets, seed. Every random draw derives from the scenario seed
so re-running a file reproduces its outputs byte for byte.
"""

import json
from dataclasses import dataclass, field, replace
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
from .workflow import WorkflowConfig


class ConfigError(Exception):
    """Schema violation or unresolvable reference in a scenario file."""


def _check_keys(data, schema, where: str) -> None:
    """Raise ConfigError for the first key of ``data`` that ``schema`` does
    not name, at any depth; values of another shape than the schema's are
    left to the block parsers."""
    if isinstance(schema, list) and isinstance(data, list):
        for i, item in enumerate(data):
            _check_keys(item, schema[0], f"{where}[{i}]")
    elif isinstance(schema, dict) and isinstance(data, dict):
        for key, value in data.items():
            if key not in schema:
                known = ", ".join(sorted(schema))
                raise ConfigError(f"unknown key {key!r} in {where}; expected one of: {known}")
            _check_keys(value, schema[key], f"{where}.{key}")


def _given(data: dict, convert, *keys) -> dict:
    """The ``keys`` that ``data`` gives, converted; a key it leaves out is
    not passed on, so the dataclass that owns its default applies."""
    return {key: convert(data[key]) for key in keys if key in data}


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

_GEOMETRY = {"sections": [{"radius": None, "initial_length": None,
                           "plate_offset_length": None, "plate_offset_angle": None,
                           "actuator_max_elongation": None}]}


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
    _check_keys(data, _GEOMETRY, "geometry")
    sections = []
    for i, sec in enumerate(data["sections"]):
        try:
            sections.append(SectionGeometry(**{k: float(v) for k, v in sec.items()}))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"geometry section {i}: {exc}") from exc
    geom = RobotGeometry(sections=tuple(sections))
    violations = validate_geometry(geom)
    if violations:
        raise ConfigError("invalid geometry: " + "; ".join(violations))
    return geom


def load_geometry(path) -> RobotGeometry:
    """Read a geometry JSON file (same schema as the inline form)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return geometry_from_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read geometry file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"geometry file {path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Gains / controller
# ---------------------------------------------------------------------------

def gains_from_dict(data) -> GainSchedule:
    if not isinstance(data, dict) or "alpha" not in data:
        raise ConfigError("gains must be an object with at least 'alpha'")
    kwargs = {}
    j = data.get("joint_limit")
    if j is not None:
        try:
            kwargs["joint_limit"] = JointLimitSchedule(
                value_far=float(j["value_far"]),
                switch_threshold=float(j["switch_threshold"]),
                **({"threshold_metric": j["metric"]} if "metric" in j else {}),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"joint_limit schedule: {exc}") from exc
    try:
        return GainSchedule(**kwargs, **_given(data, float, "alpha", "gamma_position",
                                               "gamma_orientation"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"gains: {exc}") from exc


def controller_from_dict(data, geom: RobotGeometry) -> tuple:
    """Returns (ControllerConfig, GainSchedule) from a controller block."""
    if not isinstance(data, dict) or "mode" not in data:
        raise ConfigError("controller block needs a 'mode'")
    try:
        mode = ControllerMode(data["mode"])
    except ValueError as exc:
        names = ", ".join(m.value for m in ControllerMode)
        raise ConfigError(f"unknown mode {data['mode']!r}; one of: {names}") from exc
    try:
        kwargs = _given(data, float, "position_tolerance") | _given(data, int, "max_iterations")
        if "orientation_tolerance_deg" in data:
            kwargs["orientation_tolerance"] = float(np.deg2rad(data["orientation_tolerance_deg"]))
        if data.get("orientation_error_axes") is not None:
            kwargs["orientation_error_axes"] = tuple(data["orientation_error_axes"])
        cfg = ControllerConfig(geometry=geom, joint_limits=geom.joint_limits(), mode=mode,
                               **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"controller: {exc}") from exc
    gains = gains_from_dict(data.get("gains", {"alpha": 0.05}))
    return cfg, gains


# ---------------------------------------------------------------------------
# Plant
# ---------------------------------------------------------------------------

def plant_config_from_dict(data, geom: RobotGeometry, seed: int) -> PlantConfig:
    data = data or {}
    try:
        kwargs = _given(data, float, "position_noise_std", "rotation_noise_std",
                        "filter_cutoff", "dt")
        mismatch = float(data.get("mismatch", 0.0))
        if mismatch > 0:
            kwargs["length_scale_error"] = np.random.default_rng(
                derive_seed(seed, 0xA11)).uniform(-mismatch, mismatch, 9)
        return PlantConfig(true_geometry=geom, rng_seed=seed, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"plant: {exc}") from exc


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

_AXES = {"x": rot_x, "y": rot_y, "z": rot_z}


def rotation_from_dict(data, geom: RobotGeometry) -> np.ndarray:
    """Rotation spec: {"rotvec": [...]} (radians, absolute) or
    {"axis": "x", "angle_deg": a, "relative_to": "upright"|"base"}."""
    if "rotvec" in data:
        return rotvec_to_matrix(np.asarray(data["rotvec"], dtype=float))
    axis = data.get("axis")
    if axis not in _AXES:
        raise ConfigError(f"rotation axis must be one of x/y/z, got {axis!r}")
    R = _AXES[axis](float(np.deg2rad(data.get("angle_deg", 0.0))))
    if data.get("relative_to", "upright") == "upright":
        R = R @ upright_rotation(geom)
    return R


def target_pose_from_dict(data, geom: RobotGeometry) -> Pose:
    """A target is a position, a rotation, or both. Missing parts default
    to the straight-arm pose (ignored by single-task modes)."""
    if not isinstance(data, dict) or ("position" not in data and "rotation" not in data):
        raise ConfigError("target needs 'position' and/or 'rotation'")
    try:
        position = np.asarray(data.get("position", [0.0, 0.0, 0.0]), dtype=float)
        if position.shape != (3,):
            raise ValueError("position must be a 3-vector")
        rotation = (rotation_from_dict(data["rotation"], geom) if "rotation" in data
                    else upright_rotation(geom))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"target: {exc}") from exc
    return Pose(position, rotation)


def initial_q_from_dict(data, geom: RobotGeometry, rng) -> np.ndarray:
    """Initial actuator state: explicit 9-vector or
    {"midpoint_jitter": j} drawn from the run RNG (keeps the start off the
    straight singularity, mirroring the perturbation rule)."""
    try:
        if data is None or isinstance(data, dict):
            jitter = float((data or {}).get("midpoint_jitter", 1e-3))
            return geom.joint_limits().midpoint() + rng.uniform(-jitter, jitter, 9)
        q = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial_q: {exc}") from exc
    if q.shape != (9,):
        raise ConfigError("initial_q must be a 9-vector or {'midpoint_jitter': j}")
    return q


def berries_from_dict(data, geom: RobotGeometry) -> list:
    """Each berry of a harvest scenario as (position, approach rotation, C1
    occlusion window or None). The approach defaults to -90 deg about x,
    relative to upright; every berry is checked before any runs."""
    if not data:
        raise ConfigError("harvest scenario needs a 'berries' list")
    berries = []
    for i, berry in enumerate(data):
        try:
            position = np.asarray(berry["position"], dtype=float)
            if position.shape != (3,):
                raise ValueError("position must be a 3-vector")
            approach = rotation_from_dict(
                {"axis": "x", "angle_deg": -90.0} | berry.get("approach", {}), geom)
            window = berry.get("c1_occlusion_window")
            window = tuple(window) if window else None
            if window is not None and len(window) != 2:
                raise ValueError("c1_occlusion_window must be [start, length]")
        except KeyError as exc:
            raise ConfigError(f"berries[{i}] needs a {exc} key") from exc
        except (ConfigError, TypeError, ValueError) as exc:
            raise ConfigError(f"berries[{i}]: {exc}") from exc
        berries.append((position, approach, window))
    return berries


# ---------------------------------------------------------------------------
# Scenario
# ---------------------------------------------------------------------------

VALID_KINDS = ("controller", "compare", "harvest")

# Keys each scenario block may hold. A nested dict is the schema of an
# object-valued key, a one-element list that of every item of a list, and
# None a value the block parsers check themselves.
_GAINS = {"alpha": None, "gamma_position": None, "gamma_orientation": None,
          "joint_limit": {"value_far": None, "switch_threshold": None, "metric": None}}
_CONTROLLER = {"mode": None, "position_tolerance": None, "orientation_tolerance_deg": None,
               "max_iterations": None, "orientation_error_axes": None, "gains": _GAINS}
_ROTATION = {"rotvec": None, "axis": None, "angle_deg": None, "relative_to": None}
_TARGET = {"position": None, "rotation": _ROTATION}
_SCENARIO = {
    "name": None, "kind": None, "seed": None, "strict": None, "repetitions": None,
    "geometry": None,  # checked by geometry_from_dict, which also reads files
    "plant": {"mismatch": None, "position_noise_std": None, "rotation_noise_std": None,
              "filter_cutoff": None, "dt": None},
    "controller": _CONTROLLER,
    "controllers": [_CONTROLLER | {"name": None}],
    "initial_q": {"midpoint_jitter": None},
    "targets": [_TARGET],
    "target": _TARGET,
    "berries": [{"position": None, "approach": _ROTATION, "c1_occlusion_window": None}],
    "registry": {"cam1_position": None, "cam1_target": None, "cam2_offset": None},
    "workflow": {"coarse_threshold": None, "grasp_threshold": None, "standoff_offset": None,
                 "home_q": None, "home_iterations": None, "observation_noise_std": None,
                 "placement_gains": _GAINS, "placement_max_iterations": None,
                 "fine_gains": _GAINS, "fine_max_iterations": None},
}


@dataclass
class Scenario:
    """Fully resolved scenario: everything a run needs, plus the raw dict
    for provenance."""

    name: str
    kind: str
    seed: int
    strict: bool
    geometry: RobotGeometry
    raw: dict = field(repr=False, default_factory=dict)


def load_scenario_dict(path) -> dict:
    """Load a scenario JSON file; bare bundled names (e.g.
    'position_35pts') resolve to the packaged scenario directory."""
    p = Path(path)
    if not p.exists():
        name = p.name if p.suffix else f"{p.name}.json"
        candidate = resources.files("softarm").joinpath("scenarios").joinpath(name)
        if candidate.is_file():
            return json.loads(candidate.read_text(encoding="utf-8"))
        raise ConfigError(f"scenario file not found: {path}")
    try:
        with open(p, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def parse_scenario(data, seed_override=None) -> Scenario:
    if not isinstance(data, dict):
        raise ConfigError("scenario must be a JSON object")
    _check_keys(data, _SCENARIO, "scenario")
    for key in ("name", "kind"):
        if key not in data:
            raise ConfigError(f"scenario missing required key {key!r}")
    if data["kind"] not in VALID_KINDS:
        raise ConfigError(f"kind must be one of {VALID_KINDS}, got {data['kind']!r}")
    geometry = data.get("geometry", "default")
    if isinstance(geometry, str) and geometry not in ("default",):
        geom = load_geometry(geometry)
    else:
        geom = geometry_from_dict(geometry)
    try:
        seed = int(seed_override if seed_override is not None else data.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed: {exc}") from exc
    return Scenario(
        name=str(data["name"]),
        kind=data["kind"],
        seed=seed,
        strict=bool(data.get("strict", False)),
        geometry=geom,
        raw=data,
    )


def workflow_from_dict(data, base_cfg: ControllerConfig) -> WorkflowConfig:
    data = data or {}
    try:
        wf = WorkflowConfig(
            controller=base_cfg,
            **_given(data, float, "coarse_threshold", "grasp_threshold",
                     "observation_noise_std"),
            **_given(data, int, "home_iterations"),
            **_given(data, lambda v: np.asarray(v, dtype=float), "standoff_offset", "home_q"))
        policies = {}
        for stage in ("placement", "fine"):
            policy = getattr(wf, stage)
            if f"{stage}_gains" in data:
                policy = replace(policy, gains=gains_from_dict(data[f"{stage}_gains"]))
            if f"{stage}_max_iterations" in data:
                policy = replace(policy, max_iterations=int(data[f"{stage}_max_iterations"]))
            policies[stage] = policy
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"workflow: {exc}") from exc
    return replace(wf, **policies)
