"""Per-layer spans for the traced benchmark run.

The tracer wraps public softarm functions at every module binding that
refers to them (``softarm.controller.jacobian``, ``softarm.jacobian`` in the
package namespace, ...) and class methods on their class, in the
benchmark's own process. Each wrapper times its call and subtracts the time
of spans nested inside it, giving self time. ``uninstall`` puts every
original object back. A span whose functions no longer exist is reported
as missing instead of failing the run.
"""

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: span name -> functions it covers, as (module, attribute path).
SPANS = {
    "kinematics.fk": [("softarm.kinematics", "forward_kinematics")],
    "jacobian.jacobian": [("softarm.jacobian", "jacobian")],
    "jacobian.pinv": [("softarm.jacobian", "pinv")],
    "rotations.log": [("softarm.rotations", "matrix_to_rotvec")],
    "rotations.exp": [("softarm.rotations", "rotvec_to_matrix")],
    "controller.pose_error": [("softarm.controller", "pose_error")],
    "controller.step": [("softarm.controller", name) for name in (
        "step_conventional", "step_position_jl", "step_orientation_jl", "step_full")],
    "controller.solve": [("softarm.controller", "solve")],
    "plant.apply_command": [("softarm.plant", "Plant.apply_command")],
    "plant.true_pose": [("softarm.plant", "Plant.true_pose")],
    "vision.observe": [("softarm.vision", "simulate_observation")],
    "vision.to_base": [("softarm.vision", "berry_to_base"),
                       ("softarm.vision", "cam1_target_to_base")],
    "workflow.run_harvest": [("softarm.workflow", "run_harvest")],
    "cli.run_scenario": [("softarm.cli", "run_scenario")],
}

#: Counters fed from call arguments and results, where the work happens.
COUNTERS = ("plant_cmds", "infeasible_cmds", "observations", "c1_occluded",
            "to_base_calls", "to_base_held")


def _count(attr: str, args, result, counts: dict) -> None:
    if attr == "Plant.apply_command":
        counts["plant_cmds"] += 1
        counts["infeasible_cmds"] += int(np.any(result.infeasible_flags))
    elif attr == "simulate_observation":
        counts["observations"] += 1
        counts["c1_occluded"] += int(result.position_c1 is None)
    elif attr in ("berry_to_base", "cam1_target_to_base"):
        camera = "position_c2" if attr == "berry_to_base" else "position_c1"
        counts["to_base_calls"] += 1
        counts["to_base_held"] += int(getattr(args[0], camera) is None)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Installs span wrappers; not re-entrant across threads."""

    stats: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _stack: list = field(default_factory=list)

    def reset(self) -> None:
        self.stats = {name: SpanStats() for name in SPANS}
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, span: str, attr: str, func):
        stack, tracer = self._stack, self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = tracer.stats[span]
                entry.calls += 1
                entry.self_s += elapsed - children
            _count(attr, args, result, tracer.counts)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every span function in loaded softarm modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        self.missing = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "softarm" or name.startswith("softarm."))]
        for span, targets in SPANS.items():
            found = False
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                cls_name, _, method = attr.rpartition(".")
                if cls_name:
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, method, None) if owner else None
                if original is None:
                    continue
                found = True
                wrapper = self._wrap(span, attr, original)
                if cls_name:
                    self._patch(owner, method, original, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, original, wrapper)
            if not found:
                self.missing.append(span)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped binding, in reverse order of patching."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._stack.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
