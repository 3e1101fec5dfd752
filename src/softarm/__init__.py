"""Kinematics, redundancy-resolution control, and harvesting-workflow
simulation for a 3-section, 9-actuator pneumatic continuum arm.

Typical use:

    from softarm import (default_geometry, forward_kinematics,
                         ControllerConfig, ControllerMode,
                         gains_full_default, solve, Plant, PlantConfig)

    geom = default_geometry()
    cfg = ControllerConfig(geometry=geom, joint_limits=geom.joint_limits(),
                           mode=ControllerMode.FullThreeTask)
    trajectory = solve(q0, target_pose, gains_full_default(), cfg,
                       Plant(PlantConfig()))

Scenario files run from the command line: ``softarm run position_35pts``.
"""

from .controller import (
    ControllerConfig,
    ControllerMode,
    GainSchedule,
    JointLimitSchedule,
    TaskError,
    Trajectory,
    gains_full_default,
    gains_orientation_default,
    gains_position_default,
    jl_cost,
    jl_gradient,
    pose_error,
    solve,
    step_full,
)
from .geometry import (
    JointLimits,
    RobotGeometry,
    SectionGeometry,
    default_geometry,
    elongation_to_pressure,
)
from .jacobian import Jacobian6x9, jacobian, pinv
from .kinematics import Pose, forward_kinematics
from .plant import Plant, PlantConfig, PlantObservation
from .vision import (
    BerryTarget,
    DegenerateConfiguration,
    FrameRegistry,
    berry_to_base,
    build_registry,
    register_rigid,
    simulate_observation,
)
from .workflow import (
    HarvestLog,
    HarvestState,
    WorkflowConfig,
    run_harvest,
)

__version__ = "0.1.0"

__all__ = [
    "ControllerConfig", "ControllerMode", "GainSchedule", "JointLimitSchedule",
    "TaskError", "Trajectory", "gains_full_default", "gains_orientation_default",
    "gains_position_default", "jl_cost", "jl_gradient", "pose_error", "solve",
    "step_full",
    "JointLimits", "RobotGeometry", "SectionGeometry", "default_geometry",
    "elongation_to_pressure",
    "Jacobian6x9", "jacobian", "pinv",
    "Pose", "forward_kinematics",
    "Plant", "PlantConfig", "PlantObservation",
    "BerryTarget", "DegenerateConfiguration", "FrameRegistry",
    "berry_to_base", "build_registry", "register_rigid", "simulate_observation",
    "HarvestLog", "HarvestState", "WorkflowConfig", "run_harvest",
]
