"""Fault-tolerant trajectory tracking for an over-actuated planar marine
vehicle: backstepping control, weighted pseudo-inverse thrust allocation,
tracking-error fault detection/identification, and online weight
reconfiguration, with a deterministic fault-injection scenario runner."""

from .allocation import AllocationResult, achieved_wrench, allocate, pseudo_inverse
from .controller import (ControllerGains, ReferenceSample, TrackingErrors,
                         control_law, lyapunov_value, stabilization_derivative,
                         stabilization_function, tracking_errors)
from .fdi import (FdiConfig, FdiEngine, FdiState, detection_threshold,
                  identify_fault, predict_sign_pattern, reconfigure_step,
                  residual)
from .scenario import (ScenarioError, list_presets, load_scenario,
                       scenario_from_dict, validate_scenario)
from .simulation import (COLUMNS, FaultEvent, FaultSchedule, Scenario,
                         SimResult, Simulation)
from .trajectory import Segment, TrajectoryPlan
from .vehicle import (ThrusterBank, ThrusterGeometry, VehicleParams,
                      VehicleState, config_matrix, dynamics_rhs, eval_fv,
                      kinematics_rhs, rotation_matrix, wrap_angle)

__version__ = "0.1.0"
