"""Strain-tuning and resonance-stabilization simulator for SnV- centers.

Models the chain from an applied bias voltage on a MEMS waveguide actuator,
through the strain response of embedded tin-vacancy color centers, to
simulated photoluminescence-excitation spectroscopy, and implements a
gate-modulated lock-in plus PID feedback protocol that stabilizes a
drifting optical resonance.
"""

__version__ = "0.1.0"

from .actuator import (ActuatorCalibration, DeviceGeometry, DeviceModel,
                       ThermalModel, bending_profile, hinge_point,
                       pull_in_guard, pulsed_resonance_offset, strain_at)
from .config import (RunConfig, load_config, load_default_config,
                     parse_config)
from .control import (CRCheckConfig, DriftProcess, FeedbackLog, LockInConfig,
                      PIDConfig, PIDState, StabilizationConfig, cr_check,
                      lockin_error, pid_update, run_stabilization,
                      summarize_log)
from .emitters import (EmitterModel, TuningCurve, level_response_at,
                       shift_from_voltage_chain)
from .errors import (ConfigError, ContractError, DomainError, InputError,
                     RangeError, SnvTuneError)
from .frames import (Orientation, OrientationClass, classify,
                     defect_rotation, lab_to_crystal, lab_to_defect,
                     rotate_strain)
from .spectroscopy import (FitResult, ScanRecord, cdf_and_window,
                           effective_linewidth, fit_line, simulate_ple)
from .strain import (Frame, IrreducibleStrain, LevelResponse, SpinOrbit,
                     StrainSusceptibilities, StrainTensor,
                     irreducible_components, level_response, splitting,
                     strain_matrix)
