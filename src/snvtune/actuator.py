"""Parametric electromechanical actuator model for the suspended waveguide.

The full finite-element treatment of the device is replaced by a calibrated
Euler-Bernoulli clamped-guided bending profile: the axial surface strain
follows the beam curvature, changes sign across the neutral axis and through
the mid-span inflection point, and is pinned to a single calibration anchor
(peak eps_xx at a reference voltage).  The electrostatic drive force scales
as V^2, so every strain component is exactly quadratic in the bias voltage.

A first-order thermal relaxation model covers pulsed-bias operation: heat
accumulates during the voltage pulse and decays between pulses; the offset
is zero at and below the calibrated safe operating point (50 us pulses,
1500 us cool-down) and strictly negative (red shift) beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InputError, RangeError
from .strain import Frame, StrainTensor

Position = tuple[float, float, float]


@dataclass(frozen=True)
class DeviceGeometry:
    """Device geometry, all lengths in meters."""

    w_spring: float = 200e-9
    w_waveguide: float = 250e-9
    w_support: float = 250e-9
    w_tp: float = 50e-9
    d_support: float = 2e-6
    l_waveguide: float = 20e-6
    l_tp: float = 15e-6
    gap_height: float = 2.5e-6
    h_waveguide: float = 160e-9

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if not getattr(self, name) > 0.0:
                raise InputError(f"geometry length {name} must be > 0")


@dataclass(frozen=True)
class ActuatorCalibration:
    """Voltage-to-strain calibration of the actuator.

    ``eps_ref`` is the peak axial surface strain reached at ``v_ref``; the
    ``ratio_*`` entries give the remaining tensor components as fractions of
    the local eps_xx (surface-midline default: Poisson-contracted normal
    components, no shear).
    """

    v_ref: float = 75.0
    eps_ref: float = 7e-5
    v_max: float = 80.0
    ratio_yy: float = -0.2
    ratio_zz: float = -0.2
    ratio_yz: float = 0.0
    ratio_zx: float = 0.0
    ratio_xy: float = 0.0

    def __post_init__(self):
        if not self.eps_ref > 0.0:
            raise InputError("eps_ref must be > 0")
        if not (self.v_ref > 0.0 and self.v_max > 0.0):
            raise InputError("v_ref and v_max must be > 0")
        for name in ("ratio_yy", "ratio_zz", "ratio_yz", "ratio_zx", "ratio_xy"):
            if abs(getattr(self, name)) > 1.0:
                raise InputError(f"{name} must satisfy |ratio| <= 1")


@dataclass(frozen=True)
class ThermalModel:
    """Pulsed-bias heating model parameters.

    ``heat_shift_coeff`` converts excess steady-state heat (us units) into a
    resonance red shift in GHz; ``relax_time_us`` is the thermal relaxation
    time constant of the device.
    """

    cooldown_time_us: float = 1500.0
    max_pulse_us: float = 50.0
    heat_shift_coeff: float = 2e-3
    relax_time_us: float = 1000.0

    def __post_init__(self):
        if not (self.cooldown_time_us > 0.0 and self.max_pulse_us > 0.0):
            raise InputError("thermal thresholds must be > 0")
        if not (self.heat_shift_coeff >= 0.0 and self.relax_time_us > 0.0):
            raise InputError("invalid thermal parameters")


@dataclass(frozen=True)
class DeviceModel:
    """Immutable bundle of geometry, calibration and thermal response."""

    geometry: DeviceGeometry = DeviceGeometry()
    calibration: ActuatorCalibration = ActuatorCalibration()
    thermal: ThermalModel = ThermalModel()


def hinge_point(geometry: DeviceGeometry, depth: float = 0.0) -> Position:
    """Surface point of maximal bending strain, ``depth`` meters below it."""
    return (0.0, 0.0, 0.5 * geometry.h_waveguide - depth)


def _check_position(geometry: DeviceGeometry, position: Position) -> Position:
    x, y, z = (float(v) for v in position)
    if not (0.0 <= x <= geometry.l_waveguide):
        raise DomainError(f"x = {x:.3e} m is outside the beam [0, {geometry.l_waveguide:.3e}]")
    if abs(y) > 0.5 * geometry.w_waveguide:
        raise DomainError(f"y = {y:.3e} m is outside the beam width")
    if abs(z) > 0.5 * geometry.h_waveguide:
        raise DomainError(f"z = {z:.3e} m is outside the beam thickness")
    return (x, y, z)


def bending_profile(geometry: DeviceGeometry, position: Position) -> float:
    """Normalized bending-strain shape g(x, z) in [-1, 1].

    Clamped-guided Euler-Bernoulli deflection w(x) = x^2 (3L - 2x) gives a
    curvature linear in x, w'' proportional to (L - 2x): maximal at the
    clamped hinge, zero at mid-span, sign-reversed at the guided end.  The
    bending strain is curvature times the distance z from the neutral axis
    (mid-height), normalized so the surface value at the hinge is 1.
    """
    x, _, z = _check_position(geometry, position)
    length = geometry.l_waveguide
    half_h = 0.5 * geometry.h_waveguide
    return ((length - 2.0 * x) / length) * (z / half_h)


def strain_at(device: DeviceModel, position: Position, v: float) -> StrainTensor:
    """Lab-frame strain tensor at ``position`` for bias voltage ``v``.

    eps_xx = eps_ref * (V / v_ref)^2 * g(position); the remaining components
    follow the calibrated tensor ratios.  V = 0 gives the zero tensor.
    """
    cal = device.calibration
    if not (0.0 <= v <= cal.v_max):
        raise RangeError(f"bias voltage {v:.3f} V outside [0, {cal.v_max:.3f}] V")
    e_xx = cal.eps_ref * (v / cal.v_ref) ** 2 * bending_profile(device.geometry, position)
    return StrainTensor(
        e_xx=e_xx,
        e_yy=cal.ratio_yy * e_xx,
        e_zz=cal.ratio_zz * e_xx,
        e_yz=cal.ratio_yz * e_xx,
        e_zx=cal.ratio_zx * e_xx,
        e_xy=cal.ratio_xy * e_xx,
        frame=Frame.LAB,
    )


def _steady_state_heat(thermal: ThermalModel, pulse_us: float, cooldown_us: float) -> float:
    """Fixed point of the heat recurrence T -> (T + pulse) * exp(-period/tau).

    Each cycle deposits heat proportional to the pulse duration and relaxes
    over the full period; the geometric series converges to
    pulse * alpha / (1 - alpha) with alpha = exp(-(pulse+cooldown)/tau).
    """
    alpha = math.exp(-(pulse_us + cooldown_us) / thermal.relax_time_us)
    return pulse_us * alpha / (1.0 - alpha)


def pulsed_resonance_offset(thermal: ThermalModel, pulse_us: float,
                            cooldown_us: float, v: float,
                            v_ref: float = 75.0) -> float:
    """Steady-state thermal red shift of the resonance in GHz (<= 0).

    Zero at or below the calibrated safe operating point
    (pulse <= max_pulse and cooldown >= cooldown_time); beyond it the offset
    grows with the excess steady-state heat of the relaxation recurrence.
    Leakage heating scales with the square of the applied voltage.
    """
    if not (0.0 < pulse_us < math.inf and cooldown_us >= 0.0):
        raise InputError("pulse duration must be finite and > 0, cooldown >= 0")
    if not 0.0 <= v < math.inf:
        raise InputError("voltage must be finite and >= 0")
    heat = _steady_state_heat(thermal, pulse_us, cooldown_us) * (v / v_ref) ** 2
    safe = _steady_state_heat(thermal, thermal.max_pulse_us, thermal.cooldown_time_us)
    excess = max(0.0, heat - safe)
    return -thermal.heat_shift_coeff * excess + 0.0
