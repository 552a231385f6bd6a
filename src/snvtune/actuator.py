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
    """Waveguide beam dimensions in meters: the bending profile reads these."""

    w_waveguide: float = 250e-9
    l_waveguide: float = 20e-6
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

    ``heat_shift_coeff`` is the resonance red shift in GHz per us of peak
    heat in excess of the safe operating point's, where a pulse's heat is
    its periodic-steady-state peak (a DC bias reaches ``relax_time_us``);
    ``relax_time_us`` is the thermal relaxation time constant of the device.
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


def _peak_heat(thermal: ThermalModel, pulse_us: float, cooldown_us: float) -> float:
    """Heat at the end of a pulse in the periodic steady state, in us.

    A first-order system with time constant tau, heated during each pulse
    and cooling in between, peaks at
    tau (1 - e^(-p/tau)) / (1 - e^(-(p+c)/tau)).  Written as
    tau / (1 + (1 - e^(-c/tau)) / (e^(p/tau) - 1)), each factor moves with one
    argument, so the peak rises with the pulse, falls with the cooldown and
    is tau, the DC limit, at zero cooldown.
    """
    tau = thermal.relax_time_us
    cooled = -math.expm1(-cooldown_us / tau)
    if cooled == 0.0:  # no cooldown, or one too short to cool at all
        return tau
    try:
        heated = math.expm1(pulse_us / tau)
    except OverflowError:  # a pulse that reaches the DC limit
        return tau
    return tau / (1.0 + cooled / heated) if heated > 0.0 else 0.0


def pulsed_resonance_offset(thermal: ThermalModel, pulse_us: float,
                            cooldown_us: float, v: float,
                            v_ref: float = 75.0) -> float:
    """Steady-state thermal red shift of the resonance in GHz (<= 0).

    Zero at or below the calibrated safe operating point
    (pulse <= max_pulse and cooldown >= cooldown_time); beyond it the offset
    grows with the peak heat in excess of the safe point's.  Leakage heating
    scales with the square of the applied voltage.
    """
    if not (0.0 < pulse_us < math.inf and 0.0 <= cooldown_us < math.inf):
        raise InputError("pulse duration must be finite and > 0, cooldown finite and >= 0")
    if not 0.0 <= v < math.inf:
        raise InputError("voltage must be finite and >= 0")
    try:
        heat = _peak_heat(thermal, pulse_us, cooldown_us) * (v / v_ref) ** 2
    except OverflowError:  # a float power raises where a product gives inf
        heat = math.inf
    safe = _peak_heat(thermal, thermal.max_pulse_us, thermal.cooldown_time_us)
    offset = -thermal.heat_shift_coeff * max(0.0, heat - safe) + 0.0
    if not math.isfinite(offset):
        raise RangeError(f"bias {v:g} V heats the device beyond the float range")
    return offset
