"""Emitter description and the voltage-to-frequency composition chain.

Connecting the pieces: a bias voltage produces a lab-frame strain tensor at
the emitter position (actuator), which is rotated into the defect frame
(frames), projected onto the irreducible basis per manifold and turned into
level shifts (strain).  The observable tracked everywhere downstream is the
C-transition frequency relative to its unstrained value.

``TuningCurve`` factors the chain for a fixed emitter and device into three
scalars (the linearity of the strain pipeline makes this exact), so the
feedback loop can evaluate shifts at kilohertz rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .actuator import DeviceModel, Position, bending_profile, strain_at
from .errors import InputError
from .frames import Orientation, lab_to_defect, rotate_strain
from .strain import (Frame, IrreducibleStrain, LevelResponse, SpinOrbit,
                     StrainSusceptibilities, irreducible_components,
                     level_response)


@dataclass(frozen=True)
class EmitterModel:
    """One color center: placement, optical line and strain response.

    ``nu0`` is the unstrained C-transition frequency in GHz; scan detunings
    are measured relative to it.  ``position`` is the location in beam
    coordinates, or None for a bulk reference emitter that feels no actuator
    strain.  ``fwhm0_mhz`` is the intrinsic Lorentzian width and
    ``broadening_slope`` the linear linewidth increase in MHz per GHz of
    strain-induced shift.
    """

    name: str
    orientation: Orientation
    position: Position | None
    nu0: float
    fwhm0_mhz: float = 150.0
    peak_rate: float = 20000.0
    background_rate: float = 200.0
    susc_g: StrainSusceptibilities = StrainSusceptibilities(0.0, 0.0, 0.0, 0.0)
    susc_u: StrainSusceptibilities = StrainSusceptibilities(0.0, 0.0, 0.0, 0.0)
    spin_orbit: SpinOrbit = SpinOrbit(0.0, 0.0)
    broadening_slope: float = 3.42

    def __post_init__(self):
        if not self.fwhm0_mhz > 0.0:
            raise InputError("fwhm0_mhz must be > 0")
        if self.peak_rate < 0.0 or self.background_rate < 0.0:
            raise InputError("rates must be >= 0")
        if self.broadening_slope < 0.0:
            raise InputError("broadening_slope must be >= 0")

    @property
    def is_bulk(self) -> bool:
        return self.position is None

    def nu_zpl0(self) -> float:
        """Zero-strain mean ZPL frequency consistent with nu0 as the C line."""
        return self.nu0 + 0.5 * self.spin_orbit.lambda_u - 0.5 * self.spin_orbit.lambda_g


def _irreducible_at(emitter: EmitterModel, device: DeviceModel,
                    v: float) -> tuple[IrreducibleStrain, IrreducibleStrain]:
    """Ground and excited irreducible strain of a non-bulk emitter at bias ``v``."""
    eps_lab = strain_at(device, emitter.position, v)
    eps_def = rotate_strain(eps_lab, lab_to_defect(emitter.orientation), Frame.DEFECT)
    return (irreducible_components(eps_def, emitter.susc_g),
            irreducible_components(eps_def, emitter.susc_u))


def level_response_at(emitter: EmitterModel, device: DeviceModel,
                      v: float) -> LevelResponse:
    """Full level response of ``emitter`` at bias voltage ``v``."""
    if emitter.is_bulk:
        ir_g = ir_u = IrreducibleStrain(0.0, 0.0, 0.0)
    else:
        ir_g, ir_u = _irreducible_at(emitter, device, v)
    return level_response(ir_g, ir_u, emitter.spin_orbit, emitter.nu_zpl0())


def shift_from_voltage_chain(emitter: EmitterModel, device: DeviceModel,
                             v: float) -> float:
    """C-transition shift nu_c(V) - nu_c(0) in GHz through the full chain."""
    return level_response_at(emitter, device, v).nu_c - emitter.nu0


class TuningCurve:
    """Precomputed voltage-to-C-shift map for one emitter on one device.

    The strain pipeline is linear in the tensor and the tensor is exactly
    quadratic in voltage, so the whole chain collapses to

        shift(V) = s * da1g - (sqrt(lu^2 + s^2 cu) - lu) / 2
                            + (sqrt(lg^2 + s^2 cg) - lg) / 2,
        s = eps_ref * (V / v_ref)^2 * g(position),

    with per-emitter constants extracted from one pass through the real
    chain.  Values agree with :func:`shift_from_voltage_chain` to rounding.
    """

    def __init__(self, emitter: EmitterModel, device: DeviceModel):
        cal = device.calibration
        self._scale_per_v2 = self._da1g = self._c_g = self._c_u = 0.0
        if not emitter.is_bulk:
            g = bending_profile(device.geometry, emitter.position)
            self._scale_per_v2 = float(cal.eps_ref * g / cal.v_ref ** 2)
            if g != 0.0:
                s_ref = cal.eps_ref * g
                ir_g, ir_u = _irreducible_at(emitter, device, cal.v_ref)
                self._da1g = float((ir_u.eps_a1g - ir_g.eps_a1g) / s_ref)
                self._c_g = float(4.0 * (ir_g.eps_egx ** 2 + ir_g.eps_egy ** 2) / s_ref ** 2)
                self._c_u = float(4.0 * (ir_u.eps_egx ** 2 + ir_u.eps_egy ** 2) / s_ref ** 2)
        # Python floats, so the formula below stays in math arithmetic
        self._lam_g = float(emitter.spin_orbit.lambda_g)
        self._lam_u = float(emitter.spin_orbit.lambda_u)
        self._lam_g2 = self._lam_g ** 2
        self._lam_u2 = self._lam_u ** 2

    def shift(self, v: float) -> float:
        """C-transition shift in GHz for voltage ``v``."""
        return self.shifts(v, (0.0,))[0]

    def shifts(self, v0, offsets) -> list[float]:
        """``[shift(v0 + o) for o in offsets]`` as Python floats, for Python
        float offsets.  The formula enters only through V^2, so the sign of
        a zero in ``v0 + o`` does not matter."""
        v0 = float(v0)
        k, da1g, c_g, c_u = self._scale_per_v2, self._da1g, self._c_g, self._c_u
        lam_g, lam_u, lam_g2, lam_u2 = self._lam_g, self._lam_u, self._lam_g2, self._lam_u2
        sqrt = math.sqrt
        out = []
        for o in offsets:
            v = v0 + o
            s = k * (v * v)  # local eps_xx
            s2 = s * s
            delta_g = sqrt(lam_g2 + c_g * s2)
            delta_u = sqrt(lam_u2 + c_u * s2)
            out.append(s * da1g - 0.5 * (delta_u - lam_u) + 0.5 * (delta_g - lam_g))
        return out
