"""Strain response of a group-IV orbital doublet in the D3d irreducible basis.

A symmetric strain tensor expressed in the defect frame (z along the <111>
high-symmetry axis) enters the orbital Hamiltonian through three
symmetry-adapted combinations:

    eps_A1g = t_perp * (e_xx + e_yy) + t_par * e_zz
    eps_Egx = d * (e_xx - e_yy) + f * e_zx
    eps_Egy = -2 * d * e_xy + f * e_yz

The A1g part rigidly shifts an orbital doublet, the Eg parts mix it.  With
spin-orbit coupling lambda_SO the doublet splitting is

    Delta = sqrt(lambda_SO^2 + 4 eps_Egx^2 + 4 eps_Egy^2)

and the mean optical (ZPL) frequency moves by the difference of the excited
and ground A1g shifts.  Everything here is a pure function; frequencies are
in GHz and susceptibilities in GHz per unit strain throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, InputError

# Largest strain component accepted by default; beyond this the linear
# (infinitesimal-strain) response model is not trustworthy.
DEFAULT_STRAIN_GUARD = 1e-2


class Frame(str, Enum):
    """Coordinate frame a strain tensor is expressed in."""

    LAB = "lab"
    CRYSTAL = "crystal"
    DEFECT = "defect"


@dataclass(frozen=True)
class StrainTensor:
    """Symmetric rank-2 strain tensor (six independent dimensionless entries).

    Components use the frame indicated by ``frame``; no component may exceed
    ``DEFAULT_STRAIN_GUARD`` in magnitude (small-strain regime check).
    """

    e_xx: float
    e_yy: float
    e_zz: float
    e_yz: float
    e_zx: float
    e_xy: float
    frame: Frame = Frame.LAB

    def __post_init__(self):
        comps = (self.e_xx, self.e_yy, self.e_zz, self.e_yz, self.e_zx, self.e_xy)
        if not all(np.isfinite(comps)):
            raise InputError("strain tensor components must be finite")
        worst = max(abs(c) for c in comps)
        if worst > DEFAULT_STRAIN_GUARD:
            raise InputError(
                f"strain component magnitude {worst:.3e} exceeds the "
                f"small-strain guard {DEFAULT_STRAIN_GUARD:.3e}"
            )

    @classmethod
    def from_matrix(cls, m: np.ndarray, frame: Frame) -> "StrainTensor":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise InputError("strain matrix must be 3x3")
        if not np.allclose(m, m.T, atol=1e-15 + 1e-9 * np.abs(m).max()):
            raise InputError("strain matrix must be symmetric")
        sym = 0.5 * (m + m.T)
        return cls(sym[0, 0], sym[1, 1], sym[2, 2],
                   sym[1, 2], sym[2, 0], sym[0, 1], frame=frame)

    def as_matrix(self) -> np.ndarray:
        return np.array([
            [self.e_xx, self.e_xy, self.e_zx],
            [self.e_xy, self.e_yy, self.e_yz],
            [self.e_zx, self.e_yz, self.e_zz],
        ])


@dataclass(frozen=True)
class StrainSusceptibilities:
    """Orbital strain susceptibilities of one electronic manifold, GHz/strain.

    Ground and excited manifolds carry distinct instances; the values differ
    between the two states.
    """

    t_perp: float
    t_par: float
    d: float
    f: float

    def __post_init__(self):
        if not all(np.isfinite((self.t_perp, self.t_par, self.d, self.f))):
            raise InputError("susceptibilities must be finite")


@dataclass(frozen=True)
class SpinOrbit:
    """Spin-orbit splittings of the ground and excited orbital doublets, GHz."""

    lambda_g: float
    lambda_u: float

    def __post_init__(self):
        if not (self.lambda_g >= 0.0 and self.lambda_u >= 0.0):
            raise InputError("spin-orbit splittings must be >= 0")


@dataclass(frozen=True)
class IrreducibleStrain:
    """Symmetry-adapted strain energies of one manifold, GHz."""

    eps_a1g: float
    eps_egx: float
    eps_egy: float

    def __post_init__(self):
        if not all(np.isfinite((self.eps_a1g, self.eps_egx, self.eps_egy))):
            raise InputError("irreducible strain components must be finite")


@dataclass(frozen=True)
class LevelResponse:
    """Mean ZPL frequency, manifold splittings and C-transition frequency, GHz.

    The C transition connects the lowest branch of each manifold; with
    branches at +-Delta/2 about the manifold means this forces
    nu_c = nu_zpl - delta_u/2 + delta_g/2.
    """

    nu_zpl: float
    delta_g: float
    delta_u: float
    nu_c: float


def irreducible_components(eps: StrainTensor,
                           susc: StrainSusceptibilities) -> IrreducibleStrain:
    """Project a defect-frame strain tensor onto the D3d irreducible basis.

    Linear in the tensor; requires ``eps`` to already be in the defect frame.
    """
    if eps.frame is not Frame.DEFECT:
        raise ContractError(
            f"irreducible components require a defect-frame tensor, got {eps.frame.value!r}"
        )
    return IrreducibleStrain(
        eps_a1g=susc.t_perp * (eps.e_xx + eps.e_yy) + susc.t_par * eps.e_zz,
        eps_egx=susc.d * (eps.e_xx - eps.e_yy) + susc.f * eps.e_zx,
        eps_egy=-2.0 * susc.d * eps.e_xy + susc.f * eps.e_yz,
    )


def strain_matrix(ir: IrreducibleStrain, lambda_so: float) -> np.ndarray:
    """2x2 Hermitian orbital Hamiltonian in the {e_x, e_y} basis, GHz.

    Includes the spin-orbit term as an imaginary off-diagonal +-i*lambda/2 so
    that the eigen-gap equals sqrt(lambda^2 + 4 eps_Egx^2 + 4 eps_Egy^2);
    this serves as the brute-force diagonalization oracle for the closed
    forms in :func:`level_response`.  The trivial spin identity factor is
    dropped (strain neither couples the manifolds nor the spin states).
    """
    if not np.isfinite(lambda_so):
        raise InputError("lambda_so must be finite")
    return np.array([
        [ir.eps_a1g - ir.eps_egx, ir.eps_egy - 0.5j * lambda_so],
        [ir.eps_egy + 0.5j * lambda_so, ir.eps_a1g + ir.eps_egx],
    ])


def splitting(ir: IrreducibleStrain, lambda_so: float) -> float:
    """Closed-form doublet splitting sqrt(lambda^2 + 4 Egx^2 + 4 Egy^2), GHz."""
    return float(np.sqrt(lambda_so ** 2 + 4.0 * ir.eps_egx ** 2 + 4.0 * ir.eps_egy ** 2))


def level_response(ir_g: IrreducibleStrain, ir_u: IrreducibleStrain,
                   so: SpinOrbit, nu0: float) -> LevelResponse:
    """Closed-form level response of both manifolds under strain.

    ``nu0`` is the mean ZPL frequency at zero strain, GHz.
    """
    nu_zpl = nu0 + ir_u.eps_a1g - ir_g.eps_a1g
    delta_g = splitting(ir_g, so.lambda_g)
    delta_u = splitting(ir_u, so.lambda_u)
    nu_c = nu_zpl - 0.5 * delta_u + 0.5 * delta_g
    return LevelResponse(nu_zpl=nu_zpl, delta_g=delta_g, delta_u=delta_u, nu_c=nu_c)
