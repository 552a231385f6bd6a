"""Coordinate frames and strain rotations for <111> defects in a [110] beam.

Three frames appear in the voltage-to-frequency chain:

* lab      -- x along the waveguide long axis ([110]), z along the [001]
              surface normal, y completing the right-handed set.
* crystal  -- cubic crystal axes of the diamond.
* defect   -- z along the defect's <111> symmetry axis.

Rotating lab -> crystal is a fixed 45 degree rotation about z.  Each of the
four <111> orientations gets its own crystal -> defect rotation; the
in-plane (x, y) choice in the defect frame is a free convention because the
observables depend only on eps_Egx^2 + eps_Egy^2.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ContractError
from .strain import Frame, StrainTensor


class Orientation(Enum):
    """The four possible <111> symmetry axes of a defect in the crystal."""

    P111 = "[111]"
    M111 = "[-111]"
    P1M11 = "[1-11]"
    MM11 = "[-1-11]"

    @property
    def signs(self) -> tuple[int, int, int]:
        return _AXIS_SIGNS[self]

    @property
    def axis(self) -> np.ndarray:
        """Unit symmetry-axis vector in crystal coordinates."""
        return np.array(self.signs, dtype=float) / np.sqrt(3.0)


_AXIS_SIGNS = {
    Orientation.P111: (1, 1, 1),
    Orientation.M111: (-1, 1, 1),
    Orientation.P1M11: (1, -1, 1),
    Orientation.MM11: (-1, -1, 1),
}


def lab_to_crystal() -> np.ndarray:
    """Rotation taking lab-frame components to crystal-frame components.

    Columns are the lab basis vectors written in crystal coordinates, so the
    lab x axis maps to (1,1,0)/sqrt(2) and lab z to (0,0,1).
    """
    c = 1.0 / np.sqrt(2.0)
    return np.array([
        [c, -c, 0.0],
        [c, c, 0.0],
        [0.0, 0.0, 1.0],
    ])


def defect_rotation(o: Orientation, in_plane_angle: float = 0.0) -> np.ndarray:
    """Rotation taking crystal-frame components to the defect frame of ``o``.

    Rows are the defect axes in crystal coordinates: defect z is the <111>
    axis; defect x follows the [1,1,-2]-type in-plane reference (sign pattern
    permuted per variant), optionally rotated by ``in_plane_angle`` radians
    about the defect z axis.  Because the two Eg strain pairs rotate at 2a
    and a respectively, the splittings are invariant only under the
    threefold-compatible relabelings (multiples of 2 pi / 3); the default
    pins defect x to the conventional mirror-plane direction.
    """
    a, b, c = o.signs
    z = np.array([a, b, c], dtype=float) / np.sqrt(3.0)
    x = np.array([a, b, -2.0 * c], dtype=float) / np.sqrt(6.0)
    y = np.cross(z, x)
    if in_plane_angle != 0.0:
        ca, sa = np.cos(in_plane_angle), np.sin(in_plane_angle)
        x, y = ca * x + sa * y, -sa * x + ca * y
    return np.array([x, y, z])


@lru_cache(maxsize=64)
def lab_to_defect(o: Orientation, in_plane_angle: float = 0.0) -> np.ndarray:
    """Rotation taking lab-frame components to the defect frame; cached, read-only."""
    r = defect_rotation(o, in_plane_angle) @ lab_to_crystal()
    r.flags.writeable = False
    return r


@lru_cache(maxsize=64)
def _rotation_fault(key: bytes) -> str | None:
    """Why the 3x3 float matrix with these bytes is no proper rotation, or None."""
    r = np.frombuffer(key).reshape(3, 3)
    if not np.allclose(r @ r.T, np.eye(3), atol=1e-10):
        return "rotation matrix is not orthonormal"
    if np.linalg.det(r) < 0.0:
        return "rotation matrix must be proper (det = +1)"
    return None


def rotate_strain(eps: StrainTensor, r: np.ndarray,
                  target_frame: Frame) -> StrainTensor:
    """Similarity-transform a strain tensor, eps' = R eps R^T.

    ``r`` must be a proper rotation, a verdict cached on the matrix's content;
    the result carries ``target_frame``.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ContractError("rotation matrix must be 3x3")
    fault = _rotation_fault(r.tobytes())
    if fault is not None:
        raise ContractError(fault)
    m = r @ eps.as_matrix() @ r.T
    m = 0.5 * (m + m.T)  # scrub rounding asymmetry
    return StrainTensor(m[0, 0], m[1, 1], m[2, 2], m[1, 2], m[2, 0], m[0, 1],
                        frame=target_frame)
