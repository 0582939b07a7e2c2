"""Parametrized projective measurement families.

Two constructions: a four-angle family of qutrit projectors spanning
generic von Neumann measurements, and per-qubit spin projectors along
arbitrary Bloch directions for the two-qubit substance. Both produce
channels of Hermitian rank-1 projectors, hence minimally disturbing and
unital.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, kraus_channel, projective_channel
from .core import _real
from .errors import NonUnitVector
from .tolerances import TOL

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class Su3Angles:
    """Angles (radians) of the qutrit projective family."""

    theta: float
    phi: float
    chi: float
    psi: float

    def __post_init__(self):
        for name in ("theta", "phi", "chi", "psi"):
            object.__setattr__(self, name,
                               _real(f"angle {name}", getattr(self, name)))


def su3_states(a: Su3Angles):
    """The three orthonormal measurement states for angle set a.

    psi_3 carries no phi dependence; the set is orthonormal for every
    choice of angles regardless.
    """
    ct, st = np.cos(a.theta), np.sin(a.theta)
    cp, sp = np.cos(a.phi), np.sin(a.phi)
    ec, ep = np.exp(1j * a.chi), np.exp(1j * a.psi)
    s1 = np.array([ct * sp * ec, st * sp * ep, cp])
    s2 = np.array([ct * cp * ec, st * cp * ep, -sp])
    s3 = np.array([st * ec, -ct * ep, 0.0])
    return [s1, s2, s3]


def su3_projective_channel(a: Su3Angles) -> KrausChannel:
    """Channel of the three rank-1 projectors |psi_i><psi_i|."""
    return projective_channel(su3_states(a))


@dataclass(frozen=True)
class SpinDirection:
    """Unit Bloch vector (nx, ny, nz)."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        with np.errstate(over="ignore"):
            norm = np.hypot.reduce([self.nx, self.ny, self.nz])
        if not abs(norm - 1.0) <= TOL.unit_vector:
            raise NonUnitVector(f"|n| = {norm} is not 1 within {TOL.unit_vector}")

    @classmethod
    def x(cls) -> "SpinDirection":
        return cls(1.0, 0.0, 0.0)

    @classmethod
    def y(cls) -> "SpinDirection":
        return cls(0.0, 1.0, 0.0)

    @classmethod
    def z(cls) -> "SpinDirection":
        return cls(0.0, 0.0, 1.0)

    def projectors(self):
        """(1 +- n.sigma)/2, the up/down projectors along this direction."""
        ndots = (self.nx * _PAULI["x"] + self.ny * _PAULI["y"]
                 + self.nz * _PAULI["z"])
        eye = np.eye(2, dtype=complex)
        return [(eye + ndots) / 2, (eye - ndots) / 2]


def local_spin_channel(n: SpinDirection, m: SpinDirection) -> KrausChannel:
    """Product measurement: qubit 1 along n, qubit 2 along m.

    Four rank-1 product projectors; projective, hence unital and
    minimally disturbing.
    """
    ops = [np.kron(pa, pb) for pa in n.projectors() for pb in m.projectors()]
    return kraus_channel(ops)
