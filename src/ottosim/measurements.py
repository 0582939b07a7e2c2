"""Parametrized projective measurement families.

Two constructions: a four-angle family of qutrit projectors spanning
generic von Neumann measurements, and per-qubit spin projectors along
arbitrary Bloch directions for the two-qubit substance. Both produce
channels of Hermitian rank-1 projectors, hence minimally disturbing and
unital. Each forms its operators in one place, _su3_kraus and
_spin_kraus, as one checked Kraus stack: the public builders make
KrausChannel records of it, and the sweeps hand it to the cycle kernel
as it is.
"""

from __future__ import annotations

import numpy as np

from ._record import Record
from .channels import (KrausChannel, _channel_records, _check_kraus,
                       _projective_channels)
from .core import _real, _require
from .errors import InvalidField, NonUnitVector
from .tolerances import TOL

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class Su3Angles(Record):
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
    _require("a", a, Su3Angles)
    return list(_su3_states(a.theta, a.phi, a.chi, a.psi))


def _su3_states(theta, phi, chi, psi) -> np.ndarray:
    """su3_states over float arrays of one shape: states (..., 3, 3),
    state i in row i."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    ec, ep = np.exp(1j * chi), np.exp(1j * psi)
    s = np.empty(np.shape(theta) + (3, 3), dtype=complex)
    # The real entries go in as floats: cp, -sp and 0.0 keep their signs.
    s[..., 0, 0], s[..., 0, 1], s[..., 0, 2] = ct * sp * ec, st * sp * ep, cp
    s[..., 1, 0], s[..., 1, 1], s[..., 1, 2] = ct * cp * ec, st * cp * ep, -sp
    s[..., 2, 0], s[..., 2, 1], s[..., 2, 2] = st * ec, -ct * ep, 0.0
    return s


def su3_projective_channel(a: Su3Angles) -> KrausChannel:
    """Channel of the three rank-1 projectors |psi_i><psi_i|."""
    _require("a", a, Su3Angles)
    return su3_projective_channels(a.theta, a.phi, a.chi, a.psi)[0]


def su3_projective_channels(theta, phi, chi, psi) -> list:
    """su3_projective_channel for each angle set: the angles are arrays
    (or numbers) broadcast to one shape, and the channels come in its
    row-major order. InvalidField names an angle that is not a finite
    number, before any channel is built."""
    return _channel_records(*_su3_kraus(theta, phi, chi, psi))


def _su3_kraus(theta, phi, chi, psi) -> tuple:
    """(kraus, unital): the projectors of su3_projective_channels(theta,
    phi, chi, psi) as one Kraus stack (B, 3, 3, 3), checked by
    _check_kraus, and its unital flags (B,), B channels in the angles'
    row-major order; the angles are checked first."""
    angles = []
    for name, value in zip(("theta", "phi", "chi", "psi"),
                           (theta, phi, chi, psi)):
        try:
            array = np.asarray(value)
        except ValueError:  # a ragged list
            array = np.array(None)
        if array.dtype.kind not in "biuf" or not np.isfinite(array).all():
            raise InvalidField(f"angle {name} must hold finite real numbers, "
                               f"got {value!r}")
        angles.append(array.astype(float, copy=False))
    try:
        theta, phi, chi, psi = np.broadcast_arrays(*angles)
    except ValueError:
        raise InvalidField("the angle arrays do not broadcast to one shape: "
                           + ", ".join(str(a.shape) for a in angles)) from None
    kraus, unital = _projective_channels(_su3_states(theta, phi, chi, psi))
    return kraus.reshape(-1, 3, 3, 3), unital.reshape(-1)


class SpinDirection(Record):
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
    _require("n", n, SpinDirection)
    _require("m", m, SpinDirection)
    return _channel_records(*_spin_kraus(n, m))[0]


def _spin_kraus(n: SpinDirection, m: SpinDirection) -> tuple:
    """(kraus, unital): the operators of local_spin_channel(n, m) as a
    Kraus stack (1, 4, 4, 4), checked by _check_kraus, and its unital
    flag (1,)."""
    a, b = np.array(n.projectors()), np.array(m.projectors())
    # ops[2i + j] = np.kron(a[i], b[j]) for all four at once: the same
    # products of entries, broadcast to axes (i, j, row of a, row of b,
    # column of a, column of b)
    ops = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    kraus = ops.reshape(1, 4, 4, 4)
    return kraus, _check_kraus(kraus)
