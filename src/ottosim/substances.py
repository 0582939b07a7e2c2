"""Working substances: single qubit, coupled qutrit, and two-qubit XXZ.

A substance is a table of affine levels with stable labels: level k has
energy slopes[k]*B + sum_c couplings[c]*offsets[c, k] at field B. Levels
of slope 0 are "idle": they exchange heat between the strokes but
contribute no work, which moves the efficiency away from 1 - Bi/Bf.

All three substances have B-independent eigenvectors, so level tracking
across the adiabatic stroke is exact label bookkeeping. The private
table _KINDS holds each kind as data (coupling names, labels, slopes,
offset coefficients, eigenbasis; idle levels and crossing pairs derived).
All but build_hamiltonian read it; build_hamiltonian writes each matrix
out, so it stays an independent route to the same spectrum.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from ._record import Record
from .core import HermitianOperator, _real, _require, hermitian_eigensystem
from .errors import InvalidField
from .tolerances import TOL

_SQ2 = np.sqrt(2.0)


class SubstanceKind(enum.Enum):
    QUBIT = "qubit"
    QUTRIT = "qutrit"
    XXZ = "xxz"

    @classmethod
    def _missing_(cls, value):
        kinds = ", ".join(kind.value for kind in cls)
        raise InvalidField(f"unknown substance kind {value!r}; "
                           f"choose from {kinds}")


class _Kind(NamedTuple):
    """One substance kind as data, built by _kind; every array is read-only.

    Level k has energy slopes[k]*B + couplings @ offsets[:, k], for the
    couplings named in couplings, and eigenvector basis[:, k]. idle marks
    the levels of slope 0; pairs holds the rows (n, m), n < m, of the
    level pairs whose slopes differ, which can cross."""

    couplings: tuple
    labels: tuple
    slopes: np.ndarray
    offsets: np.ndarray
    basis: np.ndarray
    idle: np.ndarray
    pairs: np.ndarray


def _frozen(values, dtype=float):
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _kind(labels, slopes, offsets, basis) -> _Kind:
    """offsets maps each coupling name to its coefficient per level."""
    d = len(labels)
    slopes = _frozen(slopes)
    return _Kind(tuple(offsets), tuple(labels), slopes,
                 _frozen(list(offsets.values())).reshape(-1, d),
                 _frozen(basis, complex), _frozen(slopes == 0.0, bool),
                 _frozen([(n, m) for n in range(d) for m in range(n + 1, d)
                          if slopes[n] != slopes[m]], np.intp).reshape(-1, 2))


_KINDS = {
    SubstanceKind.QUBIT: _kind(("+B", "-B"), (1.0, -1.0), {}, np.eye(2)),
    SubstanceKind.QUTRIT: _kind(
        ("+B", "-B", "-J"), (1.0, -1.0, 0.0), {"J": (0.0, 0.0, -1.0)},
        np.array([[1, -1, 0], [1, 1, 0], [0, 0, _SQ2]]) / _SQ2),
    SubstanceKind.XXZ: _kind(
        ("2B", "2(Jxy-Jz)", "-2(Jxy+Jz)", "-2B"), (2.0, 0.0, 0.0, -2.0),
        {"Jxy": (0.0, 2.0, -2.0, 0.0), "Jz": (0.0, -2.0, -2.0, 0.0)},
        np.array([[_SQ2, 0, 0, 0], [0, 1, 1, 0], [0, 1, -1, 0],
                  [0, 0, 0, _SQ2]]) / _SQ2),
}


class SubstanceSpec(Record):
    """Which working substance, plus its coupling constants.

    Fields that do not apply to the chosen kind must stay zero; use the
    qubit()/qutrit()/xxz() constructors.
    """

    kind: SubstanceKind
    J: float = 0.0
    Jxy: float = 0.0
    Jz: float = 0.0

    def __post_init__(self):
        _require("kind", self.kind, SubstanceKind)
        used = _KINDS[self.kind].couplings
        for name in ("J", "Jxy", "Jz"):
            value = _real(name, getattr(self, name))
            if value != 0.0 and name not in used:
                raise InvalidField(f"{name} is meaningless for {self.kind.value}")
            object.__setattr__(self, name, value)

    @classmethod
    def qubit(cls) -> "SubstanceSpec":
        return cls(kind=SubstanceKind.QUBIT)

    @classmethod
    def qutrit(cls, J: float) -> "SubstanceSpec":
        return cls(kind=SubstanceKind.QUTRIT, J=J)

    @classmethod
    def xxz(cls, Jxy: float, Jz: float) -> "SubstanceSpec":
        return cls(kind=SubstanceKind.XXZ, Jxy=Jxy, Jz=Jz)

    @property
    def dim(self) -> int:
        return len(_KINDS[self.kind].labels)


class Level(Record):
    label: str
    energy: float
    idle: bool


class LabelledSpectrum(Record):
    """Energy levels with stable labels, evaluated at one field value."""

    levels: tuple
    field_value: float

    @property
    def labels(self) -> tuple:
        return tuple(lv.label for lv in self.levels)

    @property
    def energies(self) -> np.ndarray:
        return np.array([lv.energy for lv in self.levels])

    @property
    def idle_labels(self) -> tuple:
        return tuple(lv.label for lv in self.levels if lv.idle)


def _couplings(kind: _Kind, specs) -> np.ndarray:
    """The couplings of substances of one kind, shape (N, c) in table order."""
    return np.array([[getattr(spec, name) for name in kind.couplings]
                     for spec in specs], dtype=float)


def _level_energies(kind: _Kind, couplings: np.ndarray, fields):
    """Offsets (N, d) of N substances and their energies at each field,
    slopes*B + offsets of shape (len(fields), N, d); InvalidField if an
    energy is too large to represent."""
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = couplings @ kind.offsets
        energies = kind.slopes * np.asarray(fields)[:, None, None] + offsets
    if not np.isfinite(energies).all():
        raise InvalidField("a level energy is too large to represent")
    return offsets, energies


def _spec_levels(spec: SubstanceSpec, fields):
    """The kind of spec, then _level_energies of spec alone; InvalidField
    unless spec is a SubstanceSpec."""
    _require("spec", spec, SubstanceSpec)
    kind = _KINDS[spec.kind]
    return (kind, *_level_energies(kind, _couplings(kind, (spec,)), fields))


def _crossing_fields(kind: _Kind, offsets: np.ndarray) -> np.ndarray:
    """Where the two levels of each of kind.pairs meet, shape (N, pairs)."""
    n, m = kind.pairs.T
    return (offsets[:, m] - offsets[:, n]) / (kind.slopes[n] - kind.slopes[m])


def _check_fields(Bi: float, Bf: float):
    """Bi and Bf as floats, checked to satisfy 0 < Bi < Bf."""
    Bi, Bf = _real("Bi", Bi, positive=True), _real("Bf", Bf)
    if not Bi < Bf:
        raise InvalidField(f"need 0 < Bi < Bf, got Bi={Bi}, Bf={Bf}")
    return Bi, Bf


def labelled_basis(spec: SubstanceSpec) -> dict:
    """Eigenvector per label (B-independent for all three substances)."""
    _require("spec", spec, SubstanceSpec)
    kind = _KINDS[spec.kind]
    return dict(zip(kind.labels, kind.basis.T.copy()))


def build_hamiltonian(spec: SubstanceSpec, B: float) -> HermitianOperator:
    """Hamiltonian matrix at field B, with its eigensystem.

    Qubit: diag(B, -B). Qutrit: B swaps |0>,|1> plus a fixed level at -J.
    XXZ (computational basis |00>,|01>,|10>,|11>): Zeeman term 2B on the
    fully aligned states, Jxy exchange on the middle block, Jz shifts so
    the aligned states sit exactly at +-2B.
    """
    _require("spec", spec, SubstanceSpec)
    B = _real("field B", B, positive=True)
    if spec.kind is SubstanceKind.QUBIT:
        m = np.diag([B, -B]).astype(complex)
    elif spec.kind is SubstanceKind.QUTRIT:
        m = np.array([[0, B, 0],
                      [B, 0, 0],
                      [0, 0, -spec.J]], dtype=complex)
    else:
        m = np.diag([2 * B, -2 * spec.Jz, -2 * spec.Jz, -2 * B]).astype(complex)
        m[1, 2] = m[2, 1] = 2 * spec.Jxy
    return hermitian_eigensystem(m)


def labelled_spectrum(spec: SubstanceSpec, B: float) -> LabelledSpectrum:
    """Closed-form energies with stable labels and idle flags (no solver)."""
    B = _real("field B", B, positive=True)
    kind, _, (energies,) = _spec_levels(spec, (B,))
    levels = tuple(map(Level, kind.labels, energies[0].tolist(),
                       kind.idle.tolist()))
    return LabelledSpectrum(levels=levels, field_value=B)


def check_uniform_gap_ratio(spec: SubstanceSpec, Bi: float, Bf: float):
    """Return r = Bf/Bi if every level gap scales by r, else None.

    Levels n, m miss r times their gap at Bi by (r - 1)(o_m - o_n) at Bf,
    so the worst pair holds the smallest and the largest offset o."""
    Bi, Bf = _check_fields(Bi, Bf)
    _, offsets, _ = _spec_levels(spec, (Bi, Bf))
    # times Bi, so that an r too large to represent cannot make a NaN; a
    # product too large to represent is not uniform
    with np.errstate(over="ignore"):
        uniform = np.ptp(offsets) * (Bf - Bi) <= TOL.gap_ratio * Bi
    if not uniform:
        return None
    if not math.isfinite(Bf / Bi):
        raise InvalidField(f"Bf/Bi = {Bf}/{Bi} is too large to represent")
    return Bf / Bi


def detect_level_crossing(spec: SubstanceSpec, Bi: float, Bf: float):
    """Field values in [Bi, Bf] where two labelled energies coincide.

    Identically degenerate label pairs (equal slope and offset) are not
    crossings and are excluded; only transversal intersections count.
    """
    Bi, Bf = _check_fields(Bi, Bf)
    kind, offsets, _ = _spec_levels(spec, (Bi, Bf))
    fields = _crossing_fields(kind, offsets)[0].tolist()
    return [((kind.labels[n], kind.labels[m]), bstar)
            for (n, m), bstar in zip(kind.pairs.tolist(), fields)
            if Bi <= bstar <= Bf]
