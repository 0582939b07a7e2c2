"""Working substances: single qubit, coupled qutrit, and two-qubit XXZ.

Each substance exposes its spectrum as affine functions of the adiabatic
field B with stable level labels. Levels whose energy does not depend on
B are "idle": they exchange heat between the strokes but contribute no
work, which is the mechanism behind efficiencies away from 1 - Bi/Bf.

All three substances have B-independent eigenvectors, so level tracking
across the adiabatic stroke is exact label bookkeeping. One private
table, _KINDS, describes each kind (couplings, levels, eigenbasis); all
but build_hamiltonian read it. build_hamiltonian writes each matrix out,
so it stays an independent route to the same spectrum.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import HermitianOperator, hermitian_eigensystem
from .errors import InvalidField
from .tolerances import TOL

_SQ2 = np.sqrt(2.0)


class SubstanceKind(enum.Enum):
    QUBIT = "qubit"
    QUTRIT = "qutrit"
    XXZ = "xxz"


class _Kind(NamedTuple):
    """couplings: the SubstanceSpec fields the kind uses. levels: per label,
    in order, (label, slope, offset, idle) with energy(B) = slope*B +
    offset(spec). basis: read-only, column k the eigenvector of label k."""

    couplings: tuple
    levels: tuple
    basis: np.ndarray


def _basis(*columns):
    matrix = np.column_stack(columns)
    matrix.flags.writeable = False
    return matrix


_KINDS = {
    SubstanceKind.QUBIT: _Kind(
        couplings=(),
        levels=(("+B", 1.0, lambda spec: 0.0, False),
                ("-B", -1.0, lambda spec: 0.0, False)),
        basis=_basis(np.array([1, 0], dtype=complex),
                     np.array([0, 1], dtype=complex))),
    SubstanceKind.QUTRIT: _Kind(
        couplings=("J",),
        levels=(("+B", 1.0, lambda spec: 0.0, False),
                ("-B", -1.0, lambda spec: 0.0, False),
                ("-J", 0.0, lambda spec: -spec.J, True)),
        basis=_basis(np.array([1, 1, 0], dtype=complex) / _SQ2,
                     np.array([-1, 1, 0], dtype=complex) / _SQ2,
                     np.array([0, 0, 1], dtype=complex))),
    SubstanceKind.XXZ: _Kind(
        couplings=("Jxy", "Jz"),
        levels=(("2B", 2.0, lambda spec: 0.0, False),
                ("2(Jxy-Jz)", 0.0,
                 lambda spec: 2.0 * (spec.Jxy - spec.Jz), True),
                ("-2(Jxy+Jz)", 0.0,
                 lambda spec: -2.0 * (spec.Jxy + spec.Jz), True),
                ("-2B", -2.0, lambda spec: 0.0, False)),
        basis=_basis(np.array([1, 0, 0, 0], dtype=complex),
                     np.array([0, 1, 1, 0], dtype=complex) / _SQ2,
                     np.array([0, 1, -1, 0], dtype=complex) / _SQ2,
                     np.array([0, 0, 0, 1], dtype=complex))),
}


@dataclass(frozen=True)
class SubstanceSpec:
    """Which working substance, plus its coupling constants.

    Fields that do not apply to the chosen kind must stay zero; use the
    qubit()/qutrit()/xxz() constructors.
    """

    kind: SubstanceKind
    J: float = 0.0
    Jxy: float = 0.0
    Jz: float = 0.0

    def __post_init__(self):
        for name in ("J", "Jxy", "Jz"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidField(f"{name} must be finite")
        used = _KINDS[self.kind].couplings
        for name in ("J", "Jxy", "Jz"):
            if name not in used and getattr(self, name) != 0.0:
                raise InvalidField(f"{name} is meaningless for {self.kind.value}")

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
        return len(_KINDS[self.kind].levels)


@dataclass(frozen=True)
class Level:
    label: str
    energy: float
    idle: bool


@dataclass(frozen=True)
class LabelledSpectrum:
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


def _level_arrays(specs):
    """The level table of N substances of one kind, as arrays.

    Returns (labels, idle labels, slopes of shape (d,), offsets of shape
    (N, d)), so that the energies at field B are slopes * B + offsets.
    """
    kind = specs[0].kind
    if any(s.kind is not kind for s in specs):
        raise InvalidField("substances of one batch must share one kind")
    levels = _KINDS[kind].levels
    labels = tuple(row[0] for row in levels)
    idle = tuple(row[0] for row in levels if row[3])
    slopes = np.array([row[1] for row in levels])
    offsets = np.array([[row[2](s) for row in levels] for s in specs])
    return labels, idle, slopes, offsets


def _crossing_fields(slopes, offsets):
    """Level pairs (n, m), n < m, with different slopes, and where they meet.

    The second value has shape (N, pairs): the field at which the two
    affine energies of each substance are equal.
    """
    pairs, first, second = _level_pairs(tuple(slopes.tolist()))
    fields = ((offsets[:, second] - offsets[:, first])
              / (slopes[first] - slopes[second]))
    return pairs, fields


@functools.lru_cache(maxsize=8)
def _level_pairs(slopes: tuple):
    """The pairs of _crossing_fields and their first and second indices.

    They depend only on the slopes, which are fixed per substance kind, so
    they are built once per slope tuple. The index arrays are read-only,
    since every caller shares them.
    """
    d = len(slopes)
    pairs = tuple((n, m) for n in range(d) for m in range(n + 1, d)
                  if slopes[n] != slopes[m])
    first = np.array([n for n, _ in pairs], dtype=np.intp)
    second = np.array([m for _, m in pairs], dtype=np.intp)
    first.flags.writeable = False
    second.flags.writeable = False
    return pairs, first, second


def labelled_basis(spec: SubstanceSpec) -> dict:
    """Eigenvector per label (B-independent for all three substances)."""
    kind = _KINDS[spec.kind]
    return {row[0]: kind.basis[:, k].copy()
            for k, row in enumerate(kind.levels)}


def build_hamiltonian(spec: SubstanceSpec, B: float) -> HermitianOperator:
    """Hamiltonian matrix at field B, with its eigensystem.

    Qubit: diag(B, -B). Qutrit: B swaps |0>,|1> plus a fixed level at -J.
    XXZ (computational basis |00>,|01>,|10>,|11>): Zeeman term 2B on the
    fully aligned states, Jxy exchange on the middle block, Jz shifts so
    the aligned states sit exactly at +-2B.
    """
    if not (np.isfinite(B) and B > 0):
        raise InvalidField(f"field B must be positive, got {B}")
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
    if not (np.isfinite(B) and B > 0):
        raise InvalidField(f"field B must be positive, got {B}")
    levels = tuple(Level(label, slope * B + offset(spec), idle)
                   for label, slope, offset, idle in _KINDS[spec.kind].levels)
    return LabelledSpectrum(levels=levels, field_value=B)


def check_uniform_gap_ratio(spec: SubstanceSpec, Bi: float, Bf: float):
    """Return r = Bf/Bi if every level gap scales by r, else None."""
    if not 0 < Bi < Bf:
        raise InvalidField(f"need 0 < Bi < Bf, got Bi={Bi}, Bf={Bf}")
    ei = labelled_spectrum(spec, Bi).energies
    ef = labelled_spectrum(spec, Bf).energies
    r = Bf / Bi
    for n in range(len(ei)):
        for m in range(n + 1, len(ei)):
            if abs((ef[n] - ef[m]) - r * (ei[n] - ei[m])) > TOL.gap_ratio:
                return None
    return r


def detect_level_crossing(spec: SubstanceSpec, Bi: float, Bf: float):
    """Field values in [Bi, Bf] where two labelled energies coincide.

    Identically degenerate label pairs (equal slope and offset) are not
    crossings and are excluded; only transversal intersections count.
    """
    if not 0 < Bi < Bf:
        raise InvalidField(f"need 0 < Bi < Bf, got Bi={Bi}, Bf={Bf}")
    labels, _, slopes, offsets = _level_arrays((spec,))
    pairs, fields = _crossing_fields(slopes, offsets)
    return [((labels[n], labels[m]), float(bstar))
            for (n, m), bstar in zip(pairs, fields[0]) if Bi <= bstar <= Bf]
