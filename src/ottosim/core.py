"""Dense Hermitian linear algebra for small quantum systems.

Everything here works on plain complex numpy arrays at dimension d <= 8:
Hermitian eigensystems, density matrices, Gibbs states, energy bookkeeping,
and the passivity predicate used by the measurement-engine theorems.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidField, LengthMismatch, NotHermitian, OttoSimError,
                     DimensionMismatch)
from .tolerances import TOL


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return _finite(m)


def _finite(m: np.ndarray) -> np.ndarray:
    """m itself, after checking that every entry is finite."""
    if not np.all(np.isfinite(m)):
        raise OttoSimError("matrix entries must be finite")
    return m


def _real(name: str, value, positive: bool = False) -> float:
    """float(value), checked to be finite and real (> 0 if positive)."""
    try:
        real = isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        real = False
    if not (real and (value > 0 or not positive)):
        raise InvalidField(f"{name} must be a finite {'positive ' * positive}"
                           f"number, got {value!r}")
    return float(value)


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2 of a matrix or of each matrix in a stack."""
    return 0.5 * (m + _dagger(m))


def hermitian_defect(m: np.ndarray) -> float:
    """Max-norm distance from m to its conjugate transpose.

    m may be a stack of shape (..., d, d); the worst matrix counts.
    """
    return float(np.max(np.abs(m - _dagger(m))))


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix with its cached eigensystem.

    eigenvalues are ascending; eigenvectors[:, n] is the unit eigenvector
    for eigenvalues[n]. Degenerate blocks carry an arbitrary orthonormal
    basis. Build instances with hermitian_eigensystem().
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def hermitian_eigensystem(entries) -> HermitianOperator:
    """Diagonalize a Hermitian matrix.

    Parameters
    ----------
    entries : array_like
        Square complex matrix, Hermitian within tolerance.

    Returns
    -------
    HermitianOperator
        With ascending eigenvalues and orthonormal eigenvectors satisfying
        the reconstruction identity sum_n E_n |v_n><v_n| = matrix.

    Raises
    ------
    NotHermitian
        If the matrix is not symmetric under conjugate transposition.
    """
    m, vals, vecs = _eigensystems(as_complex_matrix(entries))
    return HermitianOperator(matrix=m, eigenvalues=vals, eigenvectors=vecs)


def _eigensystems(m: np.ndarray):
    """hermitian_eigensystem over a finite stack m of shape (..., d, d).

    Every check applies to each matrix of the stack. Returns the
    symmetrized matrices, the ascending eigenvalues (..., d) and the
    eigenvectors (..., d, d), column n belonging to eigenvalue n.
    """
    defect = hermitian_defect(m)
    if defect > TOL.hermitian:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {TOL.hermitian}")
    m = _hermitian_part(m)
    vals, vecs = np.linalg.eigh(m)
    gram = _dagger(vecs) @ vecs
    if np.max(np.abs(gram - np.eye(m.shape[-1]))) > TOL.orthonormal:
        raise OttoSimError("eigenvector orthonormality check failed")
    rebuilt = (vecs * vals[..., None, :]) @ _dagger(vecs)
    if np.max(np.abs(rebuilt - m)) > TOL.reconstruction:
        raise OttoSimError("spectral reconstruction check failed")
    return m, vals, vecs


@dataclass(frozen=True)
class DensityMatrix:
    """Positive unit-trace Hermitian matrix; validated at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _densities(as_complex_matrix(self.matrix)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _densities(m: np.ndarray) -> np.ndarray:
    """DensityMatrix validation over a finite stack m of shape (..., d, d).

    Checks each matrix for Hermiticity, unit trace and positivity, and
    returns the stack of Hermitian parts.
    """
    defect = hermitian_defect(m)
    if defect > TOL.hermitian:
        raise NotHermitian(f"density matrix defect {defect:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).reshape(-1)
    worst = int(np.argmax(np.abs(tr - 1.0)))
    if abs(tr[worst] - 1.0) > TOL.trace:
        raise OttoSimError(f"trace {complex(tr[worst])} is not 1 within {TOL.trace}")
    sym = _hermitian_part(m)
    smallest = float(np.linalg.eigvalsh(sym).min())
    if smallest < -TOL.positivity:
        raise OttoSimError(f"negative eigenvalue {smallest:.3e}")
    return sym


@dataclass(frozen=True)
class BathSpec:
    """Thermal bath at inverse temperature beta (k_B = 1)."""

    beta: float

    def __post_init__(self):
        object.__setattr__(self, "beta",
                           _real("beta", self.beta, positive=True))


def row_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right from 0.0.

    This is the association Python's sum() uses on a list of floats
    (CPython 3.11). Every row is added on its own in a fixed order, so a
    row's sum has the same bits whatever else the array holds.
    """
    total = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        total = total + x[..., k]
    return total


def boltzmann_populations(energies, beta: float) -> np.ndarray:
    """Gibbs weights e^(-beta E_n)/Z with the ground energy subtracted first.

    energies is one spectrum of shape (d,) or a stack of spectra of shape
    (..., d); each spectrum along the last axis is normalised on its own.
    """
    e = np.asarray(energies, dtype=float)
    w = np.exp(-beta * (e - e.min(axis=-1, keepdims=True)))
    return w / row_sum(w)[..., None]


def gibbs_state(h: HermitianOperator, bath: BathSpec) -> DensityMatrix:
    """Thermal state e^(-beta H)/Z, diagonal in the eigenbasis of h."""
    pops = boltzmann_populations(h.eigenvalues, bath.beta)
    rho = (h.eigenvectors * pops) @ h.eigenvectors.conj().T
    return DensityMatrix(rho)


def energy_expectation(rho: DensityMatrix, h: HermitianOperator) -> float:
    """Tr[rho H] as a real number.

    Raises DimensionMismatch on shape disagreement; the imaginary residue
    must stay below tolerance (it is discarded after the check).
    """
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs operator dim {h.dim}")
    return float(_energies(rho.matrix, h.matrix))


def _energies(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr[rho H] over stacks (..., d, d), real parts after the residue check."""
    val = np.trace(rho @ h, axis1=-2, axis2=-1)
    residue = float(np.max(np.abs(val.imag)))
    if residue > TOL.imag_residue:
        raise OttoSimError(f"imaginary residue {residue:.3e} in energy expectation")
    return val.real


def populations_in_basis(rho: DensityMatrix, h: HermitianOperator) -> np.ndarray:
    """Diagonal of rho in the eigenbasis of h: p_n = <v_n|rho|v_n>."""
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs operator dim {h.dim}")
    v = h.eigenvectors
    pops = np.real(np.einsum("in,ij,jn->n", v.conj(), rho.matrix, v))
    if pops.min() < -TOL.population or pops.max() > 1 + TOL.population:
        raise OttoSimError(f"population out of range: {pops}")
    if abs(pops.sum() - 1.0) > TOL.population:
        raise OttoSimError(f"populations sum to {pops.sum()}, not 1")
    return pops


def is_passive(pops, energies) -> bool:
    """True iff populations never increase with energy.

    Ties in energy impose no ordering constraint; comparisons carry a small
    slack so Gibbs states built through floating-point arithmetic pass.
    """
    p = np.asarray(pops, dtype=float)
    e = np.asarray(energies, dtype=float)
    if p.shape != e.shape or p.ndim != 1:
        raise LengthMismatch(f"pops shape {p.shape} vs energies shape {e.shape}")
    if p.min() < -TOL.population or abs(p.sum() - 1.0) > TOL.population:
        raise OttoSimError("pops is not a probability vector")
    for i in range(len(p)):
        for j in range(len(p)):
            if e[i] < e[j] and p[i] < p[j] - TOL.passivity:
                return False
    return True
