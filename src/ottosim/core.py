"""Dense Hermitian linear algebra for small quantum systems.

Everything here works on plain complex numpy arrays at dimension d <= 8:
Hermitian eigensystems, density matrices, Gibbs states, energy bookkeeping,
and the passivity predicate used by the measurement-engine theorems.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ._record import Record
from .errors import (InvalidField, LengthMismatch, NotHermitian, OttoSimError,
                     DimensionMismatch)
from .tolerances import TOL


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    [m] = _floats("matrix entries must be numbers", [entries], dtype=complex)
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


def _require(name: str, value, cls: type) -> None:
    """InvalidField naming the argument or field unless value is a cls."""
    if not isinstance(value, cls):
        raise InvalidField(f"{name} must be a {cls.__name__}, got {value!r}")


def _empty(what: str, shape, dtype=float) -> np.ndarray:
    """np.empty(shape, dtype), or OttoSimError naming what if it cannot be
    allocated; the allocation fails before any memory is taken."""
    try:
        return np.empty(shape, dtype)
    except (MemoryError, ValueError):
        raise OttoSimError(f"{what} is too large to hold in memory") from None


def _integer(name: str, value, low: int, high=None) -> int:
    """int(value), checked to be an integer, not a bool, in [low, high]."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < low or high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidField(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def _floats(what: str, values, dtype=float) -> list:
    """Each of the iterable values as an array of dtype, float or complex.
    OttoSimError, what followed by the cause, if values is not iterable or
    one of them is or holds text, holds something that is no number of
    that kind, or is beyond the float range. Text is no number here, as
    in _real, though numpy would parse it."""
    arrays = []
    try:
        for v in values:
            a = np.asarray(v)
            if a.dtype.kind in "SU" or a.dtype == object and any(
                    isinstance(x, (str, bytes)) for x in a.flat):
                raise TypeError(f"text is no number: {v!r}")
            arrays.append(np.asarray(v, dtype=dtype))
    except (TypeError, ValueError, OverflowError) as exc:
        raise OttoSimError(f"{what}: {exc}") from None
    return arrays


def _probabilities(pops, energies):
    """pops and energies as finite float vectors of one length, with pops
    checked to be a probability vector (so not empty)."""
    p, e = _floats("pops and energies must be real numbers",
                   (pops, energies))
    if p.shape != e.shape or p.ndim != 1:
        raise LengthMismatch(f"pops shape {p.shape} vs energies shape {e.shape}")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(e))):
        raise OttoSimError("pops and energies must be finite numbers")
    with np.errstate(over="ignore"):
        total = p.sum()
    if not (p.size and p.min() >= -TOL.population
            and abs(total - 1.0) <= TOL.population):
        raise OttoSimError("pops is not a probability vector")
    return p, e


def _dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag)/2 of a finite matrix or of each matrix in a stack;
    halved before the sum if the sum overflows (beyond about 9e307)."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return 0.5 * (m + _dagger(m))
    except FloatingPointError:
        return 0.5 * m + 0.5 * _dagger(m)


def hermitian_defect(m: np.ndarray) -> float:
    """Max-norm distance from m to its conjugate transpose, inf where it
    is too large to represent.

    m may be a stack of shape (..., d, d); the worst matrix counts.
    """
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(m - _dagger(m))))


class HermitianOperator(Record):
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

    Every check applies to each matrix of the stack, and a NaN fails it.
    Orthonormality is checked against an absolute tolerance, the
    reconstruction against TOL.reconstruction times max(1, largest
    |eigenvalue|) of its matrix, the scale of its rounding.
    Returns the symmetrized matrices, the ascending eigenvalues (..., d)
    and the eigenvectors (..., d, d), column n belonging to eigenvalue n.
    """
    defect = hermitian_defect(m)
    if not defect <= TOL.hermitian:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {TOL.hermitian}")
    m = _hermitian_part(m)
    vals, vecs = np.linalg.eigh(m)
    gram = _dagger(vecs) @ vecs
    if not np.max(np.abs(gram - np.eye(m.shape[-1]))) <= TOL.orthonormal:
        raise OttoSimError("eigenvector orthonormality check failed")
    with np.errstate(over="ignore", invalid="ignore"):
        rebuilt = (vecs * vals[..., None, :]) @ _dagger(vecs)
        worst = np.abs(rebuilt - m).max(axis=(-2, -1))
        scale = np.maximum(1.0, np.abs(vals).max(axis=-1))
    if not (worst <= TOL.reconstruction * scale).all():
        raise OttoSimError("spectral reconstruction check failed")
    return m, vals, vecs


class DensityMatrix(Record):
    """Positive unit-trace Hermitian matrix; validated at construction.

    The matrix is refused exactly where eigvalsh puts its smallest
    eigenvalue below -TOL.positivity; most matrices are cleared by a
    Cholesky factorization instead (see _densities).
    """

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
    returns the stack of Hermitian parts. A NaN fails every check.

    Positivity is first proved for the whole stack by one Cholesky
    factorization of sym + (TOL.positivity/2) I, sym the Hermitian parts.
    A finite factor L has L L^dag = sym + (TOL.positivity/2) I + E with
    |E| <= gamma_(d+1) |L| |L^dag| entrywise (Higham, Accuracy and
    Stability, Thm 10.3), so ||E||_2 <= gamma_(d+1) tr(L L^dag), and every
    eigenvalue of sym is at least -TOL.positivity/2 - gamma_(d+1) tr(L L^dag).
    The trace check runs first, so tr(L L^dag) is about 1 and the floor
    is -5e-11 - O(d eps); eigvalsh, backward stable on a matrix of norm
    about 1, then puts no eigenvalue below -TOL.positivity either, and the
    stack passes as it would pass eigvalsh. Any other stack (no factor,
    or one that is not finite) goes to eigvalsh, which decides and words
    the error.
    """
    defect = hermitian_defect(m)
    if not defect <= TOL.hermitian:
        raise NotHermitian(f"density matrix defect {defect:.3e}")
    with np.errstate(over="ignore", invalid="ignore"):
        tr = np.trace(m, axis1=-2, axis2=-1).reshape(-1)
        off = np.abs(tr - 1.0)
    worst = int(np.argmax(off))
    if not off[worst] <= TOL.trace:
        raise OttoSimError(f"trace {complex(tr[worst])} is not 1 within {TOL.trace}")
    sym = _hermitian_part(m)
    if not _factors(sym + 0.5 * TOL.positivity * np.eye(sym.shape[-1])):
        smallest = float(np.linalg.eigvalsh(sym).min())
        if not smallest >= -TOL.positivity:
            raise OttoSimError(f"negative eigenvalue {smallest:.3e}")
    return sym


def _factors(m: np.ndarray) -> bool:
    """True iff every matrix of the Hermitian stack m has a finite
    Cholesky factor. numpy returns a NaN factor, without LinAlgError,
    for a NaN diagonal, so the factor's entries are checked too."""
    try:
        with np.errstate(all="ignore"):
            return bool(np.isfinite(np.linalg.cholesky(m)).all())
    except np.linalg.LinAlgError:
        return False


class BathSpec(Record):
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


def row_min(x: np.ndarray) -> np.ndarray:
    """Minimum over the last axis, by np.minimum over its columns, which
    is cheaper than a reduction over a short axis; a NaN in a row makes
    its minimum NaN. IndexError for an empty last axis or a 0-d array."""
    low = x[..., 0]
    for k in range(1, x.shape[-1]):
        low = np.minimum(low, x[..., k])
    return low


def boltzmann_populations(energies, beta: float) -> np.ndarray:
    """Gibbs weights e^(-beta E_n)/Z with the ground energy subtracted first.

    energies is one spectrum of shape (d,) or a stack of spectra of shape
    (..., d); each spectrum along the last axis is normalised on its own.
    A weight too small to represent is 0; OttoSimError if a population is
    not finite (a non-finite energy or beta), an input is no real number,
    a spectrum has no level or beta does not broadcast against energies.
    """
    e, beta = _floats("energies and beta must be real numbers",
                      (energies, beta))
    with np.errstate(over="ignore", invalid="ignore"):
        try:  # no level, or a beta that does not broadcast
            w = np.exp(-beta * (e - row_min(e)[..., None]))
            p = w / row_sum(w)[..., None]
        except (ValueError, IndexError) as exc:
            raise OttoSimError(f"energies of shape {e.shape} and beta of "
                               f"shape {beta.shape}: {exc}") from None
    if not np.isfinite(p).all():
        raise OttoSimError("Boltzmann populations need finite energies and "
                           "a finite beta")
    return p


def gibbs_state(h: HermitianOperator, bath: BathSpec) -> DensityMatrix:
    """Thermal state e^(-beta H)/Z, diagonal in the eigenbasis of h."""
    _require("h", h, HermitianOperator)
    _require("bath", bath, BathSpec)
    pops = boltzmann_populations(h.eigenvalues, bath.beta)
    rho = (h.eigenvectors * pops) @ h.eigenvectors.conj().T
    return DensityMatrix(rho)


def energy_expectation(rho: DensityMatrix, h: HermitianOperator) -> float:
    """Tr[rho H] as a real number.

    Raises DimensionMismatch on shape disagreement; the imaginary residue
    must stay below tolerance (it is discarded after the check).
    """
    _require("rho", rho, DensityMatrix)
    _require("h", h, HermitianOperator)
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs operator dim {h.dim}")
    return float(_energies(rho.matrix, h.matrix))


def _energies(rho: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr[rho H] over stacks (..., d, d), real parts after the residue
    check; OttoSimError if one is too large to represent."""
    with np.errstate(over="ignore", invalid="ignore"):
        val = np.trace(rho @ h, axis1=-2, axis2=-1)
    residue = float(np.max(np.abs(val.imag)))
    if not residue <= TOL.imag_residue:
        raise OttoSimError(f"imaginary residue {residue:.3e} in energy expectation")
    if not np.isfinite(val.real).all():
        raise OttoSimError("energy expectation is too large to represent")
    return val.real


def populations_in_basis(rho: DensityMatrix, h: HermitianOperator) -> np.ndarray:
    """Diagonal of rho in the eigenbasis of h: p_n = <v_n|rho|v_n>."""
    _require("rho", rho, DensityMatrix)
    _require("h", h, HermitianOperator)
    if rho.dim != h.dim:
        raise DimensionMismatch(f"state dim {rho.dim} vs operator dim {h.dim}")
    v = h.eigenvectors
    pops = np.real(np.einsum("in,ij,jn->n", v.conj(), rho.matrix, v))
    if not (pops.min() >= -TOL.population
            and pops.max() <= 1 + TOL.population):
        raise OttoSimError(f"population out of range: {pops}")
    if not abs(pops.sum() - 1.0) <= TOL.population:
        raise OttoSimError(f"populations sum to {pops.sum()}, not 1")
    return pops


def is_passive(pops, energies) -> bool:
    """True iff populations never increase with energy.

    Ties in energy impose no ordering constraint; comparisons carry a small
    slack so Gibbs states built through floating-point arithmetic pass.
    """
    p, e = _probabilities(pops, energies)
    for i in range(len(p)):
        for j in range(len(p)):
            if e[i] < e[j] and p[i] < p[j] - TOL.passivity:
                return False
    return True
