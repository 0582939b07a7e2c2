"""Kraus channels, structural predicates, and energy-transfer analysis.

A channel is a finite set of Kraus operators {M_a} with
sum_a M_a^dag M_a = 1 (trace preserving). Unital channels additionally
satisfy sum_a M_a M_a^dag = 1 and can only raise the mean energy of a
passive state; the brute-force oracles here let tests verify that claim
without trusting the main code path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (DensityMatrix, HermitianOperator, _dagger, _eigensystems,
                   _finite, _hermitian_part, as_complex_matrix,
                   energy_expectation, populations_in_basis)
from .errors import (DimensionMismatch, DimensionTooLarge, LengthMismatch,
                     NotTracePreserving, OttoSimError)
from .tolerances import TOL


@dataclass(frozen=True)
class KrausChannel:
    """Trace-preserving channel; build instances with kraus_channel()."""

    operators: tuple
    dim: int
    unital: bool


def kraus_channel(operators) -> KrausChannel:
    """Validate Kraus operators and construct a channel.

    Trace preservation is required; unitality is detected and cached on
    the returned channel.
    """
    ops = tuple(as_complex_matrix(m) for m in operators)
    if not ops:
        raise OttoSimError("a channel needs at least one Kraus operator")
    d = ops[0].shape[0]
    if any(m.shape != (d, d) for m in ops):
        raise DimensionMismatch("Kraus operators must share one square shape")
    stack = np.asarray(ops)
    _check_trace_preserving(stack)
    un = (stack @ _dagger(stack)).sum(axis=0)
    unital = float(np.max(np.abs(un - np.eye(d)))) <= TOL.channel
    return KrausChannel(operators=ops, dim=d, unital=unital)


def _check_trace_preserving(kraus: np.ndarray) -> None:
    """Require sum_a M_a^dag M_a = 1 for Kraus stacks of shape (..., r, d, d).

    Zero operators may pad a stack: they add exact zeros to every sum.
    """
    tp = (_dagger(kraus) @ kraus).sum(axis=-3)
    defect = float(np.max(np.abs(tp - np.eye(kraus.shape[-1]))))
    if defect > TOL.channel:
        raise NotTracePreserving(f"sum M^dag M deviates from 1 by {defect:.3e}")


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """rho -> sum_a M_a rho M_a^dag."""
    if ch.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} vs state dim {rho.dim}")
    return DensityMatrix(_apply_kraus(np.asarray(ch.operators), rho.matrix))


def _apply_kraus(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Hermitian part of sum_a M_a rho M_a^dag, over stacks.

    kraus has shape (..., r, d, d) and rho (..., d, d). The terms are
    added in operator order, so a zero-padded stack gives the same bits
    as its unpadded operators.
    """
    out = np.zeros(rho.shape, dtype=complex)
    for a in range(kraus.shape[-3]):
        m = kraus[..., a, :, :]
        out = out + m @ rho @ _dagger(m)
    return _hermitian_part(out)


def is_unital(ch: KrausChannel) -> bool:
    """True iff the channel maps the identity to itself."""
    return ch.unital


def is_minimally_disturbing(ch: KrausChannel) -> bool:
    """True iff every Kraus operator is Hermitian (a subclass of unital)."""
    return all(float(np.max(np.abs(m - m.conj().T))) <= TOL.channel
               for m in ch.operators)


@dataclass(frozen=True)
class TransferMatrix:
    """Conditional probabilities T[m, n] = p(E_m after | E_n before)."""

    entries: np.ndarray
    dim: int


def _transfer_entries(ch: KrausChannel, basis: np.ndarray) -> np.ndarray:
    """T[m, n] = sum_a |<v_m|M_a|v_n>|^2 over the columns v of basis.

    All amplitudes come from one einsum over the stacked Kraus operators,
    then |.|^2 is summed over the Kraus index.
    """
    amp = np.einsum("im,aij,jn->amn", basis.conj(), np.asarray(ch.operators),
                    basis)
    return (np.abs(amp) ** 2).sum(axis=0)


def transfer_matrix(ch: KrausChannel, h: HermitianOperator) -> TransferMatrix:
    """Energy-population transfer matrix T_mn = sum_a |<v_m|M_a|v_n>|^2.

    Column sums are 1 for any trace-preserving channel; row sums are 1
    exactly when the channel is unital (bistochastic T).
    """
    if ch.dim != h.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} vs operator dim {h.dim}")
    t = _transfer_entries(ch, h.eigenvectors)
    if np.max(np.abs(t.sum(axis=0) - 1.0)) > TOL.channel:
        raise OttoSimError("transfer matrix is not column-stochastic")
    if ch.unital and np.max(np.abs(t.sum(axis=1) - 1.0)) > TOL.channel:
        raise OttoSimError("unital channel produced a non-bistochastic transfer")
    return TransferMatrix(entries=t, dim=ch.dim)


def energy_change(ch: KrausChannel, rho: DensityMatrix,
                  h: HermitianOperator) -> float:
    """Tr[(E(rho) - rho) H]: mean energy injected by the channel."""
    return energy_expectation(apply_channel(ch, rho), h) - energy_expectation(rho, h)


def projective_channel(states) -> KrausChannel:
    """Channel of rank-1 projectors onto a complete orthonormal set."""
    vecs = [np.asarray(s, dtype=complex).reshape(-1) for s in states]
    return kraus_channel([np.outer(v, v.conj()) for v in vecs])


def damping_channel(dim: int, gamma: float, sink: int = 0) -> KrausChannel:
    """Amplitude-damping-style channel pumping population into one basis state.

    Non-unital for gamma > 0; the standard counterexample family for
    claims that hold only for unital channels.
    """
    return kraus_channel(_damping_operators(dim, gamma, sink))


def _damping_operators(dim: int, gamma: float, sink: int) -> np.ndarray:
    """The dim Kraus operators of damping_channel, stacked: keep, then jumps."""
    if not 0 <= gamma <= 1:
        raise OttoSimError(f"gamma must lie in [0, 1], got {gamma}")
    ops = np.zeros((dim, dim, dim), dtype=complex)
    keep = np.full(dim, np.sqrt(1.0 - gamma), dtype=complex)
    keep[sink] = 1.0
    ops[0] = np.diag(keep)
    for a, k in enumerate(k for k in range(dim) if k != sink):
        ops[a + 1, sink, k] = np.sqrt(gamma)
    return ops


def random_unital_channel(dim: int, seed: int, mix_count: int) -> KrausChannel:
    """Random mixture of unitaries {sqrt(q_j) U_j}; deterministic per seed.

    Each U_j comes from diagonalizing a random Hermitian matrix and
    multiplying its eigenvector matrix by a random diagonal phase.
    """
    if dim < 2 or mix_count < 1:
        raise OttoSimError("need dim >= 2 and mix_count >= 1")
    weights, matrices, angles = _draw_unitary_mixture(dim, seed, mix_count)
    bases = _eigensystems(_finite(_hermitian_part(matrices)))[2]
    return kraus_channel(list(_unitary_mixture(weights, bases, angles)))


def _draw_unitary_mixture(dim: int, seed: int, mix_count: int):
    """The random numbers behind random_unital_channel, in the order drawn.

    Returns the mixing weights q (r,), the matrices a (r, d, d) whose
    Hermitian parts (a + a^dag)/2 give the eigenbases, and the phase
    angles (r, d), for r = mix_count.
    """
    rng = np.random.default_rng(seed)
    weights = rng.random(mix_count) + 0.1
    weights /= weights.sum()
    matrices = np.empty((mix_count, dim, dim), dtype=complex)
    angles = np.empty((mix_count, dim))
    for j in range(mix_count):
        matrices[j] = _random_matrix(rng, dim)
        angles[j] = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    return weights, matrices, angles


def _random_matrix(rng, dim: int) -> np.ndarray:
    """Complex Gaussian d x d matrix: the real parts are drawn first, then
    the imaginary parts (one draw of both gives the same stream)."""
    re_im = rng.standard_normal((2, dim, dim))
    return re_im[0] + 1j * re_im[1]


def _unitary_mixture(weights: np.ndarray, bases: np.ndarray,
                     angles: np.ndarray) -> np.ndarray:
    """Kraus operators sqrt(q_j) V_j diag(e^(i angles_j)), over stacks.

    weights (..., r), eigenbases (..., r, d, d), angles (..., r, d).
    """
    d = angles.shape[-1]
    phases = np.zeros(angles.shape + (d,), dtype=complex)
    phases[..., range(d), range(d)] = np.exp(1j * angles)
    return np.sqrt(weights)[..., None, None] * (bases @ phases)


def rearrangement_oracle(pops, energies) -> float:
    """Minimum of sum_n E_n p_sigma(n) over all permutations, by brute force.

    The passive arrangement (largest populations on smallest energies)
    attains this minimum; enumeration is capped at d <= 6.
    """
    p = np.asarray(pops, dtype=float)
    e = np.asarray(energies, dtype=float)
    if p.shape != e.shape or p.ndim != 1:
        raise LengthMismatch(f"pops shape {p.shape} vs energies shape {e.shape}")
    if len(p) > 6:
        raise DimensionTooLarge(f"refusing {len(p)}! permutations (cap is 6)")
    return min(float(np.dot(e, np.take(p, perm)))
               for perm in itertools.permutations(range(len(p))))


def channel_populations(ch: KrausChannel, rho: DensityMatrix,
                        h: HermitianOperator) -> np.ndarray:
    """Energy populations of E(rho): convenience for p' = T p checks."""
    return populations_in_basis(apply_channel(ch, rho), h)
