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

from .core import (DensityMatrix, HermitianOperator, as_complex_matrix,
                   energy_expectation, hermitian_eigensystem,
                   populations_in_basis)
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
    eye = np.eye(d)
    tp = sum(m.conj().T @ m for m in ops)
    defect = float(np.max(np.abs(tp - eye)))
    if defect > TOL.channel:
        raise NotTracePreserving(f"sum M^dag M deviates from 1 by {defect:.3e}")
    un = sum(m @ m.conj().T for m in ops)
    unital = float(np.max(np.abs(un - eye))) <= TOL.channel
    return KrausChannel(operators=ops, dim=d, unital=unital)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """rho -> sum_a M_a rho M_a^dag."""
    if ch.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} vs state dim {rho.dim}")
    out = np.zeros((ch.dim, ch.dim), dtype=complex)
    for m in ch.operators:
        out += m @ rho.matrix @ m.conj().T
    return DensityMatrix(0.5 * (out + out.conj().T))


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
    if not 0 <= gamma <= 1:
        raise OttoSimError(f"gamma must lie in [0, 1], got {gamma}")
    keep = np.full(dim, np.sqrt(1.0 - gamma), dtype=complex)
    keep[sink] = 1.0
    ops = [np.diag(keep)]
    for k in range(dim):
        if k == sink:
            continue
        jump = np.zeros((dim, dim), dtype=complex)
        jump[sink, k] = np.sqrt(gamma)
        ops.append(jump)
    return kraus_channel(ops)


def random_unital_channel(dim: int, seed: int, mix_count: int) -> KrausChannel:
    """Random mixture of unitaries {sqrt(q_j) U_j}; deterministic per seed.

    Each U_j comes from diagonalizing a random Hermitian matrix and
    multiplying its eigenvector matrix by a random diagonal phase.
    """
    if dim < 2 or mix_count < 1:
        raise OttoSimError("need dim >= 2 and mix_count >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.random(mix_count) + 0.1
    weights /= weights.sum()
    ops = []
    for q in weights:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        basis = hermitian_eigensystem(0.5 * (a + a.conj().T)).eigenvectors
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=dim))
        ops.append(np.sqrt(q) * (basis @ np.diag(phases)))
    return kraus_channel(ops)


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
