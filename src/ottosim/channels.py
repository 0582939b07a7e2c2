"""Kraus channels, their checks, and energy-transfer analysis.

A channel is a finite set of Kraus operators {M_a} with
sum_a M_a^dag M_a = 1 (trace preserving); a unital channel also has
sum_a M_a M_a^dag = 1. The checks, the channel action and the transfer
matrix T_mn = sum_a |<v_m|M_a|v_n>|^2 work on one channel or on stacks
of them, zero operators padding a stack without changing any bits.
_check_kraus checks a stack built here: finite, trace preserving. The
unital flag is computed only where KrausChannel records are made, in
_channel_records, so a stack that goes to the cycle kernel as it is
never pays for it.
"""

from __future__ import annotations

import functools

import numpy as np

from ._record import Record
from .core import (DensityMatrix, HermitianOperator, _dagger, _empty, _finite,
                   _floats, _hermitian_part, _integer, _real, _require,
                   as_complex_matrix, energy_expectation, populations_in_basis)
from .errors import DimensionMismatch, NotTracePreserving, OttoSimError
from .tolerances import TOL


class KrausChannel(Record):
    """Trace-preserving channel; build instances with kraus_channel()."""

    operators: tuple
    dim: int
    unital: bool


def kraus_channel(operators) -> KrausChannel:
    """Validate Kraus operators and construct a channel.

    Trace preservation is required, checked as one product K^dag K of the
    operators stacked in rows (see _check_trace_preserving); unitality is
    detected and cached on the returned channel.
    """
    ops = [as_complex_matrix(m) for m in _floats(
        "Kraus operators must be matrices of numbers", operators,
        dtype=complex)]
    if not ops:
        raise OttoSimError("a channel needs at least one Kraus operator")
    if any(m.shape != ops[0].shape for m in ops):
        raise DimensionMismatch("Kraus operators must share one square shape")
    return _channel_records(_check_kraus(np.array(ops)[None]))[0]


def _channel_records(kraus: np.ndarray) -> list:
    """One KrausChannel per channel of a Kraus stack (..., r, d, d) that
    _check_kraus passed, in row-major order. Each channel's operators are
    views of the stack, and it is unital if sum_a M_a M_a^dag = 1 within
    TOL.channel.

    That sum is one product per channel, K K^dag, with K = [M_1 ... M_r]
    the operators side by side, of shape (d, r d): the same r d terms per
    entry as the sum of r products, in another order, so the two defects
    differ only by rounding, as in _check_trace_preserving.
    """
    r, d = kraus.shape[-3:-1]
    side = kraus.swapaxes(-3, -2).reshape(*kraus.shape[:-3], d, r * d)
    unital = (np.abs(side @ _dagger(side) - _identity(d)).max(axis=(-2, -1))
              <= TOL.channel).reshape(-1).tolist()
    # every operator's view at once, channel after channel
    ops = list(kraus.reshape(-1, d, d))
    return [KrausChannel(tuple(ops[k * r:k * r + r]), d, u)
            for k, u in enumerate(unital)]


@functools.cache
def _identity(d: int) -> np.ndarray:
    """np.eye(d), built once per d; read only."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _check_kraus(kraus: np.ndarray) -> np.ndarray:
    """kraus itself, after checking that the Kraus stacks of shape
    (..., r, d, d) have every entry finite and every channel trace
    preserving."""
    _check_trace_preserving(_finite(kraus))
    return kraus


def _check_trace_preserving(kraus: np.ndarray) -> None:
    """Require sum_a M_a^dag M_a = 1 for Kraus stacks of shape (..., r, d, d).

    The sum is one product per channel, K^dag K, with K = [M_1; ...; M_r]
    the operators stacked in rows, of shape (r d, d). Each entry is the
    same r d terms as the sum of r products, in another order, and either
    way its rounding error is at most about gamma_(rd+2) sum_k |K_ki| |K_kj|
    (the 2 for complex products), at most gamma_(rd+2) max_j (K^dag K)_jj
    by Cauchy-Schwarz. So the two defects differ by at most about
    2 gamma_(rd+2) max_j (K^dag K)_jj, 4.0e-15 near 1 for r = d = 4: a
    verdict can differ from the sum of r products only for a defect
    within that band of TOL.channel.
    Zero operators may pad a stack: they add exact zeros to every sum. A
    sum too large to represent fails the check; a stack of no channel
    passes it.
    """
    r, d = kraus.shape[-3:-1]
    rows = kraus.reshape(*kraus.shape[:-3], r * d, d)
    with np.errstate(over="ignore", invalid="ignore"):
        tp = _dagger(rows) @ rows
        defect = float(np.abs(tp - _identity(d)).max(initial=0.0))
    if not defect <= TOL.channel:
        raise NotTracePreserving(f"sum M^dag M deviates from 1 by {defect:.3e}")


def _operators(ch: KrausChannel) -> np.ndarray:
    """The operators of ch as one stack (r, d, d), d = ch.dim. A channel
    built by hand skips kraus_channel's checks, so OttoSimError unless its
    operators are matrices of numbers, DimensionMismatch unless each is
    d x d; neither finiteness nor trace preservation is checked here."""
    [kraus] = _floats("Kraus operators must be matrices of numbers",
                      [ch.operators], dtype=complex)
    if kraus.ndim != 3 or kraus.shape[1:] != (ch.dim, ch.dim):
        raise DimensionMismatch(f"Kraus operators of shape {kraus.shape[1:]} "
                                f"vs channel dim {ch.dim}")
    return kraus


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """rho -> sum_a M_a rho M_a^dag."""
    _require("ch", ch, KrausChannel)
    _require("rho", rho, DensityMatrix)
    if ch.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} vs state dim {rho.dim}")
    return DensityMatrix(_apply_kraus(_operators(ch), rho.matrix))


def _apply_kraus(kraus: np.ndarray, rho: np.ndarray,
                 ends=None) -> np.ndarray:
    """Hermitian part of sum_a M_a rho M_a^dag, over stacks.

    kraus has shape (..., r, d, d) and rho (..., d, d). The terms are
    added in operator order, so a zero-padded stack gives the same bits
    as its unpadded operators. Given ends, for a stack (n, r, d, d) whose
    rows are ordered by Kraus rank, largest first, operator a multiplies
    only the first ends[a] rows, those of rank above a; the other rows
    hold a zero operator there and skip it.
    """
    out = np.zeros(rho.shape, dtype=complex)
    for a in range(kraus.shape[-3]):
        rows = slice(None if ends is None else ends[a])
        m = kraus[..., a, :, :][rows]
        out[rows] += m @ rho[rows] @ _dagger(m)
    return _hermitian_part(out)


def is_unital(ch: KrausChannel) -> bool:
    """True iff the channel maps the identity to itself."""
    _require("ch", ch, KrausChannel)
    return ch.unital


def is_minimally_disturbing(ch: KrausChannel) -> bool:
    """True iff every Kraus operator is Hermitian (a subclass of unital)."""
    _require("ch", ch, KrausChannel)
    return all(float(np.max(np.abs(m - m.conj().T))) <= TOL.channel
               for m in ch.operators)


class TransferMatrix(Record):
    """Conditional probabilities T[m, n] = p(E_m after | E_n before)."""

    entries: np.ndarray
    dim: int


def _transfer_entries(kraus: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """T[..., m, n] = sum_a |<v_m|M_a|v_n>|^2 over the columns v of basis,
    for Kraus stacks of shape (..., r, d, d).

    All amplitudes come from one einsum over the stacked Kraus operators,
    then |.|^2 is summed over the Kraus index in operator order, so zero
    operators padding a stack leave every entry's bits unchanged.
    """
    amp = np.einsum("im,...aij,jn->...amn", basis.conj(), kraus, basis)
    return (np.abs(amp) ** 2).sum(axis=-3)


def transfer_matrix(ch: KrausChannel, h: HermitianOperator) -> TransferMatrix:
    """Energy-population transfer matrix T_mn = sum_a |<v_m|M_a|v_n>|^2.

    Column sums are 1 for any trace-preserving channel; row sums are 1
    exactly when the channel is unital (bistochastic T).
    """
    _require("ch", ch, KrausChannel)
    _require("h", h, HermitianOperator)
    if ch.dim != h.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} vs operator dim {h.dim}")
    t = _transfer_entries(_operators(ch), h.eigenvectors)
    if not np.max(np.abs(t.sum(axis=0) - 1.0)) <= TOL.channel:
        raise OttoSimError("transfer matrix is not column-stochastic")
    if ch.unital and not np.max(np.abs(t.sum(axis=1) - 1.0)) <= TOL.channel:
        raise OttoSimError("unital channel produced a non-bistochastic transfer")
    return TransferMatrix(entries=t, dim=ch.dim)


def energy_change(ch: KrausChannel, rho: DensityMatrix,
                  h: HermitianOperator) -> float:
    """Tr[(E(rho) - rho) H]: mean energy injected by the channel."""
    return energy_expectation(apply_channel(ch, rho), h) - energy_expectation(rho, h)


def projective_channel(states) -> KrausChannel:
    """Channel of rank-1 projectors onto a complete orthonormal set: each
    |s><s| goes through kraus_channel, with its checks and errors."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a projector too large to represent fails kraus_channel's checks
        projectors = [np.outer(v, v.conj()) for v in _floats(
            "states must be vectors of numbers", states, dtype=complex)]
    return kraus_channel(projectors)


def _projective_channels(states: np.ndarray) -> np.ndarray:
    """The rank-1 projectors |s><s| onto the rows s of states (..., r, d),
    one channel per set of r states, as a Kraus stack (..., r, d, d) that
    _check_kraus passed."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a projector too large to represent fails _check_kraus
        projectors = states[..., :, None] * states.conj()[..., None, :]
    return _check_kraus(projectors)


def damping_channel(dim: int, gamma: float, sink: int = 0) -> KrausChannel:
    """Amplitude-damping-style channel pumping population into one basis state.

    Non-unital for gamma > 0; the standard counterexample family for
    claims that hold only for unital channels.
    """
    dim = _integer("dim", dim, 1)
    sink = _integer("sink", sink, 0, dim - 1)
    gamma = _real("gamma", gamma)
    if not 0 <= gamma <= 1:
        raise OttoSimError(f"gamma must lie in [0, 1], got {gamma}")
    return kraus_channel(_damping_operators(dim, gamma, sink))


def _damping_operators(dim: int, gamma, sink: int) -> np.ndarray:
    """The dim Kraus operators of damping_channel, stacked: keep, then
    jumps; for an array of gammas (...), one such stack each."""
    gamma = np.asarray(gamma, dtype=float)
    ops = _empty(f"a damping channel of dim {dim}",
                 gamma.shape + (dim, dim, dim), complex)
    ops.fill(0)
    ops[..., 0, range(dim), range(dim)] = np.sqrt(1.0 - gamma)[..., None]
    ops[..., 0, sink, sink] = 1.0
    for a, k in enumerate(k for k in range(dim) if k != sink):
        ops[..., a + 1, sink, k] = np.sqrt(gamma)
    return ops


def channel_populations(ch: KrausChannel, rho: DensityMatrix,
                        h: HermitianOperator) -> np.ndarray:
    """Energy populations of E(rho): convenience for p' = T p checks."""
    return populations_in_basis(apply_channel(ch, rho), h)
