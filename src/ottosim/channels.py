"""Kraus channels, structural predicates, and energy-transfer analysis.

A channel is a finite set of Kraus operators {M_a} with
sum_a M_a^dag M_a = 1 (trace preserving). Unital channels additionally
satisfy sum_a M_a M_a^dag = 1 and can only raise the mean energy of a
passive state; theorem1_suite samples that claim over random channels,
states and Hamiltonians, and the brute-force oracles here let tests
verify it without trusting the main code path.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from ._record import Record
from .core import (DensityMatrix, HermitianOperator, _dagger, _densities,
                   _eigensystems, _empty, _energies, _finite, _floats,
                   _hermitian_part, _integer, _probabilities, _real,
                   _require, as_complex_matrix, boltzmann_populations,
                   energy_expectation, populations_in_basis, row_sum)
from .errors import (DimensionMismatch, DimensionTooLarge, NotTracePreserving,
                     OttoSimError)
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
    kraus = np.array(ops)[None]
    return _channel_records(kraus, _check_kraus(kraus))[0]


def _channel_records(kraus: np.ndarray, unital: np.ndarray) -> list:
    """One KrausChannel per channel of a Kraus stack (..., r, d, d) that
    _check_kraus passed, given the unital flags it returned, in row-major
    order. Each channel's operators are views of the stack."""
    unital = unital.reshape(-1).tolist()
    r, d = kraus.shape[-3:-1]
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
    """Check Kraus stacks of shape (..., r, d, d): every entry finite and
    every channel trace preserving. Returns each channel's unital flag,
    sum_a M_a M_a^dag = 1 within TOL.channel, of shape (...).

    That sum is one product per channel, K K^dag, with K = [M_1 ... M_r]
    the operators side by side, of shape (d, r d): the same r d terms per
    entry as the sum of r products, in another order, so the two defects
    differ only by rounding, as in _check_trace_preserving.
    """
    _check_trace_preserving(_finite(kraus))
    r, d = kraus.shape[-3:-1]
    side = kraus.swapaxes(-3, -2).reshape(*kraus.shape[:-3], d, r * d)
    return np.abs(side @ _dagger(side) - _identity(d)).max(axis=(-2, -1)) \
        <= TOL.channel


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


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """rho -> sum_a M_a rho M_a^dag."""
    _require("ch", ch, KrausChannel)
    _require("rho", rho, DensityMatrix)
    if ch.dim != rho.dim:
        raise DimensionMismatch(f"channel dim {ch.dim} vs state dim {rho.dim}")
    return DensityMatrix(_apply_kraus(np.asarray(ch.operators), rho.matrix))


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
    t = _transfer_entries(np.asarray(ch.operators), h.eigenvectors)
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


def _projective_channels(states: np.ndarray) -> tuple:
    """(kraus, unital): the rank-1 projectors |s><s| onto the rows s of
    states (..., r, d), one channel per set of r states, as a Kraus stack
    (..., r, d, d) that _check_kraus passed, and the unital flags it
    returned."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a projector too large to represent fails _check_kraus
        projectors = states[..., :, None] * states.conj()[..., None, :]
    return projectors, _check_kraus(projectors)


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


def random_unital_channel(dim: int, seed: int, mix_count: int) -> KrausChannel:
    """Random mixture of unitaries {sqrt(q_j) U_j}; deterministic per seed.

    default_rng(seed) draws q (mix_count uniforms + 0.1, then divided by
    their sum, added left to right), then for each j the real and then
    the imaginary parts of a Gaussian d x d matrix a_j, and d angles
    2 pi u in [0, 2 pi) from d uniforms u of random(), which are the bits
    of uniform(0, 2 pi). U_j is the eigenvector matrix of (a_j + a_j^dag)/2
    times diag(e^(i angles)).
    """
    dim = _integer("dim", dim, 2)
    seed = _integer("seed", seed, 0)
    mix_count = _integer("mix_count", mix_count, 1)
    what = f"a mixture of {mix_count} unitaries of dim {dim}"
    normals = _empty(what, (mix_count, 2, dim, dim))
    turns = _empty(what, (mix_count, dim))
    weights = _empty(what, mix_count)
    _draw_unitary_mixture(np.random.default_rng(seed), weights, normals,
                          turns)
    _normalize_weights(weights, [mix_count])
    bases = _eigensystems(_finite(_hermitian_part(_complex(normals))))[2]
    return kraus_channel(list(_unitary_mixture(weights, bases, turns)))


def _draw_unitary_mixture(rng, weights: np.ndarray,
                          normals: np.ndarray, turns: np.ndarray) -> None:
    """Draw the numbers of random_unital_channel from the Generator rng,
    in its order, into preallocated stacks: the raw uniforms behind q
    into weights (r,) (_normalize_weights makes them q), the normals of
    each a_j into normals (r, 2, d, d) and its uniforms u, the angles in
    turns, into turns (r, d)."""
    rng.random(out=weights)
    for j in range(len(weights)):
        rng.standard_normal(out=normals[j])
        rng.random(out=turns[j])


def _normalize_weights(weights: np.ndarray, counts) -> None:
    """Turn the raw uniforms of consecutive mixtures of counts[i]
    unitaries, stacked in weights, into their q in place: add 0.1, then
    divide each mixture's weights by their sum.

    The sums are row_sum over the weights padded with zeros to rows of
    the largest count, a left-to-right fold from 0.0: the bits of
    numpy's w.sum() for fewer than 8 weights, which numpy adds in that
    order (it adds 8 or more pairwise); a zero adds exactly.
    """
    weights += 0.1
    counts = np.asarray(counts)
    padded = np.zeros((len(counts), counts.max()))
    padded[np.arange(padded.shape[1]) < counts[:, None]] = weights
    weights /= np.repeat(row_sum(padded), counts)


# numpy's SeedSequence, through which default_rng(seed) seeds PCG64, for a
# seed of one uint32 word and a pool of 4 words. Its hash multiplies a
# word x by a constant that steps by a fixed multiplier before each use:
# x ^= c; c *= m; x *= c; x ^= x >> 16. The constants do not depend on the
# data, so each hash's (xor, multiplier) pair is tabulated here.
_MASK32 = 0xFFFFFFFF


def _hash_pairs(start, step, count):
    """count (xor, multiplier) pairs of a SeedSequence hash, (count, 2)."""
    pairs = []
    for _ in range(count):
        pairs.append((start, start * step & _MASK32))
        start = start * step & _MASK32
    return np.array(pairs, dtype=np.uint32)


def _hashed(x, pairs):
    """The hash of uint32 words x under (xor, multiplier) pairs that
    broadcast against x; the products wrap, as in uint32."""
    x = (x ^ pairs[..., 0]) * pairs[..., 1]
    return x ^ (x >> 16)


# the entropy pool: the seed word and three zero words, then every word
# mixed with the hash of every other, source by source (its 3 targets at
# once); generate_state's 8 words, which cycle over the pool
_POOL_PAIRS = _hash_pairs(0x43B0D7E5, 0x931E8875, 16)
_POOL_ZEROS = _hashed(np.zeros(3, dtype=np.uint32), _POOL_PAIRS[1:4])[:, None]
_MIX_PAIRS = _POOL_PAIRS[4:].reshape(4, 3, 1, 2)
_MIX_TARGETS = [[t for t in range(4) if t != src] for src in range(4)]
_STATE_PAIRS = _hash_pairs(0x8B51F9DD, 0x58F38DED, 8)[:, None]
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _pcg64_states(seeds) -> list:
    """The PCG64 state and increment, as (state, inc) Python ints, that
    np.random.default_rng(s) starts from, for each seed s in seeds.

    Each seed below 2**32 is one uint32 word of entropy. SeedSequence
    hashes it and three zero words into a pool of 4 words and mixes every
    pool word into every other, L x - R hash(y) with x ^= x >> 16; its
    generate_state(4, uint64) hashes the pool into 8 words, the 128-bit
    seed and stream of PCG64's set_seed, which takes two LCG steps. The
    pool words are uint32 arrays over all seeds at once, where products
    wrap; the 128-bit steps are Python ints. OttoSimError for a seed
    outside [0, 2**32).
    """
    seeds = list(seeds)
    if not all(isinstance(s, int) and 0 <= s <= _MASK32 for s in seeds):
        raise OttoSimError("mixture seeds must be integers in [0, 2**32)")
    pool = np.empty((4, len(seeds)), dtype=np.uint32)
    pool[0] = _hashed(np.array(seeds, dtype=np.uint32), _POOL_PAIRS[0])
    pool[1:] = _POOL_ZEROS
    for src, targets in enumerate(_MIX_TARGETS):
        mixed = (0xCA01F9DD * pool[targets]
                 - 0x4973F715 * _hashed(pool[src], _MIX_PAIRS[src]))
        pool[targets] = mixed ^ (mixed >> 16)
    words = _hashed(np.concatenate((pool, pool)), _STATE_PAIRS)
    # each uint64 is two uint32 words, the first the low half
    words = words.astype(np.uint64)
    seed_hi, seed_lo, inc_hi, inc_lo = (
        words[0::2] | words[1::2] << 32).tolist()
    out = []
    for hi, lo, ihi, ilo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        inc = ((ihi << 64 | ilo) << 1 | 1) & _MASK128
        out.append((((inc + (hi << 64 | lo)) * _PCG64_MULT + inc) & _MASK128,
                    inc))
    return out


def _uniform(rng, low: float, high: float, size=None):
    """rng.uniform(low, high, size) by numpy's own formula,
    low + (high - low) * u: the same bits and the same stream, without
    uniform's argument handling."""
    return low + (high - low) * rng.random(size)


def _complex(normals: np.ndarray, out=None) -> np.ndarray:
    """re + 1j im of normals (..., 2, d, d), drawn real parts first, into
    out if given."""
    out = np.multiply(normals[..., 1, :, :], 1j, out=out)
    out += normals[..., 0, :, :]
    return out


def _unitary_mixture(weights: np.ndarray, bases: np.ndarray,
                     turns: np.ndarray) -> np.ndarray:
    """Kraus operators sqrt(q_j) V_j diag(e^(2 pi i turns_j)), over stacks.

    weights (..., r), eigenbases (..., r, d, d), turns (..., r, d). The
    angles 2 pi turns are the bits of uniform(0, 2 pi) for the same
    uniforms, as 0 + 2 pi u is 2 pi u.
    """
    d = turns.shape[-1]
    phases = np.zeros(turns.shape + (d,), dtype=complex)
    phases[..., range(d), range(d)] = np.exp(1j * (2.0 * np.pi * turns))
    return np.sqrt(weights)[..., None, None] * (bases @ phases)


def rearrangement_oracle(pops, energies) -> float:
    """Minimum of sum_n E_n p_sigma(n) over all permutations, by brute force.

    The passive arrangement (largest populations on smallest energies)
    attains this minimum; enumeration is capped at d <= 6. pops must be a
    probability vector, and a sum too large to represent, under any
    permutation, raises OttoSimError.
    """
    p, e = _probabilities(pops, energies)
    if len(p) > 6:
        raise DimensionTooLarge(f"refusing {len(p)}! permutations (cap is 6)")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [float(np.dot(e, np.take(p, perm)))
                for perm in itertools.permutations(range(len(p)))]
    if not all(map(math.isfinite, sums)):
        raise OttoSimError("an energy sum is too large to represent")
    return min(sums)


def channel_populations(ch: KrausChannel, rho: DensityMatrix,
                        h: HermitianOperator) -> np.ndarray:
    """Energy populations of E(rho): convenience for p' = T p checks."""
    return populations_in_basis(apply_channel(ch, rho), h)


class Theorem1Report(Record):
    """Outcome of the unital-channel energy-gain property suite.

    min_unital is the smallest energy change over the unital samples other
    than the identity. max_identity is the largest |energy change| over
    the identity-channel samples, which must leave every energy exactly
    unchanged.
    """

    samples: int
    dims: tuple
    seed: int
    min_unital: float
    control_samples: int
    min_control: float
    control_negative_found: bool
    passed: bool
    max_identity: float = 0.0

    def lines(self):
        if self.max_identity == 0.0:
            identity = "identity-channel row: energy change 0 (exact)"
        else:
            identity = (f"identity-channel row: max |energy change| "
                        f"{self.max_identity:.6e} (expected exactly 0)")
        return [
            f"unital-channel suite: {self.samples} samples, dims "
            f"{','.join(str(d) for d in self.dims)}, seed {self.seed}",
            f"min energy change over non-identity unital channels on "
            f"passive states: "
            f"{self.min_unital:.6e} (floor {-TOL.theorem_slack:g})",
            identity,
            f"non-unital control group: {self.control_samples} samples, "
            f"min energy change {self.min_control:.6e}, expected-negative "
            f"found: {'yes' if self.control_negative_found else 'no'}",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]


# Samples drawn and computed per array pass of theorem1_suite, control
# samples included: the default 500 and their 25 take one pass, one stack
# per dimension, and peak at about 840 KiB over dims 2, 3 and 4
# (tracemalloc). Only the schedule and the changes grow with the sample
# count, about 22 bytes a sample (1,273 KiB at 20,000 samples).
_THEOREM1_BLOCK = 525

# Channel kinds: the unital samples' three, then the control group's
# damping. A mixture draws 1 to 4 unitaries, and a projective channel or a
# damping has d <= 4 operators, so 4 Kraus slots hold any channel; unused
# slots stay zero.
_MIXTURE, _PROJECTIVE, _IDENTITY, _DAMPING = range(4)
_KRAUS_SLOTS = 4


def _theorem1_schedule(dims, samples):
    """(dim, channel kind, Gibbs state?) of each unital sample, in order.

    The samples cycle through every combination: the dimension changes
    fastest, then the channel kind, then the state (Gibbs, then sorted).
    """
    combos = [(dim, kind, gibbs) for gibbs in (True, False)
              for kind in (_MIXTURE, _PROJECTIVE, _IDENTITY) for dim in dims]
    return [combos[i % len(combos)] for i in range(samples)]


class _Theorem1Draws:
    """Random numbers of a block's samples of one dimension, unital and
    control, drawn straight into stacks allocated from their schedule
    entries.

    Sample k's Hamiltonian normals (2, d, d) go to hamiltonians[k], or for
    a control sample its sorted level energies, on the diagonal of the
    real part; its Gibbs beta to betas[k] or the d uniforms behind its
    passive populations to uniforms[k]; its Kraus rank to ranks[k].
    Channel normals (2, d, d) take the rows of normals: the first
    `projective` rows hold the projective channels, one each, and the rows
    after them the unitaries of the mixtures, in drawing order, with their
    weights and turns in the same rows of weights and turns. The main
    stream gives each mixture its seed and count; draw_mixtures fills the
    mixture rows from the seeds' own streams through the Generator mixer
    once the stack's main-stream draws are done. Each control sample's
    damping strength is appended to gammas.
    """

    def __init__(self, dim, entries, mixer):
        self.dim, self.mixer = dim, mixer
        self.kinds = [kind for _, kind, _ in entries]
        self.gibbs = [gibbs for _, _, gibbs in entries]
        # a mixture's rank is its count, known once it is drawn
        self.ranks = [1 if kind == _IDENTITY else dim for kind in self.kinds]
        n = len(entries)
        self.projective = self.kinds.count(_PROJECTIVE)
        rows = self.projective + _KRAUS_SLOTS * self.kinds.count(_MIXTURE)
        self.hamiltonians = np.empty((n, 2, dim, dim))
        self.betas = np.empty(n)
        self.uniforms = np.empty((n, dim))
        self.normals = np.empty((rows, 2, dim, dim))
        self.weights = np.empty(rows)
        self.turns = np.empty((rows, dim))
        self.seeds, self.counts = [], []  # of each mixture
        self.gammas = []  # of each control sample
        self.drawn = self.next_projective = 0
        self.next_unitary = self.projective

    def __len__(self):
        return len(self.kinds)

    def draw(self, rng):
        """Draw the next sample as the scalar route does: the Hamiltonian,
        the state, then the channel; for a control sample, its level
        energies, beta, then the damping's gamma."""
        k = self.drawn
        self.drawn = k + 1
        kind = self.kinds[k]
        if kind == _DAMPING:
            energies = np.sort(_uniform(rng, -2.0, 2.0, self.dim))
            self.hamiltonians[k] = 0.0
            np.fill_diagonal(self.hamiltonians[k, 0], energies)
            self.betas[k] = _uniform(rng, 0.2, 1.0)
            # the sink, argmin of the sorted energies, is level 0
            self.gammas.append(_uniform(rng, 0.3, 0.9))
            return
        rng.standard_normal(out=self.hamiltonians[k])
        if self.gibbs[k]:
            self.betas[k] = _uniform(rng, 0.05, 5.0)
        else:
            rng.random(out=self.uniforms[k])
        if kind == _MIXTURE:
            self.seeds.append(int(rng.integers(2 ** 31)))
            count = int(rng.integers(1, 5))
            self.next_unitary += count
            self.counts.append(count)
            self.ranks[k] = count
        elif kind == _PROJECTIVE:
            rng.standard_normal(out=self.normals[self.next_projective])
            self.next_projective += 1

    def draw_mixtures(self):
        """Draw each mixture's numbers from default_rng(seed)'s stream, as
        random_unital_channel does, through the Generator mixer: its PCG64
        takes the state that default_rng(seed) starts from before each
        mixture. The main stream never sees these streams, so drawing
        them after it loses nothing."""
        if not self.seeds:
            return
        mixer = self.mixer
        bits = mixer.bit_generator
        first = row = self.projective
        for (state, inc), count in zip(_pcg64_states(self.seeds),
                                       self.counts):
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": state, "inc": inc},
                          "has_uint32": 0, "uinteger": 0}
            rows = slice(row, row + count)
            _draw_unitary_mixture(mixer, self.weights[rows],
                                  self.normals[rows], self.turns[rows])
            row += count
        _normalize_weights(self.weights[first:row], self.counts)


def _stack_changes(dim, draws):
    """Energy changes of the samples of one _Theorem1Draws, unital and
    control, in drawing order, once its mixtures are drawn.

    The stack is computed in rank order, its samples sorted by Kraus rank,
    largest first (a stable sort), so that Kraus slot a multiplies only
    the leading rows whose rank is above a. The Hamiltonians, in that
    order, and then the channel normals go through one eigensystem call.
    Drawn uniforms u become passive populations: sort(u + 1e-3)
    descending against ascending energies, normalized.
    """
    draws.draw_mixtures()
    n, p, r = len(draws), draws.projective, draws.next_unitary
    ranks = np.array(draws.ranks)
    order = np.concatenate([np.flatnonzero(ranks == rank)
                            for rank in range(_KRAUS_SLOTS, 0, -1)])
    where = np.empty(n, dtype=int)  # each sample's row in rank order
    where[order] = np.arange(n)
    matrices = np.empty((n + r, dim, dim), dtype=complex)
    _complex(draws.hamiltonians[order], out=matrices[:n])
    _complex(draws.normals[:r], out=matrices[n:])
    # each stack goes once the next is made from it
    matrices = _finite(_hermitian_part(matrices))
    h, vals, vecs = _eigensystems(matrices)
    del matrices
    gibbs = np.array(draws.gibbs)[order]
    pops = np.empty((n, dim))
    if not gibbs.all():
        passive = np.sort(draws.uniforms[order[~gibbs]] + 1e-3)[:, ::-1]
        pops[~gibbs] = passive / passive.sum(axis=1, keepdims=True)
    if gibbs.any():
        pops[gibbs] = boltzmann_populations(vals[:n][gibbs],
                                            draws.betas[order[gibbs], None])

    kinds = np.array(draws.kinds)
    kraus = np.zeros((n, _KRAUS_SLOTS, dim, dim), dtype=complex)
    kraus[where[kinds == _IDENTITY], 0] = np.eye(dim)
    if p:
        # Projector k of a basis is the outer product of its column k.
        cols = vecs[n:n + p].swapaxes(-1, -2)
        kraus[where[kinds == _PROJECTIVE], :dim] = (cols[..., :, None]
                                                    * cols.conj()[..., None, :])
    if r > p:
        counts = np.array(draws.counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        kraus[np.repeat(where[kinds == _MIXTURE], counts),
              np.arange(r - p) - first] = _unitary_mixture(
                  draws.weights[p:r], vecs[n + p:], draws.turns[p:r])
    if draws.gammas:
        kraus[where[kinds == _DAMPING], :dim] = _damping_operators(
            dim, draws.gammas, 0)
    ends = [np.count_nonzero(ranks > a) for a in range(_KRAUS_SLOTS)]
    return _passive_energy_changes(h[:n], vecs[:n], pops, kraus, ends)[where]


def _passive_energy_changes(h, vecs, pops, kraus, ends):
    """Tr[(E(rho) - rho) H] for rho = sum_n pops_n |v_n><v_n|, per sample.

    h (n, d, d) with eigenvectors vecs, pops (n, d), Kraus stacks
    kraus (n, r, d, d), applied as _apply_kraus applies them given ends.
    Both states pass the DensityMatrix checks and the channels the
    trace-preservation check.
    """
    rho = _densities(_finite((vecs * pops[:, None, :]) @ _dagger(vecs)))
    _check_trace_preserving(_finite(kraus))
    post = _densities(_finite(_apply_kraus(kraus, rho, ends)))
    return _energies(post, h) - _energies(rho, h)


def _theorem1_energy_changes(dims, samples, seed):
    """Schedule and per-sample energy changes of theorem1_suite.

    Returns the schedule, the unital samples' changes (one per schedule
    entry) and the control group's changes. The control samples follow
    the unital ones in one schedule, a damped Gibbs state each, their
    dimension cycling through dims. Each block of _THEOREM1_BLOCK samples
    of it is drawn in order from one generator into one _Theorem1Draws
    per dimension present, allocated from the block's schedule entries;
    then _stack_changes computes each stack. The changes' array is
    allocated before the schedule and the first draw.
    """
    controls = max(10, samples // 20)
    changes = _empty(f"a theorem1 suite of {samples} samples",
                     samples + controls)
    rng = np.random.default_rng(seed)
    # reseeded for each unitary mixture: its first state is never used
    mixer = np.random.Generator(np.random.PCG64(0))
    schedule = _theorem1_schedule(dims, samples)
    schedule += [(dims[i % len(dims)], _DAMPING, True)
                 for i in range(controls)]
    for start in range(0, len(schedule), _THEOREM1_BLOCK):
        block = schedule[start:start + _THEOREM1_BLOCK]
        index = {}
        for i, entry in enumerate(block, start):
            index.setdefault(entry[0], []).append(i)
        stacks = {dim: _Theorem1Draws(dim, [schedule[i] for i in at], mixer)
                  for dim, at in index.items()}
        for entry in block:
            stacks[entry[0]].draw(rng)
        for dim, rows in index.items():
            # a stack's arrays go once it is computed
            changes[rows] = _stack_changes(dim, stacks.pop(dim))
    del schedule[samples:]
    return schedule, changes[:samples], changes[samples:]


def theorem1_suite(dims=(2, 3, 4), samples: int = 1000,
                   seed: int = 1) -> Theorem1Report:
    """Property suite: unital channels never drain passive states.

    Draws (channel, passive state, Hamiltonian) triples across the given
    dimensions, mixing unitary-mixture channels, random projective
    channels, and the identity; records the minimum energy change over
    the non-identity channels and requires every identity sample to
    change the energy by exactly 0.
    The control group applies non-unital ground-sink damping to excited
    thermal states and must find a strictly negative energy change.

    The random numbers are drawn sample by sample from one generator, the
    control group after the unital samples, straight into preallocated
    stacks, one per dimension, for each block of _THEOREM1_BLOCK samples.
    A unitary mixture takes only its seed and count from that stream; its
    own numbers come from default_rng(seed)'s stream, which one shared
    Generator is reseeded to (_pcg64_states, checked against numpy's
    constructor by the tests) once the stack's other draws are done. A
    uniform in [lo, hi) is lo + (hi - lo) * random() and a mixture angle
    2 pi u for u = random(): numpy's own formula for uniform(lo, hi), so
    the values and the stream are uniform's. Each stack then takes one
    eigensystem call, for its Hamiltonians, control spectra and channel
    bases, and one energy-change pass, its samples ordered by Kraus rank
    so that each Kraus slot multiplies only the rows that use it, with
    every check of the scalar calls (hermitian_eigensystem, kraus_channel,
    DensityMatrix, energy_expectation) applied to each sample. Each energy
    change holds the bits of the scalar route through those calls.
    """
    try:
        given = list(dims)
    except TypeError:
        given = []
    if not given:
        raise OttoSimError(f"dims must be integers in {{2,3,4}}, got {dims!r}")
    dims = tuple(sorted({_integer("dims", d, 2, 4) for d in given}))
    samples = _integer("samples", samples, 1)
    seed = _integer("seed", seed, 0)
    schedule, changes, control = _theorem1_energy_changes(dims, samples, seed)
    identity = np.array([kind == _IDENTITY for _, kind, _ in schedule])
    max_identity = float(np.abs(changes[identity]).max(initial=0.0))
    # the first sample is always a mixture, so this is never empty
    min_unital = float(changes[~identity].min())
    min_control = float(control.min())
    found = min_control < -1e-6
    passed = ((min_unital >= -TOL.theorem_slack) and found
              and max_identity == 0.0)
    return Theorem1Report(samples=samples, dims=dims, seed=seed,
                          min_unital=min_unital,
                          control_samples=len(control),
                          min_control=min_control,
                          control_negative_found=found, passed=passed,
                          max_identity=max_identity)
