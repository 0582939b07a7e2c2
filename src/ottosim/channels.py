"""Kraus channels, structural predicates, and energy-transfer analysis.

A channel is a finite set of Kraus operators {M_a} with
sum_a M_a^dag M_a = 1 (trace preserving). Unital channels additionally
satisfy sum_a M_a M_a^dag = 1 and can only raise the mean energy of a
passive state; theorem1_suite samples that claim over random channels,
states and Hamiltonians, and the brute-force oracles here let tests
verify it without trusting the main code path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ._record import Record
from .core import (DensityMatrix, HermitianOperator, _dagger, _densities,
                   _eigensystems, _empty, _energies, _finite, _floats,
                   _hermitian_part, _integer, _probabilities, _real,
                   _require, as_complex_matrix, boltzmann_populations,
                   energy_expectation, populations_in_basis)
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
    detected and cached on the returned channel. A stack of one for
    _kraus_channels.
    """
    ops = [as_complex_matrix(m) for m in _floats(
        "Kraus operators must be matrices of numbers", operators,
        dtype=complex)]
    if not ops:
        raise OttoSimError("a channel needs at least one Kraus operator")
    if any(m.shape != ops[0].shape for m in ops):
        raise DimensionMismatch("Kraus operators must share one square shape")
    return _kraus_channels(np.array(ops)[None])[0]


def _kraus_channels(kraus: np.ndarray) -> list:
    """One KrausChannel per channel of a Kraus stack (..., r, d, d), in
    row-major order, after the checks of _check_kraus. Each channel's
    operators are views of the stack."""
    unital = _check_kraus(kraus).reshape(-1).tolist()
    flat = kraus.reshape(-1, *kraus.shape[-3:])
    return [KrausChannel(tuple(ops), kraus.shape[-1], u)
            for ops, u in zip(flat, unital)]


def _check_kraus(kraus: np.ndarray) -> np.ndarray:
    """Check Kraus stacks of shape (..., r, d, d): every entry finite and
    every channel trace preserving. Returns each channel's unital flag,
    sum_a M_a M_a^dag = 1 within TOL.channel, of shape (...)."""
    _check_trace_preserving(_finite(kraus))
    un = (kraus @ _dagger(kraus)).sum(axis=-3)
    return np.abs(un - np.eye(kraus.shape[-1])).max(axis=(-2, -1)) \
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
        defect = float(np.max(np.abs(tp - np.eye(d)), initial=0.0))
    if not defect <= TOL.channel:
        raise NotTracePreserving(f"sum M^dag M deviates from 1 by {defect:.3e}")


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """rho -> sum_a M_a rho M_a^dag."""
    _require("ch", ch, KrausChannel)
    _require("rho", rho, DensityMatrix)
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
    """Channel of rank-1 projectors onto a complete orthonormal set.

    A stack of one for _projective_channels.
    """
    vecs = [v.reshape(-1) for v in _floats(
        "states must be vectors of numbers", states, dtype=complex)]
    if not vecs:
        raise OttoSimError("a channel needs at least one Kraus operator")
    if not len(vecs[0]):
        raise DimensionMismatch("expected a square matrix, got shape (0, 0)")
    if any(v.shape != vecs[0].shape for v in vecs):
        raise DimensionMismatch("Kraus operators must share one square shape")
    return _projective_channels(np.array(vecs)[None])[0]


def _projective_channels(states: np.ndarray) -> list:
    """_kraus_channels of the rank-1 projectors |s><s| onto the rows s of
    states (..., r, d), one channel per set of r states."""
    with np.errstate(over="ignore", invalid="ignore"):
        # a projector too large to represent fails _check_kraus
        projectors = states[..., :, None] * states.conj()[..., None, :]
    return _kraus_channels(projectors)


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


def _damping_operators(dim: int, gamma: float, sink: int) -> np.ndarray:
    """The dim Kraus operators of damping_channel, stacked: keep, then jumps."""
    ops = _empty(f"a damping channel of dim {dim}", (dim, dim, dim), complex)
    ops.fill(0)
    keep = np.full(dim, np.sqrt(1.0 - gamma), dtype=complex)
    keep[sink] = 1.0
    ops[0] = np.diag(keep)
    for a, k in enumerate(k for k in range(dim) if k != sink):
        ops[a + 1, sink, k] = np.sqrt(gamma)
    return ops


def random_unital_channel(dim: int, seed: int, mix_count: int) -> KrausChannel:
    """Random mixture of unitaries {sqrt(q_j) U_j}; deterministic per seed.

    default_rng(seed) draws q (mix_count uniforms + 0.1, then normalized),
    then for each j the real and then the imaginary parts of a Gaussian
    d x d matrix a_j, and d angles 2 pi u in [0, 2 pi) from d uniforms u
    of random(), which are the bits of uniform(0, 2 pi). U_j is the
    eigenvector matrix of (a_j + a_j^dag)/2 times diag(e^(i angles)).
    """
    dim = _integer("dim", dim, 2)
    seed = _integer("seed", seed, 0)
    mix_count = _integer("mix_count", mix_count, 1)
    what = f"a mixture of {mix_count} unitaries of dim {dim}"
    normals = _empty(what, (mix_count, 2, dim, dim))
    turns = _empty(what, (mix_count, dim))
    weights = _empty(what, mix_count)
    _draw_unitary_mixture(seed, weights, normals, turns)
    bases = _eigensystems(_finite(_hermitian_part(_complex(normals))))[2]
    return kraus_channel(list(_unitary_mixture(weights, bases, turns)))


def _draw_unitary_mixture(seed: int, weights: np.ndarray,
                          normals: np.ndarray, turns: np.ndarray) -> None:
    """Draw the numbers of random_unital_channel for seed, in its order,
    into preallocated stacks: the normalized q into weights (r,), the
    normals of each a_j into normals (r, 2, d, d) and its uniforms u,
    the angles in turns, into turns (r, d)."""
    rng = np.random.default_rng(seed)
    rng.random(out=weights)
    weights += 0.1
    weights /= weights.sum()
    for j in range(len(weights)):
        rng.standard_normal(out=normals[j])
        rng.random(out=turns[j])


def _uniform(rng, low: float, high: float, size=None):
    """rng.uniform(low, high, size) by numpy's own formula,
    low + (high - low) * u: the same bits and the same stream, without
    uniform's argument handling."""
    return low + (high - low) * rng.random(size)


def _complex(normals: np.ndarray) -> np.ndarray:
    """re + 1j im of normals (..., 2, d, d), drawn real parts first."""
    return normals[..., 0, :, :] + 1j * normals[..., 1, :, :]


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


# Samples drawn and computed per array pass of theorem1_suite: the default
# 500 samples take one pass, one stack per dimension. One pass of 512
# samples over dims 2, 3 and 4 peaks at about 1.0 MiB of arrays
# (tracemalloc; 0.6 MiB in passes of 256), and memory does not grow with
# the sample count.
_THEOREM1_BLOCK = 512

# Channel kinds of the unital samples. A mixture draws 1 to 4 unitaries and
# a projective channel has d <= 4 projectors, so 4 Kraus slots hold any
# channel; unused slots stay zero.
_MIXTURE, _PROJECTIVE, _IDENTITY = range(3)
_KRAUS_SLOTS = 4


def _theorem1_schedule(dims, samples):
    """(dim, channel kind, Gibbs state?) of each unital sample, in order.

    The samples cycle through every combination: the dimension changes
    fastest, then the channel kind, then the state (Gibbs, then sorted).
    """
    combos = [(dim, kind, gibbs) for gibbs in (True, False)
              for kind in (_MIXTURE, _PROJECTIVE, _IDENTITY) for dim in dims]
    return [combos[i % len(combos)] for i in range(samples)]


class _UnitalDraws:
    """Random numbers of a block's unital samples of one dimension, drawn
    straight into stacks allocated from their schedule entries.

    Sample k's Hamiltonian normals (2, d, d) go to hamiltonians[k], and
    its Gibbs beta to betas[k] or the d uniforms behind its passive
    populations to uniforms[k]. Channel normals (2, d, d) take the rows
    of normals: the first `projective` rows hold the projective channels,
    one each, and the rows after them the unitaries of the mixtures, in
    drawing order, with their weights and turns in the same rows of
    weights and turns.
    """

    def __init__(self, dim, entries):
        self.kinds = [kind for _, kind, _ in entries]
        self.gibbs = [gibbs for _, _, gibbs in entries]
        n = len(entries)
        self.projective = self.kinds.count(_PROJECTIVE)
        rows = self.projective + _KRAUS_SLOTS * self.kinds.count(_MIXTURE)
        self.hamiltonians = np.empty((n, 2, dim, dim))
        self.betas = np.empty(n)
        self.uniforms = np.empty((n, dim))
        self.normals = np.empty((rows, 2, dim, dim))
        self.weights = np.empty(rows)
        self.turns = np.empty((rows, dim))
        self.counts = []  # unitaries of each mixture
        self.drawn = self.next_projective = 0
        self.next_unitary = self.projective

    def __len__(self):
        return len(self.kinds)

    def draw(self, rng):
        """Draw the next sample as the scalar route does: the Hamiltonian,
        the state, then the channel."""
        k = self.drawn
        self.drawn = k + 1
        rng.standard_normal(out=self.hamiltonians[k])
        if self.gibbs[k]:
            self.betas[k] = _uniform(rng, 0.05, 5.0)
        else:
            rng.random(out=self.uniforms[k])
        kind = self.kinds[k]
        if kind == _MIXTURE:
            seed = int(rng.integers(2 ** 31))
            count = int(rng.integers(1, 5))
            rows = slice(self.next_unitary, self.next_unitary + count)
            self.next_unitary += count
            self.counts.append(count)
            _draw_unitary_mixture(seed, self.weights[rows], self.normals[rows],
                                  self.turns[rows])
        elif kind == _PROJECTIVE:
            rng.standard_normal(out=self.normals[self.next_projective])
            self.next_projective += 1


def _unital_changes(dim, draws):
    """Energy changes of the unital samples of one _UnitalDraws, as stacks.

    Drawn uniforms u become passive populations: sort(u + 1e-3) descending
    against ascending energies, normalized.
    """
    h, vals, vecs = _eigensystems(
        _finite(_hermitian_part(_complex(draws.hamiltonians))))
    n = len(draws)
    gibbs = np.array(draws.gibbs)
    pops = np.empty((n, dim))
    if not gibbs.all():
        passive = np.sort(draws.uniforms[~gibbs] + 1e-3)[:, ::-1]
        pops[~gibbs] = passive / passive.sum(axis=1, keepdims=True)
    if gibbs.any():
        pops[gibbs] = boltzmann_populations(vals[gibbs],
                                            draws.betas[gibbs, None])

    kinds = np.array(draws.kinds)
    kraus = np.zeros((n, _KRAUS_SLOTS, dim, dim), dtype=complex)
    kraus[kinds == _IDENTITY, 0] = np.eye(dim)
    p, r = draws.projective, draws.next_unitary
    if r:
        # One eigensystem call for every channel basis of the stack.
        bases = _eigensystems(_finite(_hermitian_part(
            _complex(draws.normals[:r]))))[2]
        if p:
            # Projector k of a basis is the outer product of its column k.
            cols = bases[:p].swapaxes(-1, -2)
            kraus[kinds == _PROJECTIVE, :dim] = (cols[..., :, None]
                                                 * cols.conj()[..., None, :])
        if r > p:
            counts = np.array(draws.counts)
            first = np.repeat(np.cumsum(counts) - counts, counts)
            kraus[np.repeat(np.flatnonzero(kinds == _MIXTURE), counts),
                  np.arange(r - p) - first] = _unitary_mixture(
                      draws.weights[p:r], bases[p:], draws.turns[p:r])
    return _passive_energy_changes(h, vecs, pops, kraus)


class _ControlDraws:
    """Random numbers of a block's control samples of one dimension,
    drawn into stacks: sorted level energies (n, d), beta (n,) and the
    damping's Kraus operators (n, d, d, d)."""

    def __init__(self, dim, entries):
        n = len(entries)
        self.energies = np.empty((n, dim))
        self.betas = np.empty(n)
        self.kraus = np.empty((n, dim, dim, dim), dtype=complex)
        self.drawn = 0

    def __len__(self):
        return len(self.betas)

    def draw(self, rng):
        """Draw the next sample: level energies, beta, damping."""
        k = self.drawn
        self.drawn = k + 1
        energies = self.energies[k]
        energies[:] = np.sort(_uniform(rng, -2.0, 2.0, len(energies)))
        self.betas[k] = _uniform(rng, 0.2, 1.0)
        self.kraus[k] = _damping_operators(len(energies),
                                           _uniform(rng, 0.3, 0.9),
                                           int(np.argmin(energies)))


def _control_changes(dim, draws):
    """Energy changes of damped thermal states of one _ControlDraws."""
    diag = np.zeros((len(draws), dim, dim), dtype=complex)
    diag[:, range(dim), range(dim)] = draws.energies
    h, vals, vecs = _eigensystems(_finite(diag))
    pops = boltzmann_populations(vals, draws.betas[:, None])
    return _passive_energy_changes(h, vecs, pops, draws.kraus)


def _passive_energy_changes(h, vecs, pops, kraus):
    """Tr[(E(rho) - rho) H] for rho = sum_n pops_n |v_n><v_n|, per sample.

    h (n, d, d) with eigenvectors vecs, pops (n, d), Kraus stacks
    kraus (n, r, d, d). Both states pass the DensityMatrix checks and the
    channels the trace-preservation check.
    """
    rho = _densities(_finite((vecs * pops[:, None, :]) @ _dagger(vecs)))
    _check_trace_preserving(_finite(kraus))
    post = _densities(_finite(_apply_kraus(kraus, rho)))
    return _energies(post, h) - _energies(rho, h)


def _in_blocks(out, schedule, stack, compute, rng):
    """Fill out with the energy changes of the samples of schedule, whose
    entries start with the sample's dimension.

    Each block of _THEOREM1_BLOCK samples is drawn in order from rng into
    one stack(dim, entries) per dimension present, allocated from the
    block's schedule entries; then compute(dim, stack) runs once per
    stack.
    """
    for start in range(0, len(out), _THEOREM1_BLOCK):
        block = schedule[start:start + _THEOREM1_BLOCK]
        index = {}
        for i, entry in enumerate(block, start):
            index.setdefault(entry[0], []).append(i)
        stacks = {dim: stack(dim, [schedule[i] for i in rows])
                  for dim, rows in index.items()}
        for entry in block:
            stacks[entry[0]].draw(rng)
        for dim, rows in index.items():
            out[rows] = compute(dim, stacks[dim])


def _theorem1_energy_changes(dims, samples, seed):
    """Schedule and per-sample energy changes of theorem1_suite.

    Returns the schedule, the unital samples' changes (one per schedule
    entry) and the control group's changes. Their arrays are allocated
    before the schedule and the first draw.
    """
    what = f"a theorem1 suite of {samples} samples"
    changes = _empty(what, samples)
    control_changes = _empty(what, max(10, samples // 20))
    rng = np.random.default_rng(seed)
    schedule = _theorem1_schedule(dims, samples)
    entries = [(dim,) for dim in dims]
    control = [entries[i % len(dims)] for i in range(len(control_changes))]
    _in_blocks(changes, schedule, _UnitalDraws, _unital_changes, rng)
    _in_blocks(control_changes, control, _ControlDraws, _control_changes, rng)
    return schedule, changes, control_changes


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

    The random numbers are drawn sample by sample from one generator,
    straight into preallocated stacks, one per dimension, for each block
    of _THEOREM1_BLOCK samples. A uniform in [lo, hi) is
    lo + (hi - lo) * random() and a mixture angle 2 pi u for u = random():
    numpy's own formula for uniform(lo, hi), so the values and the stream
    are uniform's. The stacks then become complex matrices and passive
    populations, and are validated and computed with every check of the
    scalar calls (hermitian_eigensystem, kraus_channel, DensityMatrix,
    energy_expectation) applied to each sample. Each energy change holds
    the bits of the scalar route through those calls.
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
