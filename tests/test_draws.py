"""Bit identity behind the theorem1 draws.

theorem1_suite and random_unital_channel draw their uniforms in [lo, hi)
as lo + (hi - lo) * random(), and the mixture angles as 2 pi * random().
That is numpy's own formula for Generator.uniform, so the values and the
stream must be uniform's, bit for bit, for every range the draws use.
"""

import numpy as np
import pytest

import ottosim as o

# (lo, hi) of the mixture angles, the Gibbs beta, and the control group's
# level energies, beta and damping
RANGES = [(0.0, 2.0 * np.pi), (0.05, 5.0), (-2.0, 2.0), (0.2, 1.0),
          (0.3, 0.9)]
SEEDS = [0, 1, 7, 2 ** 31 - 1, *range(1000, 1200)]


def _bits(x):
    return np.asarray(x).view(np.uint64).tolist()


@pytest.mark.parametrize("size", [None, 1, 3, 4, (2, 4)],
                         ids=["scalar", "1", "3", "4", "2x4"])
@pytest.mark.parametrize("lo,hi", RANGES)
def test_formula_is_uniform_bit_for_bit(lo, hi, size):
    for seed in SEEDS:
        mine = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        for _ in range(3):  # the stream stays in step draw after draw
            got = o.channels._uniform(mine, lo, hi, size)
            want = ref.uniform(lo, hi, size)
            assert type(got) is type(want)
            assert _bits(got) == _bits(want)
        assert mine.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("size", [1, 2, 3, 4, (3, 4)])
def test_angles_scaled_once_are_uniform_bit_for_bit(size):
    # the mixture stacks keep u and scale the whole stack by 2 pi once
    for seed in SEEDS:
        mine = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        turns = mine.random(size)
        assert (_bits(2.0 * np.pi * turns)
                == _bits(ref.uniform(0.0, 2.0 * np.pi, size)))
        assert mine.bit_generator.state == ref.bit_generator.state


def _plain_mixture(dim, seed, mix_count):
    """random_unital_channel's documented draws in plain numpy, with its
    angles from rng.uniform."""
    rng = np.random.default_rng(seed)
    q = rng.random(mix_count) + 0.1
    q = q / q.sum()
    ops = []
    for j in range(mix_count):
        re = rng.standard_normal((dim, dim))
        im = rng.standard_normal((dim, dim))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        a = re + 1j * im
        _, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        ops.append(np.sqrt(q[j]) * (v @ np.diag(np.exp(1j * angles))))
    return ops


def test_random_unital_channel_is_the_plain_build_bit_for_bit():
    rng = np.random.default_rng(26)
    cases = [(dim, seed, count) for dim in (2, 3, 4)
             for seed in (0, 1, 2 ** 31 - 1, *rng.integers(2 ** 31, size=4))
             for count in (1, 2, 3, 4, 7)]
    for dim, seed, count in cases:
        got = o.random_unital_channel(dim, int(seed), count).operators
        want = _plain_mixture(dim, int(seed), count)
        assert len(got) == count
        assert [_bits(g) for g in got] == [_bits(w) for w in want]
