"""The unitary mixtures of theorem1 drawn through one reseeded generator.

theorem1_suite draws each mixture from default_rng(seed)'s stream without
building that generator: _pcg64_states maps every seed of a stack to the
PCG64 state default_rng(seed) starts from, and one shared Generator is set
to each state in turn. The mixture weights of a stack are normalized in
one pass. These tests pin both against plain numpy.
"""

import numpy as np
import pytest

import ottosim as o
from ottosim import channels

SEEDS = [0, 1, 2, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1,
         *np.random.default_rng(28).integers(2 ** 32, size=10_000).tolist()]


def _bits(x):
    return np.asarray(x).view(np.uint64).tolist()


def _reseeded(mixer, seed):
    """mixer with the state of default_rng(seed), as draw_mixtures sets it."""
    (state, inc), = channels._pcg64_states([seed])
    mixer.bit_generator.state = {"bit_generator": "PCG64",
                                 "state": {"state": state, "inc": inc},
                                 "has_uint32": 0, "uinteger": 0}
    return mixer


def test_states_are_pcg64_s_for_every_seed():
    got = channels._pcg64_states(SEEDS)
    assert len(got) == len(SEEDS)
    for seed, (state, inc) in zip(SEEDS, got):
        want = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (want["state"], want["inc"]), seed


def test_states_of_no_seed():
    assert channels._pcg64_states([]) == []


@pytest.mark.parametrize("seed", [2 ** 32, 2 ** 64, -1, -(2 ** 31), 1.0,
                                  "1", None])
def test_states_refuse_a_seed_outside_32_bits(seed):
    with pytest.raises(o.OttoSimError, match=r"\[0, 2\*\*32\)"):
        channels._pcg64_states([5, seed])


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_reseeded_draws_are_default_rng_s(dim, count):
    mixer = np.random.Generator(np.random.PCG64(0))
    for seed in SEEDS[:6] + SEEDS[-40:]:
        # leave a buffered 32-bit half behind: reseeding must drop it
        mixer.integers(2 ** 31, dtype=np.int32)
        _reseeded(mixer, seed)
        weights = np.empty(count)
        normals = np.empty((count, 2, dim, dim))
        turns = np.empty((count, dim))
        channels._draw_unitary_mixture(mixer, weights, normals, turns)

        ref = np.random.default_rng(seed)
        assert _bits(weights) == _bits(ref.random(count))
        for j in range(count):
            assert _bits(normals[j]) == _bits(ref.standard_normal((2, dim,
                                                                   dim)))
            assert _bits(turns[j]) == _bits(ref.random(dim))
        assert mixer.bit_generator.state == ref.bit_generator.state


def test_stack_normalization_is_per_mixture_sum_bit_for_bit():
    rng = np.random.default_rng(2028)
    for _ in range(40):
        counts = rng.integers(1, 5, size=500).tolist()
        raw = rng.random(sum(counts))
        weights = raw.copy()
        channels._normalize_weights(weights, counts)
        first = 0
        for count in counts:
            w = raw[first:first + count] + 0.1
            assert _bits(weights[first:first + count]) == _bits(w / w.sum())
            first += count


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6, 7])
def test_a_stack_of_one_mixture_is_numpy_s_normalization(count):
    # numpy adds fewer than 8 terms left to right, as row_sum does
    rng = np.random.default_rng(count)
    for _ in range(2000):
        raw = rng.random(count)
        weights = raw.copy()
        channels._normalize_weights(weights, [count])
        w = raw + 0.1
        assert _bits(weights) == _bits(w / w.sum())


@pytest.mark.parametrize("seed", [1, 5, 2028])
def test_suite_builds_one_default_rng(monkeypatch, seed):
    calls = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    rep = o.theorem1_suite((2, 3, 4), 500, seed)
    assert rep.passed
    assert calls == [(seed,)]
