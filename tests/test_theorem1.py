"""Property checks for the unital-channel energy-gain bound.

A non-selective measurement described by a unital channel can only raise
(or leave unchanged) the mean energy of a passive state.  Non-unital
pumping channels violate the bound, which the control group must detect.
"""

import numpy as np
import pytest

import ottosim as o
from helpers import oracle_theorem1_energies, random_hermitian


def test_suite_passes_and_reports():
    rep = o.theorem1_suite(dims=(2, 3, 4), samples=300, seed=3)
    assert rep.samples == 300
    assert rep.dims == (2, 3, 4)
    assert rep.min_unital >= -1e-10
    assert rep.control_negative_found
    assert rep.min_control < -1e-6
    assert rep.passed
    text = "\n".join(rep.lines())
    assert "unital" in text and "control" in text


def test_suite_floor_is_the_theorem_slack(monkeypatch):
    rep = o.theorem1_suite(dims=(2,), samples=30, seed=2)
    assert "(floor -1e-10)" in rep.lines()[1]
    assert rep.passed
    # a floor above the observed minimum fails the suite
    monkeypatch.setattr(o.channels, "TOL",
                        o.Tolerances(theorem_slack=-1.0))
    rep = o.theorem1_suite(dims=(2,), samples=30, seed=2)
    assert "(floor 1)" in rep.lines()[1]
    assert not rep.passed


def test_suite_deterministic_per_seed():
    a = o.theorem1_suite(dims=(2, 3), samples=120, seed=5)
    b = o.theorem1_suite(dims=(2, 3), samples=120, seed=5)
    assert a == b


def test_suite_rejects_bad_inputs():
    with pytest.raises(o.OttoSimError):
        o.theorem1_suite(dims=(5,), samples=10, seed=1)
    with pytest.raises(o.OttoSimError):
        o.theorem1_suite(dims=(2,), samples=0, seed=1)


@pytest.mark.parametrize("kwargs", [
    {"dims": ("a",)}, {"dims": (2.0,)}, {"dims": (1,)}, {"dims": ()},
    {"dims": 3}, {"dims": (True,)}, {"seed": "x"}, {"seed": 1.0},
    {"seed": -1}, {"seed": True}, {"seed": None},
])
def test_suite_rejects_bad_dims_and_seed(kwargs):
    with pytest.raises(o.OttoSimError):
        o.theorem1_suite(samples=10, **kwargs)


def test_suite_takes_numpy_integers():
    rep = o.theorem1_suite(dims=[np.int64(3), 2, 3], samples=20,
                           seed=np.int64(5))
    assert rep == o.theorem1_suite(dims=(2, 3), samples=20, seed=5)
    assert rep.dims == (2, 3) and type(rep.dims[0]) is int


def test_energy_gain_direct_loop():
    # independent spot check of the property the suite samples
    rng = np.random.default_rng(31)
    worst = np.inf
    for i in range(300):
        dim = int(rng.integers(2, 5))
        h = o.hermitian_eigensystem(random_hermitian(rng, dim))
        if i % 2 == 0:
            rho = o.gibbs_state(h, o.BathSpec(float(rng.uniform(0.05, 5.0))))
        else:
            p = np.sort(rng.random(dim))[::-1]
            p /= p.sum()
            v = h.eigenvectors
            rho = o.DensityMatrix(v @ np.diag(p) @ v.conj().T)
        ch = o.random_unital_channel(dim, seed=int(rng.integers(1, 1 << 30)),
                                     mix_count=int(rng.integers(1, 5)))
        worst = min(worst, o.energy_change(ch, rho, h))
    assert worst >= -1e-10


def test_identity_channel_changes_nothing():
    rng = np.random.default_rng(33)
    h = o.hermitian_eigensystem(random_hermitian(rng, 3))
    rho = o.gibbs_state(h, o.BathSpec(1.0))
    ch = o.kraus_channel([np.eye(3)])
    assert o.energy_change(ch, rho, h) == pytest.approx(0.0, abs=1e-14)


def test_non_unital_control_goes_negative():
    # ground-sink damping drains a hot thermal state: bound does not apply
    h = o.hermitian_eigensystem(np.diag([-1.0, 0.5, 2.0]))
    rho = o.gibbs_state(h, o.BathSpec(0.2))
    ch = o.damping_channel(3, 0.8, sink=0)
    assert not o.is_unital(ch)
    assert o.energy_change(ch, rho, h) < -1e-3


def test_bound_fails_on_non_passive_states():
    # the passivity hypothesis matters: an inverted qubit loses energy
    # under an x measurement
    h = o.hermitian_eigensystem(np.diag([1.0, -1.0]))
    inverted = o.DensityMatrix(np.diag([0.9, 0.1]))
    ch = o.projective_channel([np.array([1, 1]) / np.sqrt(2),
                               np.array([1, -1]) / np.sqrt(2)])
    assert o.energy_change(ch, inverted, h) < -1e-3


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("dims,samples,seed,block", [
    ((2, 3, 4), 300, 1, None),
    ((2, 3, 4), 300, 7, None),
    ((2,), 45, 11, None),
    ((3, 4), 263, 4, None),
    ((4,), 40, 5, 7),
    ((2, 3, 4), 61, 2, 9),
])
def test_batched_changes_equal_scalar_oracle_bitwise(monkeypatch, dims,
                                                     samples, seed, block):
    if block is not None:
        monkeypatch.setattr(o.channels, "_THEOREM1_BLOCK", block)
    _, unital, control = o.channels._theorem1_energy_changes(dims, samples,
                                                             seed)
    want_unital, want_control = oracle_theorem1_energies(dims, samples, seed)
    assert _bits(unital) == _bits(want_unital)
    assert _bits(control) == _bits(want_control)


def test_blocks_bound_the_stacks(monkeypatch):
    monkeypatch.setattr(o.channels, "_THEOREM1_BLOCK", 16)
    sizes = []
    compute = o.channels._unital_changes

    def recording(dim, draws):
        sizes.append(len(draws))
        return compute(dim, draws)

    monkeypatch.setattr(o.channels, "_unital_changes", recording)
    rep = o.theorem1_suite(dims=(2, 3, 4), samples=16 * 5 + 3, seed=4)
    assert rep.passed
    assert max(sizes) <= 16 and sum(sizes) == 16 * 5 + 3


@pytest.mark.parametrize("dims", [(2,), (3, 4), (2, 3, 4)])
def test_schedule_covers_every_combination(dims):
    combos = {(d, kind, gibbs) for d in dims
              for kind in (o.channels._MIXTURE, o.channels._PROJECTIVE,
                           o.channels._IDENTITY)
              for gibbs in (True, False)}
    assert set(o.channels._theorem1_schedule(dims, len(combos))) == combos
    # over a long run every combination is drawn equally often, within one
    schedule = o.channels._theorem1_schedule(dims, 500)
    counts = [schedule.count(c) for c in combos]
    assert max(counts) - min(counts) <= 1
    # the first samples already span every dimension
    assert [d for d, _, _ in schedule[:len(dims)]] == list(dims)


def test_identity_row_is_checked(monkeypatch):
    rep = o.theorem1_suite(dims=(2, 3), samples=60, seed=2)
    assert rep.max_identity == 0.0
    assert rep.lines()[2] == "identity-channel row: energy change 0 (exact)"

    changes = o.channels._theorem1_energy_changes

    def nudged(dims, samples, seed):
        schedule, unital, control = changes(dims, samples, seed)
        first = [kind for _, kind, _ in schedule].index(o.channels._IDENTITY)
        unital[first] = 5e-324
        return schedule, unital, control

    monkeypatch.setattr(o.channels, "_theorem1_energy_changes", nudged)
    rep = o.theorem1_suite(dims=(2, 3), samples=60, seed=2)
    assert rep.max_identity == 5e-324
    assert not rep.passed
    assert "expected exactly 0" in rep.lines()[2]
    assert rep.lines()[-1] == "result: FAIL"


def test_min_unital_is_over_the_non_identity_samples():
    schedule, changes, _ = o.channels._theorem1_energy_changes((2, 3, 4),
                                                               500, 1)
    rest = [c for (_, kind, _), c in zip(schedule, changes)
            if kind != o.channels._IDENTITY]
    rep = o.theorem1_suite(dims=(2, 3, 4), samples=500, seed=1)
    assert rep.min_unital == min(rest)
    assert rep.min_unital != 0.0
    assert rep.lines()[1].startswith(
        "min energy change over non-identity unital channels")
