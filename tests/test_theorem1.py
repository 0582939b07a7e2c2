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
    monkeypatch.setattr(o.theorem1, "TOL",
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
        monkeypatch.setattr(o.theorem1, "_THEOREM1_BLOCK", block)
    _, unital, control = o.theorem1._theorem1_energy_changes(dims, samples,
                                                             seed)
    want_unital, want_control = oracle_theorem1_energies(dims, samples, seed)
    assert _bits(unital) == _bits(want_unital)
    assert _bits(control) == _bits(want_control)


def test_blocks_bound_the_stacks(monkeypatch):
    monkeypatch.setattr(o.theorem1, "_THEOREM1_BLOCK", 16)
    sizes, control = [], []
    compute = o.theorem1._stack_changes

    def recording(dim, draws):
        sizes.append(len(draws))
        control.append(draws.kinds.count(o.theorem1._DAMPING))
        return compute(dim, draws)

    monkeypatch.setattr(o.theorem1, "_stack_changes", recording)
    rep = o.theorem1_suite(dims=(2, 3, 4), samples=16 * 5 + 3, seed=4)
    assert rep.passed
    assert max(sizes) <= 16 and sum(sizes) - sum(control) == 16 * 5 + 3
    assert sum(control) == rep.control_samples == 10


@pytest.mark.parametrize("dims", [(2,), (3, 4), (2, 3, 4)])
def test_schedule_covers_every_combination(dims):
    combos = {(d, kind, gibbs) for d in dims
              for kind in (o.theorem1._MIXTURE, o.theorem1._PROJECTIVE,
                           o.theorem1._IDENTITY)
              for gibbs in (True, False)}
    assert set(o.theorem1._theorem1_schedule(dims, len(combos))) == combos
    # over a long run every combination is drawn equally often, within one
    schedule = o.theorem1._theorem1_schedule(dims, 500)
    counts = [schedule.count(c) for c in combos]
    assert max(counts) - min(counts) <= 1
    # the first samples already span every dimension
    assert [d for d, _, _ in schedule[:len(dims)]] == list(dims)


def test_identity_row_is_checked(monkeypatch):
    rep = o.theorem1_suite(dims=(2, 3), samples=60, seed=2)
    assert rep.max_identity == 0.0
    assert rep.lines()[2] == "identity-channel row: energy change 0 (exact)"

    changes = o.theorem1._theorem1_energy_changes

    def nudged(dims, samples, seed):
        schedule, unital, control = changes(dims, samples, seed)
        first = [kind for _, kind, _ in schedule].index(o.theorem1._IDENTITY)
        unital[first] = 5e-324
        return schedule, unital, control

    monkeypatch.setattr(o.theorem1, "_theorem1_energy_changes", nudged)
    rep = o.theorem1_suite(dims=(2, 3), samples=60, seed=2)
    assert rep.max_identity == 5e-324
    assert not rep.passed
    assert "expected exactly 0" in rep.lines()[2]
    assert rep.lines()[-1] == "result: FAIL"


def test_min_unital_is_over_the_non_identity_samples():
    schedule, changes, _ = o.theorem1._theorem1_energy_changes((2, 3, 4),
                                                               500, 1)
    rest = [c for (_, kind, _), c in zip(schedule, changes)
            if kind != o.theorem1._IDENTITY]
    rep = o.theorem1_suite(dims=(2, 3, 4), samples=500, seed=1)
    assert rep.min_unital == min(rest)
    assert rep.min_unital != 0.0
    assert rep.lines()[1].startswith(
        "min energy change over non-identity unital channels")


@pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1),
                                          (2, 3)])
@pytest.mark.parametrize("seed", [3, 8])
def test_changes_equal_the_oracle_across_the_default_block(blocks, extra,
                                                           seed):
    # samples around the block size: the control samples that follow the
    # unital ones then fill one block, spill into the next, or share it
    samples = blocks * o.theorem1._THEOREM1_BLOCK + extra
    _, unital, control = o.theorem1._theorem1_energy_changes((2, 3, 4),
                                                             samples, seed)
    want_unital, want_control = oracle_theorem1_energies((2, 3, 4), samples,
                                                         seed)
    assert _bits(unital) == _bits(want_unital)
    assert _bits(control) == _bits(want_control)


def test_a_control_group_with_dimensions_no_unital_sample_has():
    # one unital sample, of dim 2: the stacks of dims 3 and 4 hold control
    # samples only
    _, unital, control = o.theorem1._theorem1_energy_changes((2, 3, 4), 1, 6)
    want_unital, want_control = oracle_theorem1_energies((2, 3, 4), 1, 6)
    assert len(control) == 10
    assert _bits(unital) == _bits(want_unital)
    assert _bits(control) == _bits(want_control)


def test_a_default_suite_computes_each_dimension_once(monkeypatch):
    calls = {"_eigensystems": [], "_passive_energy_changes": [],
             "_apply_kraus": []}
    for name, record in calls.items():
        def spy(*args, compute=getattr(o.theorem1, name), record=record):
            record.append(args)
            return compute(*args)
        monkeypatch.setattr(o.theorem1, name, spy)
    assert o.theorem1_suite((2, 3, 4), 500, 1).passed
    # the Hamiltonians, channel bases and control spectra of a dimension
    # take one eigensystem call, and its samples one energy-change pass
    assert [m.shape[-1] for m, in calls["_eigensystems"]] == [2, 3, 4]
    passes = calls["_passive_energy_changes"]
    assert [h.shape[-1] for h, *_ in passes] == [2, 3, 4]
    assert sum(len(h) for h, *_ in passes) == 500 + 25
    slots = o.theorem1._KRAUS_SLOTS
    for kraus, rho, ends in calls["_apply_kraus"]:
        # a row's rank is its count of nonzero operators, which fill the
        # first slots; the rows come largest rank first, and slot a
        # reaches exactly the rows of rank above a
        nonzero = np.abs(kraus).max(axis=(-2, -1)) > 0
        rank = nonzero.sum(axis=1)
        assert (nonzero == (np.arange(slots) < rank[:, None])).all()
        assert (np.diff(rank) <= 0).all()
        assert list(ends) == [np.count_nonzero(rank > a)
                              for a in range(slots)]
        assert ends[0] == len(rho) and sum(ends) < slots * len(rho)


def test_kraus_slots_skip_the_rows_past_their_end():
    rng = np.random.default_rng(29)
    kraus = (rng.standard_normal((6, 4, 3, 3))
             + 1j * rng.standard_normal((6, 4, 3, 3)))
    rho = np.array([random_hermitian(rng, 3) for _ in range(6)])
    ends = [6, 4, 4, 1]
    padded = kraus.copy()
    for a, end in enumerate(ends):
        padded[end:, a] = 0.0
        kraus[end:, a] = np.nan  # never multiplied
    got = o.channels._apply_kraus(kraus, rho, ends)
    want = o.channels._apply_kraus(padded, rho)
    assert np.isfinite(got).all()
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
