"""Properties of the batched cycle kernel over random inputs.

Batches of cycles with random couplings, fields, inverse temperatures
and stroke-3 protocols: a hot bath, SU(3) projective measurements
(qutrit), local spin measurements (two-qubit XXZ), random unitary
mixtures (any dimension) and non-unital ground-sink damping (any
dimension).
"""

import warnings

import numpy as np
import pytest

import ottosim as o
from helpers import oracle_transfer

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

KINDS = ("qubit", "qutrit", "xxz")
PROTOCOLS = {"qubit": ("unital", "damping", "two-bath"),
             "qutrit": ("su3", "unital", "damping", "two-bath"),
             "xxz": ("spin", "unital", "damping", "two-bath")}

angle = st.floats(0.0, 2 * np.pi)
coupling = st.floats(-3.0, 3.0)
beta = st.floats(0.05, 5.0)


@st.composite
def directions(draw):
    v = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(3)])
    hypothesis.assume(np.linalg.norm(v) > 0.1)
    return o.SpinDirection(*(v / np.linalg.norm(v)))


@st.composite
def batches(draw):
    kind = draw(st.sampled_from(KINDS))
    count = draw(st.integers(1, 6))
    if kind == "qubit":
        specs = [o.SubstanceSpec.qubit()] * count
    elif kind == "qutrit":
        specs = [o.SubstanceSpec.qutrit(draw(coupling)) for _ in range(count)]
    else:
        specs = [o.SubstanceSpec.xxz(draw(coupling), draw(coupling))
                 for _ in range(count)]
    dim = specs[0].dim
    which = draw(st.sampled_from(PROTOCOLS[kind]))
    Bi = draw(st.floats(0.2, 4.0))
    Bf = Bi * draw(st.floats(1.05, 3.0))
    cold = o.BathSpec(draw(beta))
    if which == "two-bath":
        return specs, Bi, Bf, cold, o.TwoBath(hot=o.BathSpec(draw(beta)))
    if which == "su3":
        channel = o.su3_projective_channel(
            o.Su3Angles(*(draw(angle) for _ in range(4))))
    elif which == "spin":
        channel = o.local_spin_channel(draw(directions()), draw(directions()))
    elif which == "unital":
        channel = o.random_unital_channel(dim, draw(st.integers(0, 2 ** 31)),
                                          mix_count=draw(st.integers(1, 4)))
    else:
        channel = o.damping_channel(dim, draw(st.floats(0.0, 1.0)),
                                    sink=draw(st.integers(0, dim - 1)))
    return specs, Bi, Bf, cold, o.Measurement(channel)


# Twice the profile's examples, since about two in five now draw a hot bath
# and the measurement batches should keep at least the 60 they had alone.
@hypothesis.settings(max_examples=120)
@given(batches())
def test_batch_invariants(args):
    specs, Bi, Bf, cold, protocol = args
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = o.run_cycle_batch(specs, Bi, Bf, cold, protocol)
    cools = [w for w in caught
             if issubclass(w.category, o.MeasurementCoolsWarning)]
    measured = isinstance(protocol, o.Measurement)
    # one warning per cooling measurement batch, none otherwise
    assert len(cools) == int(measured and bool(np.any(batch.Qh < 0.0)))

    assert np.all(np.abs(batch.W + batch.Qh + batch.Qc) <= o.TOL.conservation)
    idle = [k for k, label in enumerate(batch.labels)
            if label in batch.idle_labels]
    np.testing.assert_array_equal(batch.flux_cold[:, idle],
                                  -batch.flux_hot[:, idle])
    for k in np.flatnonzero(batch.engine_mode):
        rec = batch.record(k)
        assert abs(rec.eta / rec.eta0 - o.efficiency_ratio_identity(rec)) \
            <= o.TOL.identity_check
        if not measured:
            assert rec.eta <= 1.0 - protocol.hot.beta / cold.beta \
                + o.TOL.conservation
    if measured:
        basis = o.labelled_basis(specs[0])
        transfer = oracle_transfer(protocol.channel.operators,
                                   [basis[label] for label in batch.labels])
        np.testing.assert_allclose(batch.p_hot, batch.p_cold @ transfer.T,
                                   rtol=0, atol=1e-13)
    if measured and protocol.channel.unital:
        # Without a level crossing in [Bi, Bf] the carried thermal state is
        # passive at Bf, and a unital channel cannot lower its energy.
        calm = ~batch.crossing
        assert np.all(batch.Qh[calm] >= -o.TOL.theorem_slack)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", o.MeasurementCoolsWarning)
        for k, spec in enumerate(specs):
            single = o.run_cycle(o.CycleConfig(spec=spec, Bi=Bi, Bf=Bf,
                                               cold=cold, protocol=protocol))
            assert batch.record(k) == single


def test_cooling_batch_warns_once():
    # pumping toward the qubit ground state removes energy in every row
    ch = o.damping_channel(2, 0.5, sink=1)
    with pytest.warns(o.MeasurementCoolsWarning) as record:
        batch = o.run_cycle_batch([o.SubstanceSpec.qubit()] * 5, 3.0, 4.0,
                                  o.BathSpec(1.0), o.Measurement(ch))
    assert len(record) == 1
    assert "5 of 5 cycles" in str(record[0].message)
    assert np.all(batch.Qh < 0)


def test_unital_sweep_without_crossings_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        o.sweep_qutrit_contour(3.0, 4.0, 1.0, "theta-phi",
                               o.SweepRange(0.0, np.pi, 4),
                               o.SweepRange(0.2, 2.8, 5))


def test_batch_validation():
    cold, hot = o.BathSpec(1.0), o.TwoBath(hot=o.BathSpec(0.5))
    with pytest.raises(o.OttoSimError):
        o.run_cycle_batch([], 3.0, 4.0, cold, hot)
    with pytest.raises(o.InvalidField):
        o.run_cycle_batch([o.SubstanceSpec.qutrit(1.0),
                           o.SubstanceSpec.xxz(1.0, 0.0)], 3.0, 4.0, cold, hot)
    with pytest.raises(o.InvalidField):
        o.run_cycle_batch([o.SubstanceSpec.qubit()], 4.0, 3.0, cold, hot)
    with pytest.raises(o.DimensionMismatch):
        o.run_cycle_batch([o.SubstanceSpec.qubit()], 3.0, 4.0, cold,
                          o.Measurement(o.damping_channel(3, 0.5)))


def test_batch_rejects_a_spec_or_cold_bath_that_is_not_a_record(monkeypatch):
    # checked once per call, before the kernel runs
    calls = []
    monkeypatch.setattr(o.cycle, "_run_cycles",
                        lambda *args: calls.append(args))
    hot = o.TwoBath(o.BathSpec(0.5))
    spec = o.SubstanceSpec.qutrit(1.0)
    with pytest.raises(o.InvalidField, match=r"^cold must be a BathSpec, "
                                             r"got 5$"):
        o.run_cycle_batch([spec], 3, 4, 5, hot)
    with pytest.raises(o.InvalidField, match=r"^specs\[0\] must be a "
                                             r"SubstanceSpec, got 5$"):
        o.run_cycle_batch([5], 3, 4, o.BathSpec(1.0), hot)
    with pytest.raises(o.InvalidField, match=r"^specs\[1\] must be a "
                                             r"SubstanceSpec, got None$"):
        o.run_cycle_batch([spec, None], 3, 4, o.BathSpec(1.0), hot)
    assert calls == []
