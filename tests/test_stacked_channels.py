"""The stacked channel route against plain numpy, bit for bit.

su3_projective_channels builds every channel of an angle array in one
stacked call, and the cycle kernel takes every block's transfer entries
from one einsum over a Kraus stack, whose channels of lower rank a
caller may pad with zero operators. The references here are
the documented formulas, one angle set and one channel at a time: the
three SU(3) states, their np.outer projectors, the unital test
sum_a M_a M_a^dag = 1, and T[m, n] = sum_a |<v_m|M_a|v_n>|^2.
"""

import warnings

import numpy as np
import pytest

import ottosim as o
from ottosim import channels, cycle, measurements, substances

QUTRIT_BASIS = substances._KINDS[o.SubstanceKind.QUTRIT].basis
SIGNED = [0.0, 0.5 * np.pi, np.pi, -np.pi]


def reference_su3(theta, phi, chi, psi):
    """(projectors (3, 3, 3), unital flag) of one angle set."""
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    ec, ep = np.exp(1j * chi), np.exp(1j * psi)
    states = [np.array([ct * sp * ec, st * sp * ep, cp]),
              np.array([ct * cp * ec, st * cp * ep, -sp]),
              np.array([st * ec, -ct * ep, 0.0])]
    ops = np.array([np.outer(s, s.conj()) for s in states])
    unital = sum(m @ m.conj().T for m in ops)
    return ops, float(np.max(np.abs(unital - np.eye(3)))) <= o.TOL.channel


def reference_transfer(ops, basis):
    """T of one channel, as the unstacked kernel computed it."""
    amp = np.einsum("im,aij,jn->amn", basis.conj(), np.asarray(ops), basis)
    return (np.abs(amp) ** 2).sum(axis=0)


def angle_sets():
    rng = np.random.default_rng(1802)
    drawn = rng.uniform(-2 * np.pi, 2 * np.pi, size=(400, 4))
    # theta and phi where cosines and sines are signed zeros or +-1
    grid = np.array([(t, p, c, s) for t in SIGNED for p in SIGNED
                     for c in (0.0, 0.5 * np.pi, 1.3)
                     for s in (0.5 * np.pi, -np.pi)])
    return np.concatenate([drawn, grid])


def test_stacked_su3_channels_equal_the_reference_bitwise():
    angles = angle_sets()
    built = o.su3_projective_channels(*angles.T)
    assert len(built) == len(angles)
    for a, channel in zip(angles, built):
        ops, unital = reference_su3(*a)
        assert np.array(channel.operators).tobytes() == ops.tobytes(), a
        assert channel.unital is unital is True
        assert channel.dim == 3
        one = o.su3_projective_channel(o.Su3Angles(*a))
        assert np.array(one.operators).tobytes() == ops.tobytes(), a
        assert one.unital is unital


def test_stacked_transfer_entries_equal_the_reference_bitwise():
    angles = angle_sets()
    built = o.su3_projective_channels(*angles.T)
    stack = np.array([channel.operators for channel in built])
    t = channels._transfer_entries(stack, QUTRIT_BASIS)
    for k, a in enumerate(angles):
        ref = reference_transfer(reference_su3(*a)[0], QUTRIT_BASIS)
        assert t[k].tobytes() == ref.tobytes(), a


def test_angles_broadcast_and_keep_their_order():
    theta = np.array([[0.1, 0.2], [0.3, 0.4]])
    built = o.su3_projective_channels(theta, 1.0, theta.T, np.pi)
    expected = [reference_su3(t, 1.0, c, np.pi)[0] for t, c in
                zip(theta.reshape(-1), theta.T.reshape(-1))]
    assert [np.array(ch.operators).tobytes() for ch in built] == \
        [ops.tobytes() for ops in expected]
    assert len(o.su3_projective_channels(0.1, 0.2, 0.3, 0.4)) == 1


def test_no_angle_set_gives_no_channel():
    assert o.su3_projective_channels([], [], [], []) == []
    assert o.su3_projective_channels(np.zeros((2, 0)), 1.0, 0.5, 0.5) == []


def mixed_rank_protocols():
    """Qutrit measurements of ranks 3, 1, 2 and 3 (a non-unital damping)."""
    return [o.Measurement(o.su3_projective_channel(o.EXTREME_ANGLES)),
            o.Measurement(o.kraus_channel([np.eye(3)])),
            o.Measurement(o.random_unital_channel(3, 5, 2)),
            o.Measurement(o.damping_channel(3, 0.4))]


def padded_stack(protocols):
    """The protocols' operators as one Kraus stack (B, r, 3, 3), a channel
    of lower rank padded with zero operators."""
    kraus = np.zeros((len(protocols), 3, 3, 3), dtype=complex)
    for b, p in enumerate(protocols):
        kraus[b, :len(p.channel.operators)] = p.channel.operators
    return kraus


def test_padded_transfer_entries_equal_each_channel_alone():
    protocols = mixed_rank_protocols()
    assert [len(p.channel.operators) for p in protocols] == [3, 1, 2, 3]
    t = channels._transfer_entries(padded_stack(protocols), QUTRIT_BASIS)
    for b, p in enumerate(protocols):
        alone = channels._transfer_entries(np.asarray(p.channel.operators),
                                           QUTRIT_BASIS)
        assert t[b].tobytes() == alone.tobytes()
        assert alone.tobytes() == reference_transfer(
            p.channel.operators, QUTRIT_BASIS).tobytes()


def test_mixed_rank_blocks_get_the_bits_of_each_block_alone():
    protocols = mixed_rank_protocols()
    kind = substances._KINDS[o.SubstanceKind.QUTRIT]
    js = np.linspace(-1.0, 3.0, 9)
    couplings = np.tile(js, len(protocols))[:, None]
    cold = o.BathSpec(1.0)
    batch = cycle._run_cycles(kind, couplings, 3.0, 4.0, cold,
                              padded_stack(protocols))
    specs = [o.SubstanceSpec.qutrit(j) for j in js]
    for b, p in enumerate(protocols):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", o.MeasurementCoolsWarning)
            alone = o.run_cycle_batch(specs, 3.0, 4.0, cold, p)
        rows = slice(b * len(js), (b + 1) * len(js))
        for name in ("Qh", "Qc", "W", "p_hot", "delta_p", "flux_hot"):
            assert getattr(batch, name)[rows].tobytes() == \
                getattr(alone, name).tobytes(), (b, name)


@pytest.fixture
def no_channels(monkeypatch):
    """Fail the test if su3_projective_channels gets to building."""
    def refuse(*args):
        raise AssertionError("channels were built")
    monkeypatch.setattr(measurements, "_projective_channels", refuse)


@pytest.mark.parametrize("angles", [
    ([0.1, np.nan], 0.0, 0.0, 0.0),
    (0.1, [0.2, np.inf], 0.0, 0.0),
    (0.1, 0.2, -np.inf, 0.0),
    (0.1, 0.2, 0.3, "a"),
    (0.1, 0.2, 0.3, [1.0, None]),
    (0.1, 0.2, 0.3, [[1.0], [1.0, 2.0]]),
    (0.1, 0.2, 0.3, 1j),
    (0.1, 0.2, 0.3, 10 ** 400),
    ([0.1, 0.2], [0.1, 0.2, 0.3], 0.0, 0.0),
], ids=["theta-nan", "phi-inf", "chi-minus-inf", "psi-text", "psi-None",
        "psi-ragged", "psi-complex", "psi-huge-int", "no-common-shape"])
def test_a_bad_angle_raises_before_any_channel(no_channels, angles):
    with pytest.raises(o.InvalidField, match="angle"):
        o.su3_projective_channels(*angles)


def test_a_stack_with_one_bad_channel_returns_none():
    good = np.array(o.su3_projective_channel(o.EXTREME_ANGLES).operators)
    stack = np.array([good, good, 0.5 * good])
    with pytest.raises(o.NotTracePreserving):
        channels._check_kraus(stack)
    stack[2] = good
    stack[2, 0, 0, 0] = np.nan
    with pytest.raises(o.OttoSimError, match="finite"):
        channels._check_kraus(stack)
    states = np.array([np.eye(3), np.eye(3)], dtype=complex)
    states[1, 2] = states[1, 1]      # two equal states: not a complete set
    with pytest.raises(o.NotTracePreserving):
        channels._projective_channels(states)


def test_unital_flags_are_per_channel():
    su3 = np.array(o.su3_projective_channel(o.EXTREME_ANGLES).operators)
    damping = channels._damping_operators(3, 0.4, 0)
    stack = np.array([su3, damping, su3])
    built = channels._channel_records(stack, channels._check_kraus(stack))
    assert [ch.unital for ch in built] == [True, False, True]
    assert [ch.unital for ch in built] == [
        o.kraus_channel(ops).unital for ops in (su3, damping, su3)]
