"""The idle-level mechanism on random affine substances.

A substance of the kind table is d levels E_n(B) = s_n B + o_n with a
fixed eigenbasis. These properties draw such substances beyond the three
built-in kinds (d from 2 to 4, some slopes 0, which makes those levels
idle, and a random unitary basis) and run them through the private cycle
kernel with a hot bath, a random unital channel or a damping channel.

Family A puts offsets on idle levels only, the shape of every built-in
kind. Family B gives every level one shared offset, which generalises
the abstract's single-qubit statement: eta = 1 - Bi/Bf.
"""

import warnings

import numpy as np
import pytest

import ottosim as o
from helpers import oracle_boltzmann, oracle_transfer
from ottosim.cycle import _run_cycles
from ottosim.substances import _kind

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

coefficient = st.floats(-2.0, 2.0, allow_subnormal=False)
beta = st.floats(0.05, 5.0)


def _unitary(seed, d):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def cycles(draw, shared_offset, protocols):
    """(kind, couplings (N, c), Bi, Bf, cold bath, protocol)."""
    d = draw(st.integers(2, 4))
    slopes = [draw(st.one_of(st.just(0.0), coefficient)) for _ in range(d)]
    if shared_offset:
        table = {"c": [1.0] * d}
    else:
        table = {f"c{j}": [draw(coefficient) if s == 0.0 else 0.0
                           for s in slopes]
                 for j in range(draw(st.integers(1, 2)))}
    kind = _kind(labels=tuple(f"L{n}" for n in range(d)), slopes=slopes,
                 offsets=table,
                 basis=_unitary(draw(st.integers(0, 2 ** 31)), d))
    couplings = np.array([[draw(coefficient) for _ in table]
                          for _ in range(draw(st.integers(1, 4)))])
    Bi = draw(st.floats(0.2, 4.0))
    Bf = Bi * draw(st.floats(1.05, 3.0))
    cold = o.BathSpec(draw(beta))
    which = draw(st.sampled_from(protocols))
    if which == "two-bath":
        protocol = o.TwoBath(hot=o.BathSpec(draw(beta)))
    elif which == "unital":
        protocol = o.Measurement(o.random_unital_channel(
            d, draw(st.integers(0, 2 ** 31)),
            mix_count=draw(st.integers(1, 4))))
    else:
        protocol = o.Measurement(o.damping_channel(
            d, draw(st.floats(0.0, 1.0)), sink=draw(st.integers(0, d - 1))))
    return kind, couplings, Bi, Bf, cold, protocol


def _row_dot(a, b):
    return (a * b).sum(axis=1)


def _stroke(protocol):
    """The kernel's stroke 3 for one protocol, as run_cycle_batch gives it."""
    if isinstance(protocol, o.TwoBath):
        return protocol.hot
    return np.asarray(protocol.channel.operators, dtype=complex)[None]


def _run(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", o.MeasurementCoolsWarning)
        return _run_cycles(*args[:-1], _stroke(args[-1]))


# More examples than the profile's 60: a draw is cheap, and the first
# protocol (unital) takes most of them, the other two the rest.
@hypothesis.settings(max_examples=150)
@given(cycles(shared_offset=False,
              protocols=("unital", "damping", "two-bath")))
def test_idle_offsets_obey_the_efficiency_identity(args):
    kind, couplings, Bi, Bf, cold, protocol = args
    batch = _run(args)
    offsets = couplings @ kind.offsets
    ei = kind.slopes * Bi + offsets
    ef = kind.slopes * Bf + offsets
    scale = max(1.0, np.abs(ei).max(), np.abs(ef).max())

    for k in np.flatnonzero(batch.engine_mode):
        rec = batch.record(k)
        assert abs(rec.eta / rec.eta0 - o.efficiency_ratio_identity(rec)) \
            <= o.TOL.identity_check
    idle = kind.idle
    assert batch.flux_cold[:, idle].tobytes() == \
        (-batch.flux_hot[:, idle]).tobytes()
    # W against the work of the two adiabatic strokes
    strokes = (_row_dot(ef - ei, batch.p_cold)
               + _row_dot(ei - ef, batch.p_hot))
    assert np.all(np.abs(batch.W - strokes)
                  <= o.TOL.conservation * scale)
    assert np.all(np.abs(batch.W + batch.Qh + batch.Qc)
                  <= o.TOL.conservation * scale)

    if isinstance(protocol, o.TwoBath):
        want = np.array([oracle_boltzmann(e, protocol.hot.beta) for e in ef])
    else:
        transfer = oracle_transfer(protocol.channel.operators,
                                   list(kind.basis.T))
        want = batch.p_cold @ transfer.T
    np.testing.assert_allclose(batch.p_hot, want, rtol=0, atol=1e-13)
    if isinstance(protocol, o.Measurement) and protocol.channel.unital:
        # no crossing in [Bi, Bf]: the carried thermal state is passive
        assert np.all(batch.Qh[~batch.crossing] >= -o.TOL.theorem_slack)


@hypothesis.settings(max_examples=150)
@given(cycles(shared_offset=True, protocols=("unital", "two-bath")))
def test_a_shared_offset_gives_the_uncoupled_efficiency(args):
    kind, couplings, Bi, Bf, cold, protocol = args
    batch = _run(args)
    offsets = couplings @ kind.offsets
    scale = max(np.abs(kind.slopes * Bi + offsets).max(),
                np.abs(kind.slopes * Bf + offsets).max())
    clear = np.minimum(np.abs(batch.Qh), np.abs(batch.W)) > 1e-2 * scale
    assert np.all(np.abs(batch.eta_raw[clear] - (1.0 - Bi / Bf))
                  <= o.TOL.identity_check)


def test_the_identity_needs_moving_levels_without_offset():
    # An offset on a moving level breaks the idle-sum form; the general
    # form 1 - sum_n o_n dp_n / Qh still gives eta/eta0.
    offsets = np.array([0.3, -0.2, 0.7, 0.1])
    kind = _kind(labels=("a", "b", "c", "d"), slopes=(1.0, -1.0, 0.0, 0.5),
                 offsets={"x": offsets}, basis=np.eye(4))
    rec = _run_cycles(kind, np.array([[1.0]]), 1.0, 2.0, o.BathSpec(1.0),
                      o.BathSpec(0.3)).record(0)
    assert rec.engine_mode
    assert rec.eta / rec.eta0 == pytest.approx(0.8234, abs=1e-4)
    assert o.efficiency_ratio_identity(rec) == pytest.approx(0.9143, abs=1e-4)
    general = 1.0 - offsets @ list(rec.delta_p.values()) / rec.Qh
    assert rec.eta / rec.eta0 == pytest.approx(general, abs=1e-12)
