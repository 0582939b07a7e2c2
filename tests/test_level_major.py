"""The cycle kernel keeps every per-level array level first, (d, N). A
row-major transcription of the kernel as it was before, with every
per-level array (N, d), is kept here as the reference: the kernel must
give its bits in the (N, d) views CycleBatch shows, for all three kinds,
a hot bath and Kraus stacks of 1 to 4 blocks. So must the Gibbs weights
of boltzmann_populations, on stacks of spectra with an array beta."""

import math

import numpy as np
import pytest

import ottosim as o
from ottosim import channels, cycle, substances
from ottosim.tolerances import TOL

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

KINDS = tuple(substances._KINDS.values())
FIELDS = ("flux_hot", "flux_cold", "delta_p", "p_cold", "p_hot", "Qh", "Qc",
          "W", "eta_raw", "engine_mode", "crossing")


def _row_sum(x):
    total = np.zeros(x.shape[:-1])
    for k in range(x.shape[-1]):
        total = total + x[..., k]
    return total


def _row_min(x):
    low = x[..., 0]
    for k in range(1, x.shape[-1]):
        low = np.minimum(low, x[..., k])
    return low


def _row_gibbs(e, beta):
    w = np.exp(-beta * (e - _row_min(e)[..., None]))
    return w / _row_sum(w)[..., None]


def _row_major_cycles(kind, couplings, Bi, Bf, cold, stroke):
    """The kernel with every per-level array (N, d), as it was written."""
    offsets = couplings @ kind.offsets
    ei, ef = kind.slopes * np.array([Bi, Bf])[:, None, None] + offsets
    with np.errstate(over="ignore", invalid="ignore"):
        p_cold = _row_gibbs(ei, cold.beta)
        if isinstance(stroke, o.BathSpec):
            p_hot = _row_gibbs(ef, stroke.beta)
        else:
            blocks = (len(stroke), len(couplings) // len(stroke), ei.shape[1])
            t = channels._transfer_entries(stroke, kind.basis)
            p_hot = _row_sum(t[:, None] * p_cold.reshape(blocks)[..., None, :]
                             ).reshape(ef.shape)
            still = np.abs(p_hot - p_cold) <= TOL.population_snap
            p_hot = np.where(still, p_cold, p_hot)
        delta_p = p_hot - p_cold
        flux_hot = ef * delta_p
        flux_cold = -ei * delta_p
        Qh = _row_sum(flux_hot)
        Qc = _row_sum(flux_cold)
        W = -(Qh + Qc)
    eta_raw = -W / np.where(Qh != 0.0, Qh, np.nan)
    n, m = kind.pairs.T
    fields = (offsets[:, m] - offsets[:, n]) / (kind.slopes[n] - kind.slopes[m])
    return dict(flux_hot=flux_hot, flux_cold=flux_cold, delta_p=delta_p,
                p_cold=p_cold, p_hot=p_hot, Qh=Qh, Qc=Qc, W=W,
                eta_raw=eta_raw, engine_mode=(W < 0.0) & (Qh > 0.0),
                crossing=((Bi <= fields) & (fields <= Bf)).any(axis=1))


@st.composite
def kraus_stacks(draw, dim):
    """1 to 4 checked channels, unitary mixtures or damping, padded with
    zero operators to one rank, as one stack (B, r, d, d)."""
    stack = np.zeros((draw(st.integers(1, 4)), dim, dim, dim), dtype=complex)
    for block in stack:
        if draw(st.booleans()):
            ops = channels._damping_operators(
                dim, draw(st.floats(0.0, 1.0)), draw(st.integers(0, dim - 1)))
        else:
            ops = o.random_unital_channel(
                dim, draw(st.integers(0, 2 ** 31)),
                mix_count=draw(st.integers(1, dim))).operators
        block[:len(ops)] = ops
    channels._check_kraus(stack)
    return stack


@st.composite
def cycles(draw):
    kind = draw(st.sampled_from(KINDS))
    dim = len(kind.labels)
    stroke = draw(st.one_of(st.builds(o.BathSpec, st.floats(0.05, 5.0)),
                            kraus_stacks(dim)))
    blocks = 1 if isinstance(stroke, o.BathSpec) else len(stroke)
    rows = blocks * draw(st.integers(1, 5))
    width = kind.offsets.shape[0]
    couplings = np.array(draw(st.lists(
        st.floats(-3.0, 3.0), min_size=rows * width,
        max_size=rows * width))).reshape(rows, width)
    Bi = draw(st.floats(0.2, 4.0))
    Bf = Bi * draw(st.floats(1.05, 3.0))
    return kind, couplings, Bi, Bf, o.BathSpec(draw(st.floats(0.05, 5.0))), \
        stroke


@hypothesis.settings(max_examples=150)
@given(cycles())
def test_level_major_kernel_has_the_row_major_kernel_s_bits(args):
    batch = cycle._run_cycles(*args)
    want = _row_major_cycles(*args)
    for name in FIELDS:
        got = getattr(batch, name)
        assert got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name
    labels = args[0].labels
    for k in range(len(args[1])):
        rec = batch.record(k)
        assert rec.populations_hot == dict(zip(labels,
                                               want["p_hot"][k].tolist()))
        assert rec.per_level_flux_cold == dict(
            zip(labels, want["flux_cold"][k].tolist()))


@st.composite
def spectra_and_betas(draw):
    """A stack of spectra (..., d) and a beta that is one number or one
    per spectrum, (..., 1)."""
    shape = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    dim = draw(st.integers(1, 4))
    energies = np.array(draw(st.lists(
        st.floats(-50.0, 50.0), min_size=math.prod(shape) * dim,
        max_size=math.prod(shape) * dim))).reshape(*shape, dim)
    beta_shape = draw(st.sampled_from([(), (*shape, 1)]))
    beta = np.array(draw(st.lists(
        st.floats(0.01, 20.0), min_size=math.prod(beta_shape),
        max_size=math.prod(beta_shape)))).reshape(beta_shape)
    return energies, beta


@given(spectra_and_betas())
def test_boltzmann_populations_are_the_row_major_formula_s(args):
    energies, beta = args
    got = o.boltzmann_populations(energies, beta)
    with np.errstate(over="ignore", under="ignore"):
        want = _row_gibbs(energies, beta)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
