"""The check-only stages of the density and channel validation.

Positivity is cleared by a Cholesky factorization and decided by eigvalsh
only where that fails; trace preservation is one product K^dag K of the
operators stacked in rows. The references here are the checks those
replaced: eigvalsh on every matrix, and the sum of the per-operator
products M_a^dag M_a in operator order.
"""

import numpy as np
import pytest

import ottosim as o
from ottosim import channels, core
from ottosim.tolerances import TOL

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given = hypothesis.given

EDGE = TOL.positivity
# Smallest eigenvalues, in units of -TOL.positivity: at, just inside and
# just outside the floor, and about the Cholesky shift of half the floor.
NEAR = (1.0, 1 - 1e-9, 1 + 1e-9, 1 - 1e-6, 1 + 1e-6, 1 - 1e-3, 1 + 1e-3,
        0.5, 0.5 - 1e-9, 0.5 + 1e-9, 0.75, 0.0)


def _unit_trace(d, seed, smallest):
    """A unit-trace Hermitian d x d matrix with smallest eigenvalue
    smallest, in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    rest = rng.random(d - 1) + 1e-3
    vals = np.concatenate(([smallest], rest * (1 - smallest) / rest.sum()))
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = np.linalg.qr(a)[0]
    return (u * vals) @ u.conj().T


@st.composite
def near_floor(draw, d):
    scale = draw(st.one_of(st.sampled_from(NEAR), st.floats(-1.0, 3.0)))
    return _unit_trace(d, draw(st.integers(0, 2 ** 32 - 1)), -EDGE * scale)


@st.composite
def density_stacks(draw):
    d = draw(st.sampled_from((2, 3, 4)))
    return np.array(draw(st.lists(near_floor(d), min_size=1, max_size=6)))


def _reference(m):
    """eigvalsh's verdict on m (a matrix or a stack): None or the error."""
    smallest = float(np.linalg.eigvalsh(core._hermitian_part(m)).min())
    return None if smallest >= -EDGE else f"negative eigenvalue {smallest:.3e}"


def _verdict(call):
    try:
        call()
    except o.OttoSimError as exc:
        return str(exc)
    return None


@given(density_stacks())
def test_positivity_verdicts_and_messages_are_eigvalsh_s(stack):
    assert _verdict(lambda: core._densities(stack)) == _reference(stack)
    for m in stack:
        assert _verdict(lambda: o.DensityMatrix(m)) == _reference(m)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """A list that grows by one entry per np.linalg.eigvalsh call."""
    calls = []
    real = np.linalg.eigvalsh

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


@pytest.mark.parametrize("scale, fails, decided_by_eigvalsh", [
    (1 + 1e-6, True, True), (1 - 1e-6, False, True), (0.75, False, True),
    (0.25, False, False), (0.0, False, False), (-1.0, False, False)])
def test_only_stacks_without_a_factor_reach_eigvalsh(
        eigvalsh_calls, scale, fails, decided_by_eigvalsh):
    m = _unit_trace(3, 11, -EDGE * scale)
    assert (_verdict(lambda: o.DensityMatrix(m)) is not None) == fails
    assert len(eigvalsh_calls) == decided_by_eigvalsh


@pytest.mark.parametrize("seed", [1, 5, 2026])
def test_a_default_theorem1_suite_calls_no_eigvalsh(eigvalsh_calls, seed):
    assert o.theorem1_suite((2, 3, 4), 500, seed).passed
    assert eigvalsh_calls == []


def test_a_nan_diagonal_has_no_factor_and_fails():
    m = np.array([[[np.nan, 0], [0, 1]]], dtype=complex)
    assert not core._factors(m)  # numpy's factor is NaN, with no error
    with pytest.raises(o.OttoSimError):
        core._densities(m)


def test_a_factor_that_overflows_is_no_proof():
    # the overflow case of test_extreme_input, inside a stack of states
    stack = np.array([np.eye(2) / 2, [[0.5, 1e308], [1e308, 0.5]]],
                     dtype=complex)
    assert not core._factors(stack)
    with pytest.raises(o.OttoSimError, match="negative eigenvalue"):
        core._densities(stack)


# -- trace preservation -------------------------------------------------------

SLOTS = 4


def _gamma(n):
    u = 2.0 ** -53
    return n * u / (1 - n * u)


@st.composite
def kraus_stacks(draw):
    """Stacks (n, SLOTS, d, d) of channels of 1 to SLOTS operators in
    random slots, the others zero, scaled so that sum M^dag M is
    (1 + eps) I for eps of either sign about TOL.channel."""
    d = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 5))
    stack = np.zeros((n, SLOTS, d, d), dtype=complex)
    for k in range(n):
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        r = draw(st.integers(1, SLOTS))
        shape = (r * d, d)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        eps = draw(st.sampled_from((-1, 1))) * 10 ** draw(st.floats(-13, -8))
        ops = (np.sqrt(1 + eps) * np.linalg.qr(a)[0]).reshape(r, d, d)
        stack[k, rng.permutation(SLOTS)[:r]] = ops
    return stack


def _reference_defects(stack):
    """max |sum_a M_a^dag M_a - 1| per channel, the r products summed in
    operator order, and the band of the stated rounding bound."""
    d = stack.shape[-1]
    tp = 0
    for a in range(SLOTS):
        m = stack[:, a]
        tp = tp + m.conj().swapaxes(-1, -2) @ m
    diag = np.abs(np.diagonal(tp, axis1=-2, axis2=-1)).max(axis=-1)
    return (np.abs(tp - np.eye(d)).max(axis=(-2, -1)),
            2 * _gamma(SLOTS * d + 2) * diag)


@given(kraus_stacks())
def test_trace_preservation_verdicts_are_the_per_operator_sum_s(stack):
    defects, band = _reference_defects(stack)
    hypothesis.assume((np.abs(defects - TOL.channel) > band).all())
    fails = defects > TOL.channel
    verdict = _verdict(lambda: channels._check_trace_preserving(stack))
    assert (verdict is not None) == fails.any()
    for ops, fail in zip(stack, fails):
        verdict = _verdict(lambda: o.kraus_channel(list(ops)))
        assert (verdict is not None) == fail
