"""Library calls at the edge of the float range and past any memory.

Each call ends in the right finite answer or an OttoSimError: no NaN or
inf in a validated object or a returned number, no numpy RuntimeWarning
(each call runs with warnings as errors) and no raw numpy error. Sizes
here ask for more than 2**47 bytes, which no host can allocate.
"""

import warnings

import numpy as np
import pytest

import ottosim as o
from ottosim import core

HUGE = 1e308


def _strict(call):
    """call() with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return call()


def _finite_or_error(call):
    """call()'s array, checked finite, or None if it raised OttoSimError."""
    try:
        result = _strict(call)
    except o.OttoSimError:
        return None
    result = np.asarray(result)
    assert np.isfinite(result).all(), result
    return result


# -- NaN no longer passes the operator-layer checks ---------------------------

def test_a_density_matrix_whose_sum_overflows_fails_positivity():
    # eigenvalues +-1e308: m + m^dag overflowed to inf+nanj before
    with pytest.raises(o.OttoSimError, match="negative eigenvalue"):
        _strict(lambda: o.DensityMatrix([[0.5, HUGE], [HUGE, 0.5]]))


def test_an_eigensystem_near_the_float_limit_is_exact():
    h = _strict(lambda: o.hermitian_eigensystem([[HUGE, 0], [0, HUGE]]))
    assert h.eigenvalues.tolist() == [HUGE, HUGE]
    assert np.isfinite(h.matrix).all()
    assert np.array_equal(h.matrix, np.diag([HUGE, HUGE]))


def test_an_energy_expectation_near_the_float_limit_is_finite():
    rho = o.DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
    h = _strict(lambda: o.hermitian_eigensystem([[HUGE, 0], [0, -HUGE]]))
    assert _strict(lambda: o.energy_expectation(rho, h)) == 0.0


def test_a_too_large_energy_expectation_raises():
    # Tr[rho H] = 2 * 1.7e308; H is built by hand, past its own checks
    rho = o.DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
    h = o.HermitianOperator(matrix=np.full((2, 2), 1.7e308, dtype=complex),
                            eigenvalues=np.zeros(2),
                            eigenvectors=np.eye(2, dtype=complex))
    with pytest.raises(o.OttoSimError, match="too large"):
        _strict(lambda: o.energy_expectation(rho, h))


def test_transfer_and_populations_of_a_huge_hamiltonian_are_finite_or_refused():
    entries = [[HUGE, HUGE], [HUGE, -HUGE]]
    rho = o.DensityMatrix([[0.5, 0], [0, 0.5]])
    damping = o.damping_channel(2, 0.5)

    def through(use):
        return lambda: use(o.hermitian_eigensystem(entries))

    for call in (
            through(lambda h: o.transfer_matrix(damping, h).entries),
            through(lambda h: o.populations_in_basis(rho, h)),
            through(lambda h: o.channel_populations(damping, rho, h))):
        _finite_or_error(call)


def test_hermitian_part_keeps_the_bits_of_every_finite_sum():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((50, 3, 3)) + 1j * rng.standard_normal((50, 3, 3))
    m[0, 0, 1] = 5e-324  # subnormals: halving first would move these
    m[1, 2, 0] = -3 * 5e-324 + 1e-320j
    m[2] *= 1e300
    expect = 0.5 * (m + core._dagger(m))
    got = _strict(lambda: core._hermitian_part(m))
    assert got.tobytes() == expect.tobytes()


def test_hermitian_part_halves_first_where_the_sum_overflows():
    m = np.array([[HUGE, 1.5e308], [1.5e308, -HUGE]], dtype=complex)
    assert np.array_equal(_strict(lambda: core._hermitian_part(m)), m)


def test_every_density_check_fails_on_a_nan():
    nan = np.full((1, 2, 2), np.nan + 0j)
    with pytest.raises(o.OttoSimError):
        core._densities(nan)
    with pytest.raises(o.OttoSimError):
        core._eigensystems(nan)


@pytest.mark.parametrize("energies, beta", [
    ([0.0, np.nan], 1.0), ([np.inf, np.inf], 1.0),
    ([0.0, 1.0], np.inf), ([0.0, 1.0], np.nan),
])
def test_boltzmann_populations_refuse_what_makes_a_nan(energies, beta):
    with pytest.raises(o.OttoSimError, match="finite"):
        _strict(lambda: o.boltzmann_populations(energies, beta))


# -- no numpy RuntimeWarning escapes a public call ------------------------------

@pytest.mark.parametrize("energies, beta, expect", [
    ([HUGE, -HUGE], HUGE, [0.0, 1.0]),
    ([0.0, 1000.0], 1e306, [1.0, 0.0]),
])
def test_boltzmann_weights_too_small_to_represent_are_zero(energies, beta,
                                                           expect):
    assert _strict(lambda: o.boltzmann_populations(energies, beta)).tolist() \
        == expect


def test_a_gibbs_state_at_a_huge_beta_is_the_ground_state():
    h = o.hermitian_eigensystem([[1, 0], [0, -1]])
    rho = _strict(lambda: o.gibbs_state(h, o.BathSpec(HUGE)))
    assert np.array_equal(rho.matrix, np.diag([0.0, 1.0]))


def test_a_gap_ratio_check_whose_product_overflows_is_not_uniform():
    spec = o.SubstanceSpec.qutrit(HUGE)
    assert _strict(lambda: o.check_uniform_gap_ratio(spec, 1e-300, HUGE)) \
        is None


def test_a_uniform_gap_ratio_too_large_to_represent_raises():
    spec = o.SubstanceSpec.qutrit(0.0)
    assert o.check_uniform_gap_ratio(spec, 1.0, 2.0) == 2.0
    with pytest.raises(o.InvalidField, match="too large"):
        _strict(lambda: o.check_uniform_gap_ratio(spec, 1e-300, HUGE))


@pytest.mark.parametrize("operators", [
    [[[1e200, 0], [0, 1e200]]],
    [[[1e200, 1e200], [1e200, -1e200]]],
])
def test_kraus_operators_whose_sums_overflow_are_not_trace_preserving(
        operators):
    with pytest.raises(o.NotTracePreserving):
        _strict(lambda: o.kraus_channel(operators))


def test_a_projector_too_large_to_represent_is_refused():
    with pytest.raises(o.OttoSimError):
        _strict(lambda: o.projective_channel([[1e200, 0], [0, 1]]))


def test_a_spin_direction_whose_norm_overflows_is_not_a_unit_vector():
    with pytest.raises(o.NonUnitVector):
        _strict(lambda: o.SpinDirection(1.7e308, 1.7e308, 0.0))


def test_a_hermiticity_defect_too_large_to_represent_is_inf():
    m = np.array([[0, HUGE], [-HUGE, 0]], dtype=complex)
    assert _strict(lambda: core.hermitian_defect(m)) == np.inf
    with pytest.raises(o.NotHermitian):
        _strict(lambda: o.hermitian_eigensystem(m))


# -- huge or malformed input raises OttoSimError before any work ---------------

@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if a random generator is made."""
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was made")
    monkeypatch.setattr(np.random, "default_rng", refuse)


@pytest.mark.parametrize("call", [
    lambda: o.damping_channel(10 ** 7, 0.5),          # 1.6e22 bytes
    lambda: o.random_unital_channel(10 ** 7, 1, 1),   # 1.6e15 bytes
    lambda: o.random_unital_channel(2, 1, 10 ** 15),  # 6.4e16 bytes
    lambda: o.theorem1_suite(dims=(2,), samples=10 ** 30),
], ids=["damping-dim", "unital-dim", "unital-mix", "theorem1-samples"])
def test_a_size_no_host_can_hold_raises_before_any_draw(no_draws, call):
    with pytest.raises(o.OttoSimError, match="too large to hold in memory"):
        _strict(call)


@pytest.mark.parametrize("states", [["ab", "cd"], [[1, 0], [object(), 1]],
                                    5])
def test_projective_channel_states_must_be_numbers(states):
    with pytest.raises(o.OttoSimError, match="states must be vectors"):
        _strict(lambda: o.projective_channel(states))

