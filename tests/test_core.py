import numpy as np
import pytest

import ottosim as o
from helpers import oracle_boltzmann, random_density, random_hermitian

# Frozen reference numbers for the three-level magnet at B=3, J=0, beta=1.
QUTRIT_B3_POPS = (0.9503302116973794, 0.04731415522182405,
                  0.0023556330807966807)
QUTRIT_B3_ENERGY = -2.843923735849748


def test_eigensystem_qutrit_matrix():
    h = o.hermitian_eigensystem([[0, 3, 0], [3, 0, 0], [0, 0, -2]])
    np.testing.assert_allclose(h.eigenvalues, [-3.0, -2.0, 3.0], atol=1e-12)
    lo = np.array([-1, 1, 0]) / np.sqrt(2)
    hi = np.array([1, 1, 0]) / np.sqrt(2)
    assert abs(lo.conj() @ h.eigenvectors[:, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(h.eigenvectors[2, 1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(hi.conj() @ h.eigenvectors[:, 2]) == pytest.approx(1.0, abs=1e-12)


def test_eigensystem_identity():
    h = o.hermitian_eigensystem(np.eye(3))
    np.testing.assert_allclose(h.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)


def test_eigensystem_coupled_pair_matrix():
    m = np.diag([4.0, -1.0, -1.0, -4.0])
    m[1, 2] = m[2, 1] = 2.0
    h = o.hermitian_eigensystem(m)
    np.testing.assert_allclose(h.eigenvalues, [-4.0, -3.0, 1.0, 4.0],
                               atol=1e-12)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(o.NotHermitian):
        o.hermitian_eigensystem([[0, 1], [0, 0]])


def test_eigensystem_random_invariants():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        h = o.hermitian_eigensystem(random_hermitian(rng, dim))
        v = h.eigenvectors
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(
            v @ np.diag(h.eigenvalues) @ v.conj().T, h.matrix, atol=1e-10)
        assert np.all(np.diff(h.eigenvalues) >= -1e-12)


def test_gibbs_qutrit_reference_point():
    h = o.hermitian_eigensystem([[0, 3, 0], [3, 0, 0], [0, 0, 0]])
    rho = o.gibbs_state(h, o.BathSpec(1.0))
    pops = o.populations_in_basis(rho, h)
    np.testing.assert_allclose(pops, QUTRIT_B3_POPS, atol=1e-12)
    assert o.energy_expectation(rho, h) == pytest.approx(QUTRIT_B3_ENERGY,
                                                         abs=1e-12)


def test_gibbs_qutrit_coupled_reference_point():
    h = o.hermitian_eigensystem([[0, 3, 0], [3, 0, 0], [0, 0, -2]])
    pops = o.populations_in_basis(o.gibbs_state(h, o.BathSpec(1.0)), h)
    np.testing.assert_allclose(
        pops,
        (0.7297362141184152, 0.26845495065244657, 0.0018088352291382895),
        atol=1e-12)


def test_gibbs_matches_direct_boltzmann_weights():
    rng = np.random.default_rng(5)
    for _ in range(25):
        dim = int(rng.integers(2, 7))
        h = o.hermitian_eigensystem(random_hermitian(rng, dim))
        beta = float(rng.uniform(0.05, 4.0))
        pops = o.populations_in_basis(o.gibbs_state(h, o.BathSpec(beta)), h)
        np.testing.assert_allclose(pops,
                                   oracle_boltzmann(h.eigenvalues, beta),
                                   atol=1e-12)


def test_gibbs_infinite_temperature_limit():
    h = o.hermitian_eigensystem([[0, 3, 0], [3, 0, 0], [0, 0, -2]])
    pops = o.populations_in_basis(o.gibbs_state(h, o.BathSpec(1e-12)), h)
    np.testing.assert_allclose(pops, np.full(3, 1 / 3), atol=1e-9)


def test_boltzmann_populations_large_beta_stable():
    # ground-state shift keeps exp() from overflowing
    pops = o.boltzmann_populations([-500.0, 0.0, 500.0], 10.0)
    assert np.isfinite(pops).all()
    np.testing.assert_allclose(pops, [1.0, 0.0, 0.0], atol=1e-12)


def test_bath_spec_rejects_bad_beta():
    for beta in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(o.InvalidField):
            o.BathSpec(beta)


QUTRIT = o.SubstanceSpec.qutrit(1.0)


@pytest.mark.parametrize("call", [
    lambda: o.SubstanceSpec(o.SubstanceKind.QUTRIT, J="1"),
    lambda: o.SubstanceSpec(o.SubstanceKind.QUTRIT, J=None),
    lambda: o.BathSpec("1"),
    lambda: o.BathSpec(None),
    lambda: o.Su3Angles("a", 1, 1, 1),
    lambda: o.SpinDirection("1", 0, 0),
    lambda: o.SpinDirection(1e200, 0.0, 0.0),
    lambda: o.build_hamiltonian(QUTRIT, "2"),
    lambda: o.labelled_spectrum(QUTRIT, "2"),
    lambda: o.check_uniform_gap_ratio(QUTRIT, "1", 2),
    lambda: o.closed_form_two_bath_qutrit("1", 3, 4, 1, 1),
    lambda: o.theorem1_suite(samples="5"),
], ids=["spec-J-text", "spec-J-None", "bath-text", "bath-None", "angle-text",
        "spin-text", "spin-overflow", "hamiltonian-B-text",
        "spectrum-B-text", "gap-ratio-Bi-text", "closed-form-J-text",
        "theorem1-samples-text"])
def test_non_numbers_raise_ottosim_error(call):
    with pytest.raises(o.OttoSimError):
        call()


def test_energy_expectation_ground_projector():
    rng = np.random.default_rng(3)
    h = o.hermitian_eigensystem(random_hermitian(rng, 4))
    v = h.eigenvectors[:, 0]
    rho = o.DensityMatrix(np.outer(v, v.conj()))
    assert o.energy_expectation(rho, h) == pytest.approx(h.eigenvalues[0],
                                                         abs=1e-10)


def test_energy_expectation_maximally_mixed():
    h = o.hermitian_eigensystem([[0, 3, 0], [3, 0, 0], [0, 0, -2]])
    rho = o.DensityMatrix(np.eye(3) / 3)
    assert o.energy_expectation(rho, h) == pytest.approx(-2 / 3, abs=1e-12)


def test_energy_expectation_dimension_mismatch():
    h = o.hermitian_eigensystem(np.eye(3))
    with pytest.raises(o.DimensionMismatch):
        o.energy_expectation(o.DensityMatrix(np.eye(2) / 2), h)


def test_gibbs_energy_monotone_in_beta():
    mats = [
        [[0, 3, 0], [3, 0, 0], [0, 0, -2]],
        o.build_hamiltonian(o.SubstanceSpec.xxz(1.0, 0.5), 3.0).matrix,
    ]
    for m in mats:
        h = o.hermitian_eigensystem(m)
        energies = [o.energy_expectation(o.gibbs_state(h, o.BathSpec(b)), h)
                    for b in np.linspace(0.1, 5.0, 25)]
        assert np.all(np.diff(energies) <= 1e-12)


def test_populations_of_projector():
    h = o.hermitian_eigensystem([[0, 3, 0], [3, 0, 0], [0, 0, -2]])
    v = h.eigenvectors[:, 1]
    pops = o.populations_in_basis(o.DensityMatrix(np.outer(v, v.conj())), h)
    np.testing.assert_allclose(pops, [0.0, 1.0, 0.0], atol=1e-12)


def test_populations_maximally_mixed():
    rng = np.random.default_rng(9)
    h = o.hermitian_eigensystem(random_hermitian(rng, 4))
    pops = o.populations_in_basis(o.DensityMatrix(np.eye(4) / 4), h)
    np.testing.assert_allclose(pops, np.full(4, 0.25), atol=1e-12)


def test_populations_sum_to_one_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        h = o.hermitian_eigensystem(random_hermitian(rng, dim))
        pops = o.populations_in_basis(o.DensityMatrix(random_density(rng, dim)), h)
        assert pops.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(pops >= -1e-10)


def test_is_passive_examples():
    assert o.is_passive([0.7, 0.2, 0.1], [-1.0, 0.0, 2.0])
    assert not o.is_passive([0.2, 0.7, 0.1], [-1.0, 0.0, 2.0])


def test_is_passive_ignores_degenerate_pairs():
    # population order within a degenerate pair carries no energy meaning
    assert o.is_passive([0.3, 0.45, 0.25], [0.0, 0.0, 1.0])
    assert not o.is_passive([0.3, 0.25, 0.45], [0.0, 0.0, 1.0])


def test_is_passive_gibbs_always_passive():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        h = o.hermitian_eigensystem(random_hermitian(rng, dim))
        beta = float(rng.uniform(0.05, 5.0))
        pops = o.populations_in_basis(o.gibbs_state(h, o.BathSpec(beta)), h)
        assert o.is_passive(pops, h.eigenvalues)


def test_is_passive_validation():
    with pytest.raises(o.LengthMismatch):
        o.is_passive([0.5, 0.5], [0.0, 1.0, 2.0])
    with pytest.raises(o.OttoSimError):
        o.is_passive([0.5, 0.6], [0.0, 1.0])


def test_density_matrix_validation():
    with pytest.raises(o.NotHermitian):
        o.DensityMatrix([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(o.OttoSimError):
        o.DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(o.OttoSimError):
        o.DensityMatrix(np.diag([1.5, -0.5]))
