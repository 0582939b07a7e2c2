import warnings

import numpy as np
import pytest

import ottosim as o
from helpers import (oracle_apply, oracle_transfer, random_density,
                     random_hermitian)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _sigma_x_channel():
    return o.projective_channel([np.array([1, 1]) / np.sqrt(2),
                                 np.array([1, -1]) / np.sqrt(2)])


def test_kraus_channel_rejects_non_trace_preserving():
    with pytest.raises(o.NotTracePreserving):
        o.kraus_channel([np.eye(2) / 2])


def test_kraus_channel_rejects_empty_and_ragged():
    with pytest.raises(o.OttoSimError):
        o.kraus_channel([])
    with pytest.raises(o.DimensionMismatch):
        o.kraus_channel([np.eye(2), np.eye(3)])


def test_unital_flag():
    assert o.is_unital(_sigma_x_channel())
    assert not o.is_unital(o.damping_channel(2, 0.5))
    rng = np.random.default_rng(2)
    u = o.hermitian_eigensystem(random_hermitian(rng, 3)).eigenvectors
    v = o.hermitian_eigensystem(random_hermitian(rng, 3)).eigenvectors
    mix = o.kraus_channel([u / np.sqrt(2), v / np.sqrt(2)])
    assert o.is_unital(mix)


def test_minimally_disturbing_examples():
    assert o.is_minimally_disturbing(_sigma_x_channel())
    # mixtures of non-Hermitian unitaries are unital but not measurements
    rng = np.random.default_rng(4)
    ch = o.random_unital_channel(3, seed=8, mix_count=3)
    assert o.is_unital(ch)
    assert not o.is_minimally_disturbing(ch)
    del rng


def test_minimally_disturbing_implies_unital():
    for angles in [(0.3, 1.1, 0.2, 2.0), (2.0, 0.4, 1.5, 0.9)]:
        ch = o.su3_projective_channel(o.Su3Angles(*angles))
        assert o.is_minimally_disturbing(ch)
        assert o.is_unital(ch)


def test_apply_channel_identity():
    rng = np.random.default_rng(6)
    rho = o.DensityMatrix(random_density(rng, 3))
    out = o.apply_channel(o.kraus_channel([np.eye(3)]), rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


def test_apply_channel_dephasing_keeps_diagonal():
    rng = np.random.default_rng(7)
    h = o.hermitian_eigensystem(random_hermitian(rng, 4))
    ch = o.projective_channel([h.eigenvectors[:, k] for k in range(4)])
    rho = o.DensityMatrix(random_density(rng, 4))
    out = o.apply_channel(ch, rho)
    v = h.eigenvectors
    before = v.conj().T @ rho.matrix @ v
    after = v.conj().T @ out.matrix @ v
    np.testing.assert_allclose(np.diag(after), np.diag(before), atol=1e-12)
    np.testing.assert_allclose(after - np.diag(np.diag(after)),
                               np.zeros((4, 4)), atol=1e-12)


def test_apply_channel_matches_direct_sum():
    rng = np.random.default_rng(8)
    for ch in (o.damping_channel(3, 0.3, sink=1),
               o.random_unital_channel(4, seed=5, mix_count=2),
               _sigma_x_channel()):
        rho = o.DensityMatrix(random_density(rng, ch.dim))
        out = o.apply_channel(ch, rho)
        np.testing.assert_allclose(out.matrix,
                                   oracle_apply(ch.operators, rho.matrix),
                                   atol=1e-12)


def test_apply_channel_dimension_mismatch():
    with pytest.raises(o.DimensionMismatch):
        o.apply_channel(_sigma_x_channel(), o.DensityMatrix(np.eye(3) / 3))


def test_transfer_matrix_energy_basis_projection_is_identity():
    rng = np.random.default_rng(10)
    h = o.hermitian_eigensystem(random_hermitian(rng, 3))
    ch = o.projective_channel([h.eigenvectors[:, k] for k in range(3)])
    t = o.transfer_matrix(ch, h)
    np.testing.assert_allclose(t.entries, np.eye(3), atol=1e-12)


def test_transfer_matrix_sigma_x_on_qubit():
    h = o.hermitian_eigensystem(np.diag([2.0, -2.0]))
    t = o.transfer_matrix(_sigma_x_channel(), h)
    np.testing.assert_allclose(t.entries, np.full((2, 2), 0.5), atol=1e-12)


def test_transfer_matrix_stochasticity():
    rng = np.random.default_rng(12)
    h = o.hermitian_eigensystem(random_hermitian(rng, 3))
    unital = o.random_unital_channel(3, seed=3, mix_count=4)
    t = o.transfer_matrix(unital, h).entries
    np.testing.assert_allclose(t.sum(axis=0), np.ones(3), atol=1e-10)
    np.testing.assert_allclose(t.sum(axis=1), np.ones(3), atol=1e-10)
    pump = o.transfer_matrix(o.damping_channel(3, 0.6), h).entries
    np.testing.assert_allclose(pump.sum(axis=0), np.ones(3), atol=1e-10)
    assert np.abs(pump.sum(axis=1) - 1.0).max() > 1e-6


def test_transfer_matrix_agrees_with_brute_force():
    rng = np.random.default_rng(13)
    for ch in (o.random_unital_channel(3, seed=9, mix_count=3),
               o.damping_channel(4, 0.25, sink=2)):
        h = o.hermitian_eigensystem(random_hermitian(rng, ch.dim))
        t = o.transfer_matrix(ch, h).entries
        vecs = [h.eigenvectors[:, k] for k in range(ch.dim)]
        np.testing.assert_allclose(t, oracle_transfer(ch.operators, vecs),
                                   atol=1e-12)


def test_transfer_matrix_propagates_populations():
    # p' = T p for states diagonal in the energy eigenbasis, which is
    # exactly the situation after a thermalization stroke
    rng = np.random.default_rng(14)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        ch = o.random_unital_channel(dim, seed=int(rng.integers(1, 10_000)),
                                     mix_count=3)
        h = o.hermitian_eigensystem(random_hermitian(rng, dim))
        p = rng.random(dim)
        p /= p.sum()
        v = h.eigenvectors
        rho = o.DensityMatrix(v @ np.diag(p) @ v.conj().T)
        t = o.transfer_matrix(ch, h)
        np.testing.assert_allclose(o.channel_populations(ch, rho, h),
                                   t.entries @ p, atol=1e-10)


def test_energy_change_identity_is_zero():
    rng = np.random.default_rng(15)
    h = o.hermitian_eigensystem(random_hermitian(rng, 3))
    rho = o.DensityMatrix(random_density(rng, 3))
    ch = o.kraus_channel([np.eye(3)])
    assert o.energy_change(ch, rho, h) == pytest.approx(0.0, abs=1e-12)


def test_energy_change_sigma_x_flips_ground_qubit():
    h = o.hermitian_eigensystem(np.diag([1.0, -1.0]))
    ground = o.DensityMatrix(np.diag([0.0, 1.0]))
    # x measurement of the ground state costs one full gap on average
    assert o.energy_change(_sigma_x_channel(), ground, h) == pytest.approx(
        1.0, abs=1e-12)


def test_damping_channel_operators_match_construction():
    ch = o.damping_channel(2, 0.5)
    np.testing.assert_allclose(ch.operators[0],
                               np.diag([1.0, np.sqrt(0.5)]), atol=1e-15)
    jump = np.zeros((2, 2))
    jump[0, 1] = np.sqrt(0.5)
    np.testing.assert_allclose(ch.operators[1], jump, atol=1e-15)
    with pytest.raises(o.OttoSimError):
        o.damping_channel(2, 1.5)


def test_random_unital_channel_contract():
    ch = o.random_unital_channel(3, seed=42, mix_count=4)
    assert ch.dim == 3
    assert o.is_unital(ch)
    again = o.random_unital_channel(3, seed=42, mix_count=4)
    for a, b in zip(ch.operators, again.operators):
        np.testing.assert_array_equal(a, b)
    single = o.random_unital_channel(2, seed=7, mix_count=1)
    assert len(single.operators) == 1
    assert o.is_unital(single)
    with pytest.raises(o.OttoSimError):
        o.random_unital_channel(1, seed=0, mix_count=2)


@pytest.mark.parametrize("dim,seed,mix_count", [
    (2, 0, 1), (2, 7, 4), (3, 42, 3), (3, 2 ** 31 - 1, 2), (4, 5, 4),
    (4, 123456, 1), (3, 9, 6),
])
def test_random_unital_channel_follows_its_draw_order_bitwise(dim, seed,
                                                              mix_count):
    # Plain numpy, following the documented draw order. theorem1's oracle
    # builds its mixtures with random_unital_channel itself, so only this
    # test would see a change to the stream behind it.
    rng = np.random.default_rng(seed)
    q = rng.random(mix_count) + 0.1
    q = q / q.sum()
    want = []
    for j in range(mix_count):
        re = rng.standard_normal((dim, dim))
        im = rng.standard_normal((dim, dim))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        a = re + 1j * im
        _, v = np.linalg.eigh(0.5 * (a + a.conj().T))
        want.append(np.sqrt(q[j]) * (v @ np.diag(np.exp(1j * angles))))
    got = o.random_unital_channel(dim, seed, mix_count).operators
    assert len(got) == mix_count
    for g, w in zip(got, want):
        assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()


def test_rearrangement_oracle_examples():
    assert o.rearrangement_oracle([0.7, 0.3], [0.0, 1.0]) == pytest.approx(0.3)
    assert o.rearrangement_oracle([0.3, 0.7], [0.0, 1.0]) == pytest.approx(0.3)


def test_rearrangement_oracle_matches_sorting():
    rng = np.random.default_rng(16)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        p = rng.random(dim)
        p /= p.sum()
        e = np.sort(rng.standard_normal(dim))
        best = float(np.dot(e, np.sort(p)[::-1]))
        assert o.rearrangement_oracle(p, e) == pytest.approx(best, abs=1e-12)


def test_rearrangement_oracle_passive_is_optimal():
    # a passive arrangement already attains the brute-force minimum
    pops = [0.7, 0.2, 0.1]
    energies = [-1.0, 0.0, 2.0]
    assert o.is_passive(pops, energies)
    assert o.rearrangement_oracle(pops, energies) == pytest.approx(
        float(np.dot(pops, energies)), abs=1e-12)


@pytest.mark.parametrize("pops, energies", [
    ([1, 1], [1e308, 1e308]), ([0.7, 0.7], [0, 1]), ([1.5, -0.5], [0, 1])])
def test_rearrangement_oracle_needs_a_probability_vector(pops, energies):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(o.OttoSimError, match="probability vector"):
            o.rearrangement_oracle(pops, energies)


def test_rearrangement_oracle_sum_too_large_to_represent_raises():
    # a probability vector within TOL.population whose sum overflows
    top = np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(o.OttoSimError, match="too large"):
            o.rearrangement_oracle([1 + 1e-11, -1e-11], [top, -top])
        assert o.rearrangement_oracle([0.5, 0.5], [top, top]) == top


def test_rearrangement_oracle_dimension_cap():
    with pytest.raises(o.DimensionTooLarge):
        o.rearrangement_oracle(np.full(7, 1 / 7), np.arange(7.0))


def test_apply_channel_holds_the_bits_of_the_plain_sum():
    # the stacked helper behind apply_channel (and theorem1_suite) adds
    # M rho M^dag in operator order, as the plain loop does
    rng = np.random.default_rng(8)
    for dim in (2, 3, 4):
        for ch in (o.random_unital_channel(dim, seed=dim, mix_count=4),
                   o.damping_channel(dim, 0.4, sink=dim - 1)):
            rho = o.DensityMatrix(random_density(rng, dim))
            out = oracle_apply(ch.operators, rho.matrix)
            want = 0.5 * (out + out.conj().T)
            assert o.apply_channel(ch, rho).matrix.tobytes() == want.tobytes()
