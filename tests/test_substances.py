import warnings

import numpy as np
import pytest

import ottosim as o


def test_qutrit_hamiltonian_matrix():
    h = o.build_hamiltonian(o.SubstanceSpec.qutrit(2.0), 3.0)
    np.testing.assert_allclose(h.matrix,
                               [[0, 3, 0], [3, 0, 0], [0, 0, -2]], atol=0)


def test_xxz_hamiltonian_matrices():
    h = o.build_hamiltonian(o.SubstanceSpec.xxz(0.0, 0.0), 2.0)
    np.testing.assert_allclose(h.matrix, np.diag([4.0, 0, 0, -4.0]), atol=0)
    h = o.build_hamiltonian(o.SubstanceSpec.xxz(1.0, 0.5), 2.0)
    np.testing.assert_allclose(np.sort(h.eigenvalues), [-4.0, -3.0, 1.0, 4.0],
                               atol=1e-12)


def test_qubit_hamiltonian_matrix():
    h = o.build_hamiltonian(o.SubstanceSpec.qubit(), 1.5)
    np.testing.assert_allclose(h.matrix, np.diag([1.5, -1.5]), atol=0)


def test_build_hamiltonian_rejects_nonpositive_field():
    for b in (0.0, -2.0):
        with pytest.raises(o.InvalidField):
            o.build_hamiltonian(o.SubstanceSpec.qubit(), b)


def test_spec_constructors_and_dim():
    assert o.SubstanceSpec.qubit().dim == 2
    assert o.SubstanceSpec.qutrit(1.0).dim == 3
    assert o.SubstanceSpec.xxz(1.0, 0.5).dim == 4
    with pytest.raises(o.InvalidField):
        o.SubstanceSpec(kind=o.SubstanceKind.QUTRIT, Jxy=1.0)
    with pytest.raises(o.InvalidField):
        o.SubstanceSpec(kind=o.SubstanceKind.QUBIT, J=2.0)


def test_qutrit_labelled_spectrum():
    spect = o.labelled_spectrum(o.SubstanceSpec.qutrit(1.0), 4.0)
    assert spect.labels == ("+B", "-B", "-J")
    np.testing.assert_allclose(spect.energies, [4.0, -4.0, -1.0], atol=0)
    assert spect.idle_labels == ("-J",)
    assert spect.field_value == 4.0


def test_xxz_labelled_spectrum():
    spect = o.labelled_spectrum(o.SubstanceSpec.xxz(1.0, 0.0), 3.0)
    assert spect.labels == ("2B", "2(Jxy-Jz)", "-2(Jxy+Jz)", "-2B")
    np.testing.assert_allclose(spect.energies, [6.0, 2.0, -2.0, -6.0], atol=0)
    assert spect.idle_labels == ("2(Jxy-Jz)", "-2(Jxy+Jz)")


def test_qubit_labelled_spectrum_has_no_idle_level():
    spect = o.labelled_spectrum(o.SubstanceSpec.qubit(), 2.5)
    assert spect.labels == ("+B", "-B")
    assert spect.idle_labels == ()


def test_idle_energies_do_not_move_with_field():
    for spec in (o.SubstanceSpec.qutrit(1.7), o.SubstanceSpec.xxz(0.8, 0.3)):
        lo = o.labelled_spectrum(spec, 1.0)
        hi = o.labelled_spectrum(spec, 5.0)
        for a, b in zip(lo.levels, hi.levels):
            if a.idle:
                assert a.energy == b.energy


def test_labelled_energies_match_eigenvalues():
    rng = np.random.default_rng(19)
    for _ in range(40):
        which = rng.integers(0, 3)
        if which == 0:
            spec = o.SubstanceSpec.qubit()
        elif which == 1:
            spec = o.SubstanceSpec.qutrit(float(rng.uniform(-2, 3)))
        else:
            spec = o.SubstanceSpec.xxz(float(rng.uniform(-2, 2)),
                                       float(rng.uniform(-2, 2)))
        B = float(rng.uniform(0.2, 5.0))
        spect = o.labelled_spectrum(spec, B)
        h = o.build_hamiltonian(spec, B)
        np.testing.assert_allclose(np.sort(spect.energies), h.eigenvalues,
                                   atol=1e-10)


def test_labelled_basis_vectors_are_eigenvectors():
    rng = np.random.default_rng(20)
    for spec in (o.SubstanceSpec.qubit(), o.SubstanceSpec.qutrit(1.3),
                 o.SubstanceSpec.xxz(0.9, 0.4)):
        basis = o.labelled_basis(spec)
        for B in rng.uniform(0.5, 4.0, size=3):
            h = o.build_hamiltonian(spec, float(B))
            spect = o.labelled_spectrum(spec, float(B))
            for level in spect.levels:
                v = basis[level.label]
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(h.matrix @ v, level.energy * v,
                                           atol=1e-10)


def test_xxz_pair_basis_vectors():
    basis = o.labelled_basis(o.SubstanceSpec.xxz(1.0, 0.5))
    np.testing.assert_allclose(basis["2(Jxy-Jz)"],
                               np.array([0, 1, 1, 0]) / np.sqrt(2), atol=0)
    np.testing.assert_allclose(basis["-2(Jxy+Jz)"],
                               np.array([0, 1, -1, 0]) / np.sqrt(2), atol=0)


def test_uniform_gap_ratio():
    assert o.check_uniform_gap_ratio(
        o.SubstanceSpec.qubit(), 3.0, 4.0) == pytest.approx(4 / 3, abs=1e-12)
    assert o.check_uniform_gap_ratio(
        o.SubstanceSpec.qutrit(0.0), 3.0, 4.0) == pytest.approx(4 / 3,
                                                                abs=1e-12)
    assert o.check_uniform_gap_ratio(o.SubstanceSpec.qutrit(1.0), 3.0,
                                     4.0) is None
    assert o.check_uniform_gap_ratio(
        o.SubstanceSpec.xxz(0.0, 0.0), 2.0, 5.0) == pytest.approx(2.5,
                                                                  abs=1e-12)
    assert o.check_uniform_gap_ratio(o.SubstanceSpec.xxz(1.0, 0.0), 2.0,
                                     5.0) is None


def test_level_crossing_detection():
    assert o.detect_level_crossing(o.SubstanceSpec.qutrit(2.0), 3.0, 4.0) == []
    hits = o.detect_level_crossing(o.SubstanceSpec.qutrit(3.5), 3.0, 4.0)
    assert len(hits) == 1
    (pair, where), = hits
    assert set(pair) == {"-B", "-J"}
    assert where == pytest.approx(3.5, abs=1e-12)


def test_level_crossing_xxz():
    assert o.detect_level_crossing(o.SubstanceSpec.xxz(1.0, 0.0), 3.0,
                                   4.0) == []
    # Jz=-2 puts both idle levels at +4, crossed by the 2B level at B=2
    hits = o.detect_level_crossing(o.SubstanceSpec.xxz(0.0, -2.0), 1.5, 3.0)
    assert len(hits) == 2
    for pair, where in hits:
        assert "2B" in pair
        assert where == pytest.approx(2.0, abs=1e-12)


def test_level_crossing_skips_permanent_degeneracy():
    # the two idle levels coincide for all B when Jxy = 0; that is not a
    # field-driven crossing
    hits = o.detect_level_crossing(o.SubstanceSpec.xxz(0.0, 1.0), 1.5, 5.0)
    assert hits == []


def test_crossing_pairs_are_derived_once_per_kind():
    from ottosim.substances import _KINDS, _couplings, _crossing_fields
    kind = _KINDS[o.SubstanceKind.XXZ]
    assert kind.pairs.tolist() == [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]
    for table in (kind.pairs, kind.slopes, kind.offsets, kind.idle):
        assert not table.flags.writeable  # shared by every caller
    specs = [o.SubstanceSpec.xxz(0.0, -2.0), o.SubstanceSpec.xxz(1.0, 0.5)]
    offsets = _couplings(kind, specs) @ kind.offsets
    fields = _crossing_fields(kind, offsets.T)
    for k, (n, m) in enumerate(kind.pairs.tolist()):
        want = ((offsets[:, m] - offsets[:, n])
                / (kind.slopes[n] - kind.slopes[m]))
        assert fields[k].tobytes() == want.tobytes()


def test_kind_table_basis_is_read_only_and_labelled_basis_copies_it():
    from ottosim.substances import _KINDS
    for spec in (o.SubstanceSpec.qubit(), o.SubstanceSpec.qutrit(1.3),
                 o.SubstanceSpec.xxz(0.9, 0.4)):
        kind = _KINDS[spec.kind]
        assert not kind.basis.flags.writeable
        assert kind.basis.shape == (spec.dim, spec.dim)
        basis = o.labelled_basis(spec)
        assert tuple(basis) == kind.labels
        assert tuple(basis) == o.labelled_spectrum(spec, 1.0).labels
        for k, vector in enumerate(basis.values()):
            assert vector.tolist() == kind.basis[:, k].tolist()
            vector[0] = 7.0  # a caller's copy, not the table
        assert 7.0 not in kind.basis


def test_built_in_kinds_put_no_offset_on_moving_levels():
    # the precondition of efficiency_ratio_identity
    from ottosim.substances import _KINDS
    for kind in _KINDS.values():
        assert kind.offsets.shape == (len(kind.couplings), len(kind.labels))
        assert kind.idle.dtype == bool
        assert kind.idle.tolist() == (kind.slopes == 0.0).tolist()
        assert not kind.offsets[:, ~kind.idle].any()


def test_kind_must_be_a_substance_kind():
    with pytest.raises(o.InvalidField):
        o.SubstanceSpec("qutrit", J=1.0)


def test_gap_ratio_is_the_worst_pair_residual():
    # offsets 2(Jxy-Jz) = 0 and -2(Jxy+Jz) = -4e-10 lie 4e-10 apart, so
    # the worst gap residual is 4e-10 * (r - 1) against TOL.gap_ratio
    spec = o.SubstanceSpec.xxz(1e-10, 1e-10)
    assert o.check_uniform_gap_ratio(spec, 2.0, 4.0) is None
    assert o.check_uniform_gap_ratio(spec, 2.0, 2.4) == 1.2


def test_overflowing_energies_raise():
    spec, free = o.SubstanceSpec.xxz(1e308, 0.0), o.SubstanceSpec.xxz(0, 0)
    for call in (lambda: o.labelled_spectrum(spec, 1.0),
                 lambda: o.labelled_spectrum(free, 1e308),
                 lambda: o.detect_level_crossing(spec, 1.0, 2.0),
                 lambda: o.check_uniform_gap_ratio(spec, 1.0, 2.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(o.InvalidField):
                call()


@pytest.mark.parametrize("value", ["quartet", "QUTRIT", None, 3, 2.5, [],
                                   b"xxz", o.SubstanceKind])
def test_unknown_kind_value_raises_ottosim_error(value):
    with pytest.raises(o.InvalidField, match=r"^unknown substance kind .*; "
                                             r"choose from qubit, qutrit, "
                                             r"xxz$"):
        o.SubstanceKind(value)
    assert o.SubstanceKind("qutrit") is o.SubstanceKind.QUTRIT
