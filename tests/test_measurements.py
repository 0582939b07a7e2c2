import numpy as np
import pytest

import ottosim as o
from helpers import random_density

HALF_PI = np.pi / 2


def test_su3_states_orthonormal_everywhere():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = o.Su3Angles(*(rng.uniform(-2 * np.pi, 2 * np.pi, size=4)))
        v = np.column_stack(o.su3_states(a))
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-10)


def test_su3_zero_angles_pick_out_basis_states():
    states = o.su3_states(o.Su3Angles(0.0, 0.0, 0.0, 0.0))
    # (|2>, |0>, |1>) up to phase at the origin of angle space
    for state, k in zip(states, (2, 0, 1)):
        assert abs(state[k]) == pytest.approx(1.0, abs=1e-12)


def test_su3_channel_is_projective_measurement():
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = o.Su3Angles(*(rng.uniform(0, np.pi, size=4)))
        ch = o.su3_projective_channel(a)
        assert ch.dim == 3
        assert o.is_minimally_disturbing(ch)
        assert o.is_unital(ch)
        total = sum(ch.operators)
        np.testing.assert_allclose(total, np.eye(3), atol=1e-10)
        for m in ch.operators:
            np.testing.assert_allclose(m @ m, m, atol=1e-10)


def test_su3_angles_must_be_finite():
    with pytest.raises(o.InvalidField):
        o.Su3Angles(float("nan"), 0.0, 0.0, 0.0)


def test_su3_reference_populations_after_measurement():
    # symmetric angle set on a thermal qutrit: frozen post-measurement
    # populations in ascending energy order
    spec = o.SubstanceSpec.qutrit(1.0)
    h = o.build_hamiltonian(spec, 4.0)
    rho = o.gibbs_state(h, o.BathSpec(1.0))
    ch = o.su3_projective_channel(
        o.Su3Angles(0.7 * np.pi, 0.7 * np.pi, HALF_PI, HALF_PI))
    pops = o.populations_in_basis(o.apply_channel(ch, rho), h)
    np.testing.assert_allclose(
        pops,
        (0.5178841849721667, 0.44610143429200355, 0.036014380735829306),
        atol=1e-12)


def test_su3_three_quarter_pi_mixes_lower_pair_evenly():
    # at theta = phi = 3pi/4 the channel leaves the top level alone and
    # averages the other two
    spec = o.SubstanceSpec.qutrit(1.0)
    h = o.build_hamiltonian(spec, 4.0)
    ch = o.su3_projective_channel(
        o.Su3Angles(0.75 * np.pi, 0.75 * np.pi, HALF_PI, HALF_PI))
    t = o.transfer_matrix(ch, h).entries
    np.testing.assert_allclose(
        t, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]], atol=1e-10)


def test_spin_direction_validation():
    with pytest.raises(o.NonUnitVector):
        o.SpinDirection(1.0, 1.0, 0.0)
    d = o.SpinDirection(0.6, 0.0, 0.8)
    assert d.nx == 0.6 and d.nz == 0.8


def test_spin_direction_projectors():
    for d in (o.SpinDirection.x(), o.SpinDirection.y(), o.SpinDirection.z(),
              o.SpinDirection(0.6, 0.0, 0.8)):
        up, down = d.projectors()
        np.testing.assert_allclose(up + down, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(up @ up, up, atol=1e-12)
        np.testing.assert_allclose(up @ down, np.zeros((2, 2)), atol=1e-12)


def test_local_spin_channel_structure():
    ch = o.local_spin_channel(o.SpinDirection.x(), o.SpinDirection.z())
    assert ch.dim == 4
    assert len(ch.operators) == 4
    assert o.is_minimally_disturbing(ch)
    assert o.is_unital(ch)


def test_local_zz_channel_is_computational_dephasing():
    rng = np.random.default_rng(26)
    ch = o.local_spin_channel(o.SpinDirection.z(), o.SpinDirection.z())
    rho = o.DensityMatrix(random_density(rng, 4))
    out = o.apply_channel(ch, rho)
    np.testing.assert_allclose(out.matrix, np.diag(np.diag(rho.matrix)),
                               atol=1e-12)


def test_local_channel_agrees_with_kron_of_projectors():
    rng = np.random.default_rng(27)
    n = o.SpinDirection(0.6, 0.0, 0.8)
    m = o.SpinDirection.y()
    ch = o.local_spin_channel(n, m)
    mats = [np.kron(a, b) for a in n.projectors() for b in m.projectors()]
    for _ in range(5):
        rho = random_density(rng, 4)
        direct = sum(k @ rho @ k.conj().T for k in mats)
        out = o.apply_channel(ch, o.DensityMatrix(rho))
        np.testing.assert_allclose(out.matrix, direct, atol=1e-12)


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _directions(draw):
    """Unit directions: random ones, the axes and their negatives."""
    axes = [v for k in range(3) for v in (np.eye(3)[k], -np.eye(3)[k])]
    v = draw(st.one_of(
        st.sampled_from(axes),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)))
    hypothesis.assume(np.linalg.norm(v) > 0.1)
    return o.SpinDirection(*(v / np.linalg.norm(v)))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_directions(), _directions())
def test_local_channel_operators_are_the_kron_products_bit_for_bit(n, m):
    ch = o.local_spin_channel(n, m)
    kron = np.array([np.kron(a, b)
                     for a in n.projectors() for b in m.projectors()])
    assert np.array(ch.operators).view(np.uint64).tolist() == \
        kron.view(np.uint64).tolist()
    assert ch.unital is True
