import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ottosim as o
from helpers import measurement, random_direction, su3, two_bath
from ottosim.cycle import _run_cycles
from ottosim.substances import _KINDS

PI = np.pi

# Frozen stroke accounting at the default operating point (Bi=3, Bf=4,
# beta_c=1, beta_h=0.5).
J0_TWO_BATH = dict(Qh=0.3881499455828592, Qc=-0.2911124591871444,
                   W=-0.0970374863957148, eta=0.25)
J1_TWO_BATH = dict(Qh=0.2829722575855371, Qc=-0.19703147379177846,
                   W=-0.08594078379375866, eta=0.3037074536106438)


def test_two_bath_uncoupled_qutrit_baseline():
    rec = two_bath(o.SubstanceSpec.qutrit(0.0))
    assert rec.engine_mode
    for key, val in J0_TWO_BATH.items():
        assert getattr(rec, key) == pytest.approx(val, abs=1e-12)
    assert rec.eta0 == pytest.approx(0.25, abs=1e-15)


def test_two_bath_coupled_qutrit_reference_point():
    rec = two_bath(o.SubstanceSpec.qutrit(1.0))
    for key, val in J1_TWO_BATH.items():
        assert getattr(rec, key) == pytest.approx(val, abs=1e-12)
    assert rec.labels == ("+B", "-B", "-J")
    assert rec.idle_labels == ("-J",)
    assert not rec.crossing_warning


def test_record_bookkeeping_identities():
    rec = two_bath(o.SubstanceSpec.qutrit(1.0))
    assert rec.W == -(rec.Qh + rec.Qc)
    assert sum(rec.per_level_flux_hot.values()) == rec.Qh
    assert sum(rec.per_level_flux_cold.values()) == rec.Qc
    assert sum(rec.delta_p.values()) == pytest.approx(0.0, abs=1e-14)
    assert sum(rec.populations_cold.values()) == pytest.approx(1.0, abs=1e-12)
    assert sum(rec.populations_hot.values()) == pytest.approx(1.0, abs=1e-12)


def test_idle_level_flux_passthrough():
    rec = two_bath(o.SubstanceSpec.qutrit(1.3))
    assert rec.per_level_flux_cold["-J"] == -rec.per_level_flux_hot["-J"]
    rec = two_bath(o.SubstanceSpec.xxz(0.7, 0.2))
    for label in rec.idle_labels:
        assert rec.per_level_flux_cold[label] == -rec.per_level_flux_hot[label]


def test_identity_measurement_is_a_no_op():
    cfg = o.CycleConfig(spec=o.SubstanceSpec.qutrit(1.0), Bi=3.0, Bf=4.0,
                        cold=o.BathSpec(1.0),
                        protocol=o.Measurement(o.kraus_channel([np.eye(3)])))
    rec = o.run_cycle(cfg)
    assert rec.Qh == 0.0
    assert rec.W == 0.0
    assert not rec.engine_mode
    assert rec.eta is None
    assert rec.eta_raw is None
    for label in rec.labels:
        assert rec.delta_p[label] == 0.0


def test_qubit_x_measurement_reference_point():
    ch = o.kraus_channel(list(o.SpinDirection.x().projectors()))
    rec = measurement(o.SubstanceSpec.qubit(), ch)
    assert rec.eta == pytest.approx(0.25, abs=1e-12)
    assert rec.Qh == pytest.approx(3.9802190147469223, abs=1e-12)
    assert rec.W == pytest.approx(-0.9950547536867305, abs=1e-12)


def test_measurement_populations_match_density_matrix_route():
    # labelled bookkeeping must agree with full matrix evolution
    rng = np.random.default_rng(29)
    spec = o.SubstanceSpec.qutrit(1.3)
    for _ in range(10):
        ch = su3(*rng.uniform(0, PI, size=4))
        rec = measurement(spec, ch)
        h_hot = o.build_hamiltonian(spec, 4.0)
        rho_cold = o.gibbs_state(o.build_hamiltonian(spec, 3.0),
                                 o.BathSpec(1.0))
        pops = o.populations_in_basis(o.apply_channel(ch, rho_cold), h_hot)
        spect = o.labelled_spectrum(spec, 4.0)
        order = np.argsort(spect.energies)
        for k, idx in enumerate(order):
            label = spect.labels[idx]
            assert rec.populations_hot[label] == pytest.approx(pops[k],
                                                               abs=1e-10)


def test_measurement_cooling_warns():
    # pumping toward the qubit ground state (the second basis vector)
    # extracts energy instead of injecting it
    ch = o.damping_channel(2, 0.5, sink=1)
    cfg = o.CycleConfig(spec=o.SubstanceSpec.qubit(), Bi=3.0, Bf=4.0,
                        cold=o.BathSpec(1.0), protocol=o.Measurement(ch))
    with pytest.warns(o.MeasurementCoolsWarning):
        rec = o.run_cycle(cfg)
    assert rec.Qh < 0
    assert not rec.engine_mode


def test_two_bath_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        two_bath(o.SubstanceSpec.qutrit(2.0))


def test_crossing_warning_flag():
    assert not two_bath(o.SubstanceSpec.qutrit(2.0)).crossing_warning
    assert two_bath(o.SubstanceSpec.qutrit(3.5)).crossing_warning


def test_config_validation():
    with pytest.raises(o.InvalidField):
        o.CycleConfig(spec=o.SubstanceSpec.qubit(), Bi=4.0, Bf=3.0,
                      cold=o.BathSpec(1.0),
                      protocol=o.TwoBath(hot=o.BathSpec(0.5)))
    with pytest.raises(o.InvalidField):
        o.CycleConfig(spec=o.SubstanceSpec.qubit(), Bi=-1.0, Bf=3.0,
                      cold=o.BathSpec(1.0),
                      protocol=o.TwoBath(hot=o.BathSpec(0.5)))
    with pytest.raises(o.DimensionMismatch):
        o.CycleConfig(spec=o.SubstanceSpec.qubit(), Bi=3.0, Bf=4.0,
                      cold=o.BathSpec(1.0),
                      protocol=o.Measurement(su3(1.0, 1.0, 1.0, 1.0)))


def test_closed_form_matches_stroke_accounting():
    for j in (0.0, 0.5, 1.0, 1.7, 2.6):
        for beta_h in (0.3, 0.5, 1.0):
            rec = two_bath(o.SubstanceSpec.qutrit(j), beta_h=beta_h)
            cf = o.closed_form_two_bath_qutrit(j, 3.0, 4.0, 1.0, beta_h)
            assert cf.Qh == pytest.approx(rec.Qh, abs=1e-10)
            assert cf.Qc == pytest.approx(rec.Qc, abs=1e-10)
            assert cf.W == pytest.approx(rec.W, abs=1e-10)
            if cf.eta is not None and rec.eta_raw is not None:
                assert cf.eta == pytest.approx(rec.eta_raw, abs=1e-10)


def test_closed_form_reference_values():
    cf = o.closed_form_two_bath_qutrit(1.5, 3.0, 4.0, 1.0, 0.3)
    assert cf.Qh == pytest.approx(0.7484849325825584, abs=1e-12)
    assert cf.Qc == pytest.approx(-0.5163093354542118, abs=1e-12)
    assert cf.W == pytest.approx(-0.23217559712834668, abs=1e-12)
    assert cf.eta == pytest.approx(0.3101940827683098, abs=1e-12)


def test_closed_form_engine_shuts_down_at_large_coupling():
    cf = o.closed_form_two_bath_qutrit(2.5, 3.0, 4.0, 1.0, 0.5)
    assert cf.W > 0


def test_closed_form_validation():
    with pytest.raises(o.InvalidField):
        o.closed_form_two_bath_qutrit(1.0, 4.0, 3.0, 1.0, 0.5)
    with pytest.raises(o.InvalidField):
        o.closed_form_two_bath_qutrit(1.0, 3.0, 4.0, -1.0, 0.5)


def test_closed_form_large_beta_matches_stroke_accounting():
    # beta*J and beta*B far beyond exp()'s range: the closed form works on
    # shifted exponentials and must still agree with the label accounting
    cf = o.closed_form_two_bath_qutrit(800, 3, 4, 1, 1)
    assert all(np.isfinite([cf.Qh, cf.Qc, cf.W]))
    compared = 0
    for J in (-800.0, -50.0, -3.5, 0.0, 1.0, 3.5, 50.0, 800.0):
        for Bi, Bf in ((3.0, 4.0), (0.5, 700.0), (100.0, 400.0)):
            for beta_c in (0.5, 5.0, 60.0, 300.0):
                for beta_h in (0.1, 2.0, 40.0, 250.0):
                    cf = o.closed_form_two_bath_qutrit(J, Bi, Bf, beta_c,
                                                       beta_h)
                    rec = two_bath(o.SubstanceSpec.qutrit(J), Bi=Bi, Bf=Bf,
                                   beta_c=beta_c, beta_h=beta_h)
                    for key in ("Qh", "Qc", "W"):
                        want = getattr(rec, key)
                        assert abs(getattr(cf, key) - want) <= \
                            1e-12 * max(1.0, abs(want)), (J, Bi, Bf, key)
                    # -W/Qh carries rounding of order 1e-16 * scale / |Qh|
                    # and 1e-16 * scale / |W|; compare only where that is
                    # far below 1e-12
                    scale = max(Bf, abs(J))
                    if min(abs(rec.Qh), abs(rec.W)) > 1e-2 * scale:
                        compared += 1
                        assert cf.eta == pytest.approx(rec.eta_raw,
                                                       rel=1e-12, abs=1e-12)
    assert compared >= 50


def test_closed_form_rejects_unrepresentable_inputs():
    with pytest.raises(o.InvalidField):
        o.closed_form_two_bath_qutrit(float("inf"), 3.0, 4.0, 1.0, 0.5)
    with pytest.raises(o.InvalidField):
        o.closed_form_two_bath_qutrit(1.0, 3.0, float("nan"), 1.0, 0.5)
    with pytest.raises(o.InvalidField):
        o.closed_form_two_bath_qutrit(1e300, 3.0, 4.0, 1e10, 0.5)


def test_efficiency_ratio_identity_two_bath():
    rec = two_bath(o.SubstanceSpec.qutrit(1.0))
    ratio = o.efficiency_ratio_identity(rec)
    assert ratio == pytest.approx(rec.eta / rec.eta0, abs=1e-12)
    # the idle level absorbs heat on the hot side here, hence the boost
    assert rec.per_level_flux_hot["-J"] < 0
    assert ratio > 1


def test_efficiency_ratio_identity_uncoupled():
    rec = two_bath(o.SubstanceSpec.qutrit(0.0))
    assert o.efficiency_ratio_identity(rec) == pytest.approx(1.0, abs=1e-12)


def test_efficiency_ratio_requires_engine_mode():
    cfg = o.CycleConfig(spec=o.SubstanceSpec.qutrit(1.0), Bi=3.0, Bf=4.0,
                        cold=o.BathSpec(1.0),
                        protocol=o.Measurement(o.kraus_channel([np.eye(3)])))
    rec = o.run_cycle(cfg)
    with pytest.raises(o.NotAnEngine):
        o.efficiency_ratio_identity(rec)


def test_uniform_ratio_shortcut():
    mk = lambda spec, Bi, Bf: o.CycleConfig(
        spec=spec, Bi=Bi, Bf=Bf, cold=o.BathSpec(1.0),
        protocol=o.TwoBath(hot=o.BathSpec(0.5)))
    assert o.uniform_ratio_efficiency_check(
        mk(o.SubstanceSpec.qubit(), 3.0, 4.0)) == pytest.approx(0.25,
                                                                abs=1e-12)
    assert o.uniform_ratio_efficiency_check(
        mk(o.SubstanceSpec.qubit(), 2.0, 8.0)) == pytest.approx(0.75,
                                                                abs=1e-12)
    assert o.uniform_ratio_efficiency_check(
        mk(o.SubstanceSpec.qutrit(1.0), 3.0, 4.0)) is None


def test_uniform_gaps_pin_efficiency_for_any_unital_channel():
    rng = np.random.default_rng(30)
    spec = o.SubstanceSpec.qutrit(0.0)
    for _ in range(25):
        ch = su3(*rng.uniform(0, 2 * PI, size=4))
        rec = measurement(spec, ch)
        if rec.Qh > 1e-12:
            assert rec.eta == pytest.approx(0.25, abs=1e-10)
    for seed in (1, 2, 3):
        ch = o.random_unital_channel(2, seed=seed, mix_count=3)
        rec = measurement(o.SubstanceSpec.qubit(), ch)
        if rec.Qh > 1e-12:
            assert rec.eta == pytest.approx(0.25, abs=1e-10)


def test_random_cycle_record_invariants():
    rng = np.random.default_rng(2025)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", o.MeasurementCoolsWarning)
        for _ in range(300):
            kind = rng.integers(0, 3)
            if kind == 0:
                spec = o.SubstanceSpec.qubit()
            elif kind == 1:
                spec = o.SubstanceSpec.qutrit(float(rng.uniform(-1, 3)))
            else:
                spec = o.SubstanceSpec.xxz(float(rng.uniform(-1.5, 2)),
                                           float(rng.uniform(-1.5, 2)))
            Bi = float(rng.uniform(0.5, 4.0))
            Bf = Bi * float(rng.uniform(1.05, 2.5))
            if rng.random() < 0.5:
                protocol = o.TwoBath(hot=o.BathSpec(float(rng.uniform(0.1, 4))))
            elif spec.dim == 2:
                protocol = o.Measurement(o.kraus_channel(
                    list(random_direction(rng).projectors())))
            elif spec.dim == 3:
                protocol = o.Measurement(su3(*rng.uniform(0, 2 * PI, size=4)))
            else:
                protocol = o.Measurement(o.local_spin_channel(
                    random_direction(rng), random_direction(rng)))
            cfg = o.CycleConfig(spec=spec, Bi=Bi, Bf=Bf,
                                cold=o.BathSpec(float(rng.uniform(0.1, 4))),
                                protocol=protocol)
            rec = o.run_cycle(cfg)
            assert abs(rec.W + rec.Qh + rec.Qc) <= 1e-12
            assert sum(rec.per_level_flux_hot.values()) == rec.Qh
            assert sum(rec.per_level_flux_cold.values()) == rec.Qc
            for label in rec.idle_labels:
                assert rec.per_level_flux_cold[label] == \
                    -rec.per_level_flux_hot[label]
            assert sum(rec.populations_hot.values()) == pytest.approx(
                1.0, abs=1e-10)
            if rec.engine_mode:
                assert rec.eta == rec.eta_raw
                assert 0 < rec.eta


def test_closed_form_has_no_efficiency_without_heat():
    # beta*J = 800 empties both field levels: no heat moves, as run_cycle
    # sees it, so there is no efficiency either
    cf = o.closed_form_two_bath_qutrit(800, 3, 4, 1, 1)
    assert cf.Qh == 0.0 and cf.eta is None
    rec = two_bath(o.SubstanceSpec.qutrit(800), beta_h=1.0)
    assert rec.Qh == 0.0 and rec.eta_raw is None


def test_unrepresentable_energies_or_heats_raise_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 2Jxy and 2Jz overflow: the offsets are not finite
        with pytest.raises(o.InvalidField, match="level energy"):
            two_bath(o.SubstanceSpec.xxz(1e308, 1e308))
        # every energy is finite (+-1.7e308), but pumping the ground
        # population up moves more heat than a float holds
        with pytest.raises(o.InvalidField, match="heat or work"):
            measurement(o.SubstanceSpec.qubit(),
                        o.damping_channel(2, 1.0, sink=0), Bi=1.0, Bf=1.7e308)


# A cooling measurement on the two-qubit substance, and the calls that run
# it; each lambda is the code that calls the library.
COOLING = o.Measurement(o.damping_channel(4, 0.9, 3))
XXZ = o.SubstanceSpec.xxz(0.5, 0.0)


@pytest.mark.parametrize("call", [
    lambda: o.run_cycle(o.CycleConfig(XXZ, 3, 4, o.BathSpec(0.1), COOLING)),
    lambda: o.run_cycle_batch([XXZ], 3, 4, o.BathSpec(0.1), COOLING),
    lambda: o.sweep_qutrit_extreme(3, 4, 1, o.SweepRange(3.5, 3.5, 1)),
], ids=["run_cycle", "run_cycle_batch", "sweep_qutrit_extreme"])
def test_cooling_warning_points_at_the_calling_line(call):
    with pytest.warns(o.MeasurementCoolsWarning) as caught:
        call()
    assert [(w.filename, w.lineno) for w in caught] == [
        (call.__code__.co_filename, call.__code__.co_firstlineno)]


# Each call takes the numbers 1/2 and 3, as Fractions or as floats.
@pytest.mark.parametrize("call", [
    lambda half, three: o.run_cycle(o.CycleConfig(
        o.SubstanceSpec.qutrit(1.0), 3.0, 4.0, o.BathSpec(half),
        o.TwoBath(o.BathSpec(0.5)))),
    lambda half, three: o.sweep_qutrit_two_bath(
        3.0, 4.0, half, half, o.SweepRange(0.0, 2.0, 5)),
    lambda half, three: o.su3_projective_channel(o.Su3Angles(half, 1, 1, 1)),
    lambda half, three: o.run_cycle(o.CycleConfig(
        o.SubstanceSpec.qutrit(half), three, 4.0, o.BathSpec(1.0),
        o.TwoBath(o.BathSpec(0.5)))),
    lambda half, three: o.labelled_spectrum(o.SubstanceSpec.qutrit(1.0),
                                            three),
    lambda half, three: o.sweep_qutrit_contour(
        three, 4.0, 1.0, "theta-phi", o.SweepRange(0.0, PI, 3),
        o.SweepRange(half, 2.0, 4)),
    lambda half, three: o.closed_form_two_bath_qutrit(half, three, 4, 1,
                                                      half),
    lambda half, three: o.detect_level_crossing(o.SubstanceSpec.qutrit(three),
                                                three, 4),
], ids=["run_cycle-beta", "sweep_qutrit_two_bath", "su3_projective_channel",
        "run_cycle-Bi-J", "labelled_spectrum", "sweep_qutrit_contour",
        "closed_form_two_bath_qutrit", "detect_level_crossing"])
def test_exact_numbers_give_the_bits_of_their_float_twins(call):
    # the checked float is the number used, fields and .meta included
    assert pickle.dumps(call(Fraction(1, 2), Fraction(3))) == \
        pickle.dumps(call(0.5, 3.0))


def _qutrit_blocks(rows):
    """The qutrit kind and the couplings of len(rows) blocks, J per row."""
    return (_KINDS[o.SubstanceKind.QUTRIT],
            np.array([[J] for block in rows for J in block]))


@pytest.mark.parametrize("protocols", [
    [o.Measurement(su3(0.3 * k, 0.7, 1.1 * k, 0.2)) for k in range(3)],
    [o.TwoBath(o.BathSpec(beta)) for beta in (0.2, 0.5, 3.0)],
], ids=["measurement", "two-bath"])
def test_kernel_blocks_hold_the_bits_of_their_own_calls(protocols):
    js = [[-0.5, 0.4, 1.7, 3.5], [0.0, 1.0, 2.0, 3.0], [2.9, 0.1, 1.3, 2.2]]
    kind, couplings = _qutrit_blocks(js)
    cold = o.BathSpec(0.8)
    # the kernel leaves warnings to its callers
    whole = _run_cycles(kind, couplings, 3.0, 4.0, cold, protocols)
    parts = [_run_cycles(kind, couplings[4 * b:4 * b + 4], 3.0, 4.0, cold,
                         protocol)
             for b, protocol in enumerate(protocols)]
    for k in range(12):
        assert pickle.dumps(whole.record(k)) == \
            pickle.dumps(parts[k // 4].record(k % 4))


def test_kernel_checks_every_block():
    kind, couplings = _qutrit_blocks([[0.5, 1.0]] * 3)
    good = o.Measurement(su3(0.7 * PI, 0.7 * PI, 0.5 * PI, 0.5 * PI))
    args = (kind, couplings, 3.0, 4.0, o.BathSpec(1.0))
    with pytest.raises(o.DimensionMismatch):
        _run_cycles(*args, [good, good,
                            o.Measurement(o.damping_channel(2, 0.5, 0))])
    with pytest.raises(o.InvalidField, match="unknown protocol"):
        _run_cycles(*args, [good, good, "two-bath"])
    with pytest.raises(o.InvalidField, match="one type"):
        _run_cycles(*args, [good, good, o.TwoBath(o.BathSpec(0.5))])
    # 6 rows split into 1, 2, 3 or 6 blocks, not into 4 or 0
    with pytest.raises(o.OttoSimError, match="6 rows"):
        _run_cycles(*args, [good] * 4)
    with pytest.raises(o.OttoSimError, match="6 rows"):
        _run_cycles(*args, [])
    # the public entries take one protocol, not blocks of them
    with pytest.raises(o.InvalidField, match="unknown protocol"):
        o.run_cycle_batch([o.SubstanceSpec.qutrit(0.5)] * 2, 3.0, 4.0,
                          o.BathSpec(1.0), [good, good])
