"""Checks that valid input never trips but a caller can still reach:
hand-built channels and operators that skip their constructors' checks,
bad shapes, non-finite couplings, and the CLI's module entry points."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the property test below skips itself without it
    hypothesis = None

import ottosim as o
from ottosim.cycle import _run_cycles
from ottosim.substances import _KINDS

SRC = str(Path(o.__file__).resolve().parents[1])


def _operator(eigenvectors):
    """A HermitianOperator whose eigenvectors skip every check."""
    d = len(eigenvectors)
    return o.HermitianOperator(matrix=np.eye(d, dtype=complex),
                               eigenvalues=np.zeros(d),
                               eigenvectors=np.asarray(eigenvectors,
                                                       dtype=complex))


@pytest.mark.parametrize("kind,row", [
    (o.SubstanceKind.QUTRIT, [1.0]),
    (o.SubstanceKind.XXZ, [0.5, 1.0]),
])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("stroke", [
    lambda d: o.BathSpec(0.5),
    lambda d: np.eye(d, dtype=complex)[None, None],
], ids=["hot-bath", "kraus-stack"])
def test_kernel_rejects_non_finite_couplings(kind, row, bad, stroke):
    couplings = np.array([row, row])
    couplings[1, -1] = bad
    table = _KINDS[kind]
    with pytest.raises(o.InvalidField, match="level energy is too large"):
        _run_cycles(table, couplings, 3.0, 4.0, o.BathSpec(1.0),
                    stroke(len(table.labels)))


@pytest.mark.parametrize("operators,error", [
    ((np.eye(2),), o.DimensionMismatch),
    ((np.eye(3), np.eye(2)), o.OttoSimError),
    (("abc",), o.OttoSimError),
], ids=["shape", "ragged", "text"])
def test_a_hand_built_channel_with_bad_operators_ends_in_our_error(
        operators, error):
    # KrausChannel records skip kraus_channel's checks; run_cycle_batch
    # checks the operators it hands the kernel
    ch = o.KrausChannel(operators=operators, dim=3, unital=True)
    spec, cold = o.SubstanceSpec.qutrit(1.0), o.BathSpec(1.0)
    with pytest.raises(error):
        o.run_cycle_batch([spec], 3.0, 4.0, cold, o.Measurement(ch))
    with pytest.raises(error):
        o.run_cycle(o.CycleConfig(spec, 3.0, 4.0, cold, o.Measurement(ch)))


def test_transfer_matrix_dimension_mismatch():
    with pytest.raises(o.DimensionMismatch):
        o.transfer_matrix(o.damping_channel(2, 0.5),
                          o.hermitian_eigensystem(np.eye(3)))


def test_transfer_matrix_of_a_non_trace_preserving_channel():
    ch = o.KrausChannel(operators=(np.eye(2) / 2,), dim=2, unital=False)
    with pytest.raises(o.OttoSimError, match="column-stochastic"):
        o.transfer_matrix(ch, o.hermitian_eigensystem(np.diag([0.0, 1.0])))


def test_transfer_matrix_of_a_channel_wrongly_flagged_unital():
    damping = o.damping_channel(2, 0.5)
    ch = o.KrausChannel(operators=damping.operators, dim=2, unital=True)
    with pytest.raises(o.OttoSimError, match="non-bistochastic"):
        o.transfer_matrix(ch, o.hermitian_eigensystem(np.diag([0.0, 1.0])))


def test_rearrangement_oracle_length_mismatch():
    with pytest.raises(o.LengthMismatch):
        o.rearrangement_oracle([0.5, 0.5], [0.0, 1.0, 2.0])


@pytest.mark.parametrize("entries", [np.ones((2, 3)), np.ones(3),
                                     np.ones((0, 0))])
def test_matrices_must_be_square(entries):
    with pytest.raises(o.DimensionMismatch, match="square"):
        o.hermitian_eigensystem(entries)


@pytest.mark.parametrize("states, error, text", [
    ([], o.OttoSimError, "a channel needs at least one Kraus operator"),
    ([[], []], o.DimensionMismatch,
     "expected a square matrix, got shape (0, 0)"),
    ([[1, 0], [0, 1, 0]], o.DimensionMismatch,
     "Kraus operators must share one square shape"),
    ([[1e200, 0], [0, 1]], o.OttoSimError, "matrix entries must be finite"),
], ids=["empty", "zero-length", "two-lengths", "overflow"])
def test_projective_channel_bad_states(states, error, text):
    with pytest.raises(o.OttoSimError) as caught:
        o.projective_channel(states)
    assert caught.type is error
    assert str(caught.value) == text


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_matrix_entries_must_be_finite(bad):
    with pytest.raises(o.OttoSimError, match="finite"):
        o.hermitian_eigensystem([[bad, 0.0], [0.0, 1.0]])


def test_energy_expectation_imaginary_residue():
    h = o.HermitianOperator(matrix=np.diag([1j, 0.0]),
                            eigenvalues=np.zeros(2),
                            eigenvectors=np.eye(2, dtype=complex))
    rho = o.DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(o.OttoSimError, match="imaginary residue"):
        o.energy_expectation(rho, h)


def test_populations_in_basis_dimension_mismatch():
    with pytest.raises(o.DimensionMismatch):
        o.populations_in_basis(o.DensityMatrix(np.eye(2) / 2),
                               o.hermitian_eigensystem(np.eye(3)))


def test_populations_in_basis_out_of_range():
    rho = o.DensityMatrix(np.diag([1.0, 0.0]))
    with pytest.raises(o.OttoSimError, match="out of range"):
        o.populations_in_basis(rho, _operator(2.0 * np.eye(2)))


def test_populations_in_basis_sum():
    rho = o.DensityMatrix(np.eye(2) / 2)
    # each population 0.72 lies in [0, 1]; together they sum to 1.44
    with pytest.raises(o.OttoSimError, match="sum to"):
        o.populations_in_basis(rho, _operator(1.2 * np.eye(2)))


# Every record argument of the operator-layer functions, in order.
RECORD_ARGS = [
    (o.gibbs_state, ("h", "bath")),
    (o.energy_expectation, ("rho", "h")),
    (o.populations_in_basis, ("rho", "h")),
    (o.apply_channel, ("ch", "rho")),
    (o.transfer_matrix, ("ch", "h")),
    (o.energy_change, ("ch", "rho", "h")),
    (o.channel_populations, ("ch", "rho", "h")),
    (o.is_unital, ("ch",)),
    (o.is_minimally_disturbing, ("ch",)),
]
RECORDS = {"h": o.hermitian_eigensystem(np.diag([0.0, 1.0])),
           "bath": o.BathSpec(1.0),
           "rho": o.DensityMatrix(np.eye(2) / 2),
           "ch": o.kraus_channel([np.eye(2)])}
# a record of another kind for each slot, with a dim where the slot's has one
OTHER = {"h": "rho", "bath": "h", "rho": "h", "ch": "rho"}


@pytest.mark.parametrize("func, names, slot", [
    (func, names, slot) for func, names in RECORD_ARGS for slot in names])
@pytest.mark.parametrize("bad", [5, "x", None, "another record"])
def test_an_argument_that_is_not_its_record_is_named(func, names, slot, bad):
    if bad == "another record":
        bad = RECORDS[OTHER[slot]]
    args = [bad if name == slot else RECORDS[name] for name in names]
    with pytest.raises(o.InvalidField, match=f"^{slot} must be a "):
        func(*args)


def _python(args, cwd):
    return subprocess.run([sys.executable, "-W", "default", *args],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)


NOISY_SWEEP = """
import sys, warnings
from ottosim import cli, sweeps
real = sweeps.sweep_qutrit_two_bath
def noisy(*args):
    warnings.warn("stray sweep warning", RuntimeWarning)
    return real(*args)
sweeps.sweep_qutrit_two_bath = noisy
sys.exit(cli.main(sys.argv[1:]))
"""


def test_cli_shows_a_non_cooling_warning_as_a_warning(tmp_path):
    proc = _python(["-c", NOISY_SWEEP, "qutrit-two-bath", "--j-steps", "2",
                    "--out", "x.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning: stray sweep warning" in proc.stderr
    assert "warning: stray" not in proc.stderr
    assert (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("module", ["ottosim", "ottosim.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    proc = _python(["-m", module], tmp_path)
    assert proc.returncode == 1
    assert proc.stdout.startswith("usage: ottosim")


# Every record argument of the substance, measurement, cycle and sweep
# functions, with good values for every other argument.
SPEC = o.SubstanceSpec.qutrit(1.0)
ANGLES = o.Su3Angles(0.1, 0.2, 0.3, 0.4)
GRID = o.SweepRange(0.1, 1.0, 3)
CFG = o.CycleConfig(SPEC, 3.0, 4.0, o.BathSpec(1.0),
                    o.TwoBath(o.BathSpec(0.1)))
FIELDS = {"Bi": 3.0, "Bf": 4.0, "beta_c": 1.0}
CALLS = [
    (o.build_hamiltonian, {"spec": SPEC, "B": 1.0}),
    (o.labelled_basis, {"spec": SPEC}),
    (o.labelled_spectrum, {"spec": SPEC, "B": 1.0}),
    (o.check_uniform_gap_ratio, {"spec": SPEC, "Bi": 3.0, "Bf": 4.0}),
    (o.detect_level_crossing, {"spec": SPEC, "Bi": 3.0, "Bf": 4.0}),
    (o.local_spin_channel, {"n": o.SpinDirection.x(),
                            "m": o.SpinDirection.z()}),
    (o.su3_projective_channel, {"a": ANGLES}),
    (o.su3_states, {"a": ANGLES}),
    (o.run_cycle, {"cfg": CFG}),
    (o.uniform_ratio_efficiency_check, {"cfg": CFG}),
    (o.efficiency_ratio_identity, {"rec": o.run_cycle(CFG)}),
    (o.sweep_qutrit_two_bath, {**FIELDS, "beta_h": 0.5, "j_range": GRID}),
    (o.sweep_qutrit_measurement, {**FIELDS, "angles": ANGLES,
                                  "j_range": GRID}),
    (o.sweep_qutrit_contour, {**FIELDS, "mode": "theta-phi",
                              "theta_range": GRID, "j_range": GRID}),
    (o.sweep_qutrit_extreme, {**FIELDS, "j_range": GRID}),
    (o.sweep_xxz, {**FIELDS, "model": "xx", "protocol": "meas",
                   "coupling_range": GRID, "n": o.SpinDirection.x(),
                   "m": o.SpinDirection.z()}),
]
# a record of another kind for each record class
ANOTHER = {o.SubstanceSpec: o.BathSpec(1.0), o.Su3Angles: GRID,
           o.SpinDirection: ANGLES, o.CycleConfig: o.run_cycle(CFG),
           o.CycleRecord: CFG, o.SweepRange: ANGLES}


@pytest.mark.parametrize("func, args, slot", [
    pytest.param(func, args, slot, id=f"{func.__name__}-{slot}")
    for func, args in CALLS
    for slot, value in args.items() if type(value) in ANOTHER])
@pytest.mark.parametrize("bad", [5, "x", None, "another record"])
def test_a_record_argument_of_another_kind_is_named(func, args, slot, bad):
    if bad == "another record":
        bad = ANOTHER[type(args[slot])]
    error, match = o.InvalidField, f"^{slot} must be a "
    if func is o.sweep_xxz and slot in "nm" and bad is None:
        # None stands for a direction not given
        error, match = o.OttoSimError, "needs directions n and m"
    with pytest.raises(error, match=match):
        func(**{**args, slot: bad})


def _generator_checks(header, meta):
    """The message of write_csv's header and .meta checks, or None, as
    predicates over each name, key and value: the oracle of the checks
    that search the joined names and test each key and value in turn."""
    if not (isinstance(header, (tuple, list)) and all(
            isinstance(name, str) and not any(c in name for c in ",\r\n")
            for name in header)):
        return ("table.header must be text names without ',' or line "
                f"breaks, got {header!r}")
    for key in meta:
        if not isinstance(key, str):
            return f"meta key {key!r} is not text"
    for key, value in sorted(meta.items()):
        if any(c in key for c in "=\r\n"):
            return f"meta key {key!r} holds '=' or a line break"
        if isinstance(value, str) and any(c in value for c in "\r\n"):
            return f"meta {key!r}: {value!r} holds a line break"
    return None


class _Text(str):
    """Text that is not a plain str."""


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_write_csv_checks_names_keys_and_values_as_its_predicates(tmp_path):
    texts = st.text(st.sampled_from("ab,=\r\n é"), max_size=4)
    names = texts | texts.map(_Text) | st.integers() | st.none() \
        | st.binary(max_size=2)
    headers = st.lists(names, max_size=5).flatmap(
        lambda h: st.sampled_from([h, tuple(h)])) | texts | st.none()
    metas = st.dictionaries(texts | st.integers(),
                            texts | st.floats() | st.integers() | st.none(),
                            max_size=4)
    path = str(tmp_path / "t.csv")

    @hypothesis.settings(max_examples=300)
    @hypothesis.given(headers, metas)
    def check(header, meta):
        table = o.SweepTable(header, [], meta)
        want = _generator_checks(header, meta)
        if want is None:
            o.write_csv(path, table)
        else:
            with pytest.raises(o.OttoSimError) as caught:
                o.write_csv(path, table)
            assert str(caught.value) == want

    check()
