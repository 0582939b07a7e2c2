"""Checks that valid input never trips but a caller can still reach:
hand-built channels and operators that skip their constructors' checks,
bad shapes, non-finite couplings, and the CLI's module entry points."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
def test_kernel_rejects_non_finite_couplings(kind, row, bad):
    couplings = np.array([row, row])
    couplings[1, -1] = bad
    with pytest.raises(o.InvalidField):
        _run_cycles(_KINDS[kind], couplings, 3.0, 4.0, o.BathSpec(1.0),
                    [o.TwoBath(o.BathSpec(0.5))])


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
