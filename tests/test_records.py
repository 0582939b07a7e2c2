"""The package's immutable records behave as value objects.

Every record class is built, compared, hashed, printed, changed and
checked the same way here, and each class that validates its fields
still rejects a bad value. The last test checks that importing the CLI
and building its parser pulls in no dataclass machinery.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ottosim as o
from ottosim.cli import Opt

SRC = str(Path(o.__file__).resolve().parents[1])

_SPEC = o.SubstanceSpec.qutrit(1.0)
_CHANNEL = o.kraus_channel([np.eye(2)])
_CONFIG = o.CycleConfig(_SPEC, 3.0, 4.0, o.BathSpec(1.0),
                        o.TwoBath(o.BathSpec(0.5)))
_TOLERANCE_FIELDS = (
    "hermitian", "trace", "positivity", "orthonormal", "reconstruction",
    "imag_residue", "population", "population_snap", "passivity", "channel",
    "unit_vector", "gap_ratio", "conservation", "identity_check",
    "theorem_slack")

# (build an instance, its field names, a field to change and a new value).
# A record compares its fields as a tuple, so fields holding arrays of
# more than one entry compare only when they are the same objects: the
# change is made where the tuple comparison stays defined. DensityMatrix
# has no such field, so it has no change.
CASES = {
    "Tolerances": (o.Tolerances, _TOLERANCE_FIELDS, "hermitian", 1e-11),
    "HermitianOperator": (lambda: o.hermitian_eigensystem([[2.0]]),
                          ("matrix", "eigenvalues", "eigenvectors"),
                          "matrix", np.array([[3.0]])),
    "DensityMatrix": (lambda: o.DensityMatrix([[1.0]]), ("matrix",),
                      None, None),
    "BathSpec": (lambda: o.BathSpec(0.5), ("beta",), "beta", 1.0),
    "KrausChannel": (lambda: _CHANNEL, ("operators", "dim", "unital"),
                     "unital", False),
    "TransferMatrix": (lambda: o.transfer_matrix(
        _CHANNEL, o.hermitian_eigensystem(np.diag([1.0, 2.0]))),
        ("entries", "dim"), "dim", 3),
    "Theorem1Report": (lambda: o.Theorem1Report(
        samples=1, dims=(2,), seed=0, min_unital=0.0, control_samples=1,
        min_control=-1.0, control_negative_found=True, passed=True),
        ("samples", "dims", "seed", "min_unital", "control_samples",
         "min_control", "control_negative_found", "passed", "max_identity"),
        "seed", 1),
    "TwoBath": (lambda: o.TwoBath(o.BathSpec(0.5)), ("hot",),
                "hot", o.BathSpec(0.25)),
    "Measurement": (lambda: o.Measurement(_CHANNEL), ("channel",),
                    "channel", o.KrausChannel(_CHANNEL.operators, 2, False)),
    "CycleConfig": (lambda: _CONFIG,
                    ("spec", "Bi", "Bf", "cold", "protocol"), "Bi", 2.0),
    "CycleRecord": (lambda: o.run_cycle(_CONFIG),
                    ("labels", "idle_labels", "Qh", "Qc", "W", "eta",
                     "eta_raw", "eta0", "per_level_flux_hot",
                     "per_level_flux_cold", "delta_p", "populations_cold",
                     "populations_hot", "engine_mode", "crossing_warning"),
                    "Qh", 1.0),
    "CycleBatch": (lambda: o.run_cycle_batch(
        [_SPEC], 3.0, 4.0, o.BathSpec(1.0), o.TwoBath(o.BathSpec(0.5))),
                   ("labels", "idle_labels", "eta0", "Qh", "Qc", "W",
                    "eta_raw", "engine_mode", "crossing", "flux_hot",
                    "flux_cold", "delta_p", "p_cold", "p_hot"),
                   "labels", ("a", "b", "c")),
    "Su3Angles": (lambda: o.Su3Angles(1.0, 2.0, 3.0, 4.0),
                  ("theta", "phi", "chi", "psi"), "psi", 5.0),
    "SpinDirection": (lambda: o.SpinDirection(0.6, 0.8, 0.0),
                      ("nx", "ny", "nz"), "nx", -0.6),
    "SubstanceSpec": (lambda: _SPEC, ("kind", "J", "Jxy", "Jz"), "J", 2.0),
    "Level": (lambda: o.Level("+B", 1.0, False), ("label", "energy", "idle"),
              "energy", 2.0),
    "LabelledSpectrum": (lambda: o.labelled_spectrum(_SPEC, 3.0),
                         ("levels", "field_value"), "field_value", 4.0),
    "SweepRange": (lambda: o.SweepRange(0, 1, 3), ("start", "stop", "steps"),
                   "steps", 5),
    "Opt": (lambda: Opt("bi", float, "3", "field"),
            ("dest", "conv", "default", "help"), "default", "4"),
}


def _fields(record, names):
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("name", CASES)
def test_record_is_an_immutable_value(name):
    make, names, field, value = CASES[name]
    record = make()
    cls = type(record)
    assert cls.__name__ == name
    assert tuple(inspect.signature(cls).parameters) == names
    assert cls.__match_args__ == names
    fields = _fields(record, names)

    twin = cls(**fields)
    assert twin == record and not twin != record
    assert record.__eq__(object()) is NotImplemented
    try:
        expected = hash(tuple(fields.values()))
    except TypeError:  # an array or a dict among the fields
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    if field is not None:
        assert cls(**{**fields, field: value}) != record

    assert repr(record) == f"{cls.__qualname__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()) + ")"

    with pytest.raises(AttributeError):
        setattr(record, names[0], fields[names[0]])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert all(getattr(record, k) is v for k, v in fields.items())

    with pytest.raises(TypeError):
        cls(**fields, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), **{names[0]: fields[names[0]]})
    required = [p for p in inspect.signature(cls).parameters.values()
                if p.default is inspect.Parameter.empty]
    if required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != required[0].name})


def test_records_print_as_before():
    assert repr(o.BathSpec(0.5)) == "BathSpec(beta=0.5)"
    assert repr(o.SweepRange(0, 1, 3)) == \
        "SweepRange(start=0.0, stop=1.0, steps=3)"
    assert repr(o.SubstanceSpec.qubit()) == (
        "SubstanceSpec(kind=<SubstanceKind.QUBIT: 'qubit'>, J=0.0, "
        "Jxy=0.0, Jz=0.0)")


def test_defaults_and_positions():
    assert o.Tolerances() == o.TOL
    assert o.SubstanceSpec(o.SubstanceKind.QUTRIT, 1.0) == _SPEC
    assert o.Theorem1Report(1, (2,), 0, 0.0, 1, -1.0, True, True) \
        .max_identity == 0.0
    with pytest.raises(TypeError):
        o.BathSpec(0.5, 0.5)
    with pytest.raises(TypeError):
        o.BathSpec()


@pytest.mark.parametrize("call, problem", [
    (lambda: o.BathSpec(), "missing a required argument: 'beta'"),
    (lambda: o.BathSpec(beta=0.5, gamma=1.0),
     "got an unexpected keyword argument 'gamma'"),
    (lambda: o.BathSpec(0.5, beta=0.5), "multiple values for argument 'beta'"),
    (lambda: o.BathSpec(0.5, 0.5), "too many positional arguments"),
], ids=["missing", "unknown", "repeated", "too-many"])
def test_binding_errors_name_the_class(call, problem):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == f"BathSpec(): {problem}"


def test_keywords_in_any_order_bind_in_field_order():
    assert o.SweepRange(steps=3, stop=1, start=0) == o.SweepRange(0, 1, 3)
    assert o.Theorem1Report(passed=True, max_identity=0.5, dims=(2,), seed=0,
                            min_unital=0.0, control_samples=1, samples=1,
                            min_control=-1.0, control_negative_found=True) \
        == o.Theorem1Report(1, (2,), 0, 0.0, 1, -1.0, True, True, 0.5)


def test_a_record_class_cannot_be_extended():
    with pytest.raises(TypeError, match="BathSpec2"):
        class BathSpec2(o.BathSpec):
            pass


def test_signature_shows_annotations_and_defaults():
    assert str(inspect.signature(o.SubstanceSpec)) == (
        "(kind: 'SubstanceKind', J: 'float' = 0.0, Jxy: 'float' = 0.0, "
        "Jz: 'float' = 0.0) -> None")


@pytest.mark.parametrize("call", [
    lambda: o.BathSpec(-1.0),
    lambda: o.DensityMatrix([[2.0]]),
    lambda: o.CycleConfig(_SPEC, 4.0, 3.0, o.BathSpec(1.0),
                          o.TwoBath(o.BathSpec(0.5))),
    lambda: o.Su3Angles("a", 0.0, 0.0, 0.0),
    lambda: o.SpinDirection(2.0, 0.0, 0.0),
    lambda: o.SubstanceSpec(o.SubstanceKind.QUTRIT, Jxy=1.0),
    lambda: o.SweepRange(1.0, 0.0, 3),
    lambda: o.TwoBath(5),
    lambda: o.Measurement(5),
    lambda: o.CycleConfig(_SPEC, 3, 4, 5, o.TwoBath(o.BathSpec(0.5))),
    lambda: o.CycleConfig(5, 3, 4, o.BathSpec(1.0),
                          o.TwoBath(o.BathSpec(0.5))),
], ids=["BathSpec", "DensityMatrix", "CycleConfig", "Su3Angles",
        "SpinDirection", "SubstanceSpec", "SweepRange", "TwoBath-int",
        "Measurement-int", "CycleConfig-cold-int", "CycleConfig-spec-int"])
def test_validating_records_reject_a_bad_value(call):
    with pytest.raises(o.OttoSimError):
        call()


def test_start_up_builds_no_dataclass():
    code = ("import sys\n"
            "import ottosim.cli\n"
            "ottosim.cli.build_parser()\n"
            "print('dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
