"""The frozen CLI outputs of tests/golden/ and the script that writes them.

CASES maps each golden name to the ottosim argv that produces it; the
runner appends --out. A sweep writes <name>.csv and <name>.csv.meta, the
theorem1 report <name>.txt. tests/test_golden.py runs the same argvs
and compares bytes. VERSIONS records the Python and numpy builds that
wrote the files, since numpy's exp and einsum may round differently on
another build.

Re-freeze (only in a change that means to move bytes, and say which
cells moved in CHANGES.md):

    PYTHONPATH=src python tests/freeze_golden.py
"""

import contextlib
import io
import os
import platform
import sys

import numpy as np

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "qutrit-two-bath": ["qutrit-two-bath", "--j-steps", "41"],
    # Equal betas: heats shrink to 1e-302 and the last row has Qh == 0,
    # so eta_raw is blank there.
    "qutrit-two-bath-no-heat": ["qutrit-two-bath", "--bi", "3", "--bf", "4",
                                "--beta-c", "1", "--beta-h", "1",
                                "--j-min", "0", "--j-max", "800",
                                "--j-steps", "9"],
    "qutrit-meas": ["qutrit-meas", "--j-steps", "41"],
    "qutrit-meas-seeded": ["qutrit-meas", "--seed", "7", "--theta", "2.2",
                           "--phi", "2.2"],
    "qutrit-extreme": ["qutrit-extreme"],
    "contour-theta-phi": ["qutrit-contour", "--mode", "theta-phi",
                          "--theta-steps", "9", "--j-steps", "7"],
    "contour-theta-phi-chi": ["qutrit-contour", "--mode", "theta-phi-chi",
                              "--theta-steps", "9", "--j-steps", "7"],
    **{f"xxz-{model}-{protocol}": ["xxz", "--model", model, "--protocol",
                                   protocol, "--j-steps", "21"]
       for model in ("xx", "ising") for protocol in ("two-bath", "meas")},
    "theorem1-seed1": ["theorem1", "--samples", "200", "--seed", "1"],
    "theorem1-seed2": ["theorem1", "--samples", "200", "--seed", "2"],
}


def files(name):
    """The output files of a case, as names relative to its directory."""
    if CASES[name][0] == "theorem1":
        return [f"{name}.txt"]
    return [f"{name}.csv", f"{name}.csv.meta"]


def produce(name, directory):
    """Run case name through cli.main, writing its files into directory."""
    from ottosim.cli import main

    out = os.path.join(directory, files(name)[0])
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(CASES[name] + ["--out", out])
    if code != 0:
        raise RuntimeError(f"{name}: ottosim exited {code}")


def versions():
    return f"python {platform.python_version()}\nnumpy {np.__version__}\n"


def freeze():
    os.makedirs(GOLDEN, exist_ok=True)
    for name in CASES:
        produce(name, GOLDEN)
    with open(os.path.join(GOLDEN, "VERSIONS"), "w", encoding="utf-8",
              newline="") as f:
        f.write(versions())


if __name__ == "__main__":
    freeze()
    sys.stdout.write(versions())
