"""Command-line front end of the sweeps.

Subcommands produce CSV tables (plus a .meta parameter sidecar) for the
standard engine studies: qutrit-two-bath, qutrit-meas, qutrit-contour,
qutrit-extreme, xxz, and the theorem1 property report. Every default can
be overridden by a flag or by a key=value --config file; flags win over
the config file. Exit codes: 0 success, 1 validation error, 2 IO error.

_COMMANDS gives each command's options and _SWEEPS each sweep's library
call. Before any work a sweep must name its --out file, and a command
may ask for at most MAX_POINTS rows (the product of its *_steps options)
or theorem1 samples; otherwise it exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import sweeps
from .errors import OttoSimError
from .measurements import SpinDirection, Su3Angles
from .sweeps import SweepRange, write_csv


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; remap to 1 (2 means IO here)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise OttoSimError(f"expected a number, got {text!r}")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise OttoSimError(f"expected an integer, got {text!r}")


def _choice(*allowed):
    def conv(text: str) -> str:
        if text not in allowed:
            raise OttoSimError(f"expected one of {allowed}, got {text!r}")
        return text
    return conv


def _direction(text: str) -> SpinDirection:
    parts = text.split(",")
    if len(parts) != 3:
        raise OttoSimError(f"direction needs three comma-separated reals, got {text!r}")
    return SpinDirection(*(_float(p) for p in parts))


def _dims(text: str) -> tuple:
    return tuple(_int(p) for p in text.split(","))


@dataclass(frozen=True)
class Opt:
    dest: str
    conv: Callable
    default: object
    help: str


_PI = float(np.pi)

# Largest row count of a sweep (theta_steps * j_steps for the contour) and
# largest theorem1 sample count: 100 times the largest grid the benchmark
# runs (2001 rows). At the cap a contour takes about 8 s and 200 MiB, and
# theorem1 about 14 s and 44 MiB (2-vCPU x86-64 host, numpy 2.4).
MAX_POINTS = 200_000


_BATH = [
    Opt("bi", _float, 3.0, "field during the cold stroke"),
    Opt("bf", _float, 4.0, "field during the hot/measurement stroke"),
    Opt("beta_c", _float, 1.0, "cold-bath inverse temperature"),
]
_BETA_H = Opt("beta_h", _float, 0.5, "hot-bath inverse temperature")
_OUT = Opt("out", str, None, "output CSV path (required)")
_SEED = Opt("seed", _int, None, "random seed (recorded; used by theorem1)")


def _jrange(lo, hi, steps):
    return [Opt("j_min", _float, lo, "sweep start"),
            Opt("j_max", _float, hi, "sweep stop"),
            Opt("j_steps", _int, steps, "sweep point count")]


_ANGLES = [
    Opt("theta", _float, 0.7 * _PI, "measurement angle theta (radians)"),
    Opt("phi", _float, 0.7 * _PI, "measurement angle phi (radians)"),
    Opt("chi", _float, 0.5 * _PI, "measurement angle chi (radians)"),
    Opt("psi", _float, 0.5 * _PI, "measurement angle psi (radians)"),
]

_COMMANDS = {
    "qutrit-two-bath": _BATH + [_BETA_H] + _jrange(0.0, 3.0, 121) + [_OUT, _SEED],
    "qutrit-meas": _BATH + _ANGLES + _jrange(0.0, 3.0, 121) + [_OUT, _SEED],
    "qutrit-contour": _BATH + [
        Opt("mode", _choice(*sweeps.CONTOUR_MODES), "theta-phi",
            "angle tying: theta-phi (chi=psi=pi/2) or theta-phi-chi (psi=pi/2)"),
        Opt("theta_min", _float, 0.0, "theta grid start"),
        Opt("theta_max", _float, _PI, "theta grid stop"),
        Opt("theta_steps", _int, 41, "theta grid point count"),
    ] + _jrange(0.2, 2.8, 27) + [_OUT, _SEED],
    "qutrit-extreme": _BATH + _jrange(0.1, 2.9, 29) + [_OUT, _SEED],
    "xxz": _BATH + [
        Opt("model", _choice(*sweeps.XXZ_MODELS), "xx",
            "xx sweeps Jxy with Jz=0; ising sweeps Jz with Jxy=0"),
        Opt("protocol", _choice(*sweeps.XXZ_PROTOCOLS), "two-bath",
            "stroke-3 drive: two-bath or meas"),
        _BETA_H,
        Opt("n", _direction, SpinDirection.x(),
            "qubit-1 measurement direction, e.g. 1,0,0"),
        Opt("m", _direction, SpinDirection.z(),
            "qubit-2 measurement direction, e.g. 0,0,1"),
    ] + _jrange(0.05, 2.0, 40) + [_OUT, _SEED],
    "theorem1": [
        Opt("dims", _dims, (2, 3, 4), "dimensions, e.g. 2,3,4"),
        Opt("samples", _int, 1000, "number of (channel, state, H) triples"),
        Opt("seed", _int, 1, "random seed"),
        Opt("out", str, None, "optional path for the report text"),
    ],
}


def _read_config(path: str) -> dict:
    """key=value lines; '#' comments and blank lines ignored."""
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise OttoSimError(f"{path}:{lineno}: expected key=value")
            key, _, raw = text.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _resolve(ns: argparse.Namespace, options) -> dict:
    config = _read_config(ns.config) if ns.config else {}
    known = {opt.dest for opt in options}
    for key in config:
        if key not in known:
            raise OttoSimError(f"unknown config key {key!r}")
    out = {}
    for opt in options:
        raw = getattr(ns, opt.dest)
        if raw is None:
            raw = config.get(opt.dest)
        if raw is None:
            out[opt.dest] = opt.default
        else:
            out[opt.dest] = opt.conv(raw)
    return out


def _range(vals: dict, prefix: str) -> SweepRange:
    return SweepRange(vals[f"{prefix}_min"], vals[f"{prefix}_max"],
                      vals[f"{prefix}_steps"])


_SWEEPS = {
    "qutrit-two-bath": lambda v: sweeps.sweep_qutrit_two_bath(
        v["bi"], v["bf"], v["beta_c"], v["beta_h"], _range(v, "j")),
    "qutrit-meas": lambda v: sweeps.sweep_qutrit_measurement(
        v["bi"], v["bf"], v["beta_c"],
        Su3Angles(v["theta"], v["phi"], v["chi"], v["psi"]), _range(v, "j")),
    "qutrit-contour": lambda v: sweeps.sweep_qutrit_contour(
        v["bi"], v["bf"], v["beta_c"], v["mode"], _range(v, "theta"),
        _range(v, "j")),
    "qutrit-extreme": lambda v: sweeps.sweep_qutrit_extreme(
        v["bi"], v["bf"], v["beta_c"], _range(v, "j")),
    "xxz": lambda v: sweeps.sweep_xxz(
        v["model"], v["protocol"], v["bi"], v["bf"], v["beta_c"],
        _range(v, "j"), beta_h=v["beta_h"], n=v["n"], m=v["m"]),
}


def _run(name: str, ns: argparse.Namespace) -> int:
    vals = _resolve(ns, _COMMANDS[name])
    out = vals["out"]
    if name in _SWEEPS and not out:
        raise OttoSimError("--out is required")
    counts = [key for key in vals if key.endswith("_steps") or key == "samples"]
    if math.prod(max(vals[key], 1) for key in counts) > MAX_POINTS:
        sizes = " * ".join(f"{key}={vals[key]}" for key in counts)
        raise OttoSimError(f"{sizes} asks for more than {MAX_POINTS} points")
    if name not in _SWEEPS:
        report = sweeps.theorem1_suite(vals["dims"], vals["samples"],
                                       vals["seed"])
        text = "\n".join(report.lines()) + "\n"
        sys.stdout.write(text)
        if out:
            with sweeps._replacing(out) as (f,):
                f.write(text)
        return 0 if report.passed else 1
    table = _SWEEPS[name](vals)
    if vals["seed"] is not None:
        table.meta["seed"] = vals["seed"]
    write_csv(out, table)
    print(f"wrote {len(table.rows)} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ottosim",
                     description="Quantum Otto engine parameter sweeps")
    sub = parser.add_subparsers(dest="command")
    for name, options in _COMMANDS.items():
        p = sub.add_parser(name, help=f"{name} sweep")
        for opt in options:
            flag = "--" + opt.dest.replace("_", "-")
            p.add_argument(flag, dest=opt.dest, default=None, type=str,
                           help=f"{opt.help} (default {_show(opt.default)})")
        p.add_argument("--config", default=None,
                       help="key=value file; flags win over it")
    return parser


def _show(default) -> str:
    if isinstance(default, SpinDirection):
        return f"{default.nx:g},{default.ny:g},{default.nz:g}"
    if isinstance(default, tuple):
        return ",".join(str(d) for d in default)
    if isinstance(default, float):
        return f"{default:g}"
    return str(default)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if not ns.command:
        parser.print_help()
        return 1
    try:
        return _run(ns.command, ns)
    except OttoSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
