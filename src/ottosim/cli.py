"""Command-line front end of the sweeps.

Subcommands produce CSV tables (plus a .meta parameter sidecar) for the
standard engine studies: qutrit-two-bath, qutrit-meas, qutrit-contour,
qutrit-extreme, xxz, and the theorem1 property report. Every default can
be overridden by a flag or by a key=value --config file; flags win over
the config file. Exit codes: 0 success, 1 validation error, 2 IO error.

Each default is written as the text a user would type, so a flag, a
config entry and a default all reach the library through the same
conversion, and --help prints the default as it is. Choices (--mode,
--model, --protocol) pass through as text; the sweep functions reject
a bad one before any work.

_COMMANDS gives each command's options and _SWEEPS each sweep's library
call. Before any work a sweep must name its --out file, and a command
may ask for at most MAX_POINTS rows (the product of its *_steps options)
or theorem1 samples; otherwise it exits 1. A cooling measurement's
MeasurementCoolsWarning (one per sweep) is printed as one plain
"warning: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from . import sweeps
from .errors import MeasurementCoolsWarning, OttoSimError
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
    default: Optional[str]
    help: str


# Largest row count of a sweep (theta_steps * j_steps for the contour) and
# largest theorem1 sample count: 100 times the largest grid the benchmark
# runs (2001 rows). At the cap a 400 x 500 contour takes 2.4-2.6 s and
# 197.5 MiB peak RSS, most of it the table's rows (50 kernel calls of 4000
# rows each), and theorem1 10.5-13.3 s and 43 MiB (2-vCPU x86-64 host,
# Python 3.11, numpy 2.4).
MAX_POINTS = 200_000


_BATH = [
    Opt("bi", _float, "3", "field during the cold stroke"),
    Opt("bf", _float, "4", "field during the hot/measurement stroke"),
    Opt("beta_c", _float, "1", "cold-bath inverse temperature"),
]
_BETA_H = Opt("beta_h", _float, "0.5", "hot-bath inverse temperature")
_OUT = Opt("out", str, None, "output CSV path (required)")
_SEED = Opt("seed", _int, None, "random seed (recorded; used by theorem1)")


def _jrange(lo, hi, steps):
    return [Opt("j_min", _float, lo, "sweep start"),
            Opt("j_max", _float, hi, "sweep stop"),
            Opt("j_steps", _int, steps, "sweep point count")]


_ANGLES = [Opt(name, _float, repr(share * math.pi),
               f"measurement angle {name} (radians)")
           for name, share in (("theta", 0.7), ("phi", 0.7), ("chi", 0.5),
                               ("psi", 0.5))]

_COMMANDS = {
    "qutrit-two-bath": _BATH + [_BETA_H] + _jrange("0", "3", "121") + [_OUT, _SEED],
    "qutrit-meas": _BATH + _ANGLES + _jrange("0", "3", "121") + [_OUT, _SEED],
    "qutrit-contour": _BATH + [
        Opt("mode", str, "theta-phi",
            "angle tying: theta-phi (chi=psi=pi/2) or theta-phi-chi (psi=pi/2)"),
        Opt("theta_min", _float, "0", "theta grid start"),
        Opt("theta_max", _float, repr(math.pi), "theta grid stop"),
        Opt("theta_steps", _int, "41", "theta grid point count"),
    ] + _jrange("0.2", "2.8", "27") + [_OUT, _SEED],
    "qutrit-extreme": _BATH + _jrange("0.1", "2.9", "29") + [_OUT, _SEED],
    "xxz": _BATH + [
        Opt("model", str, "xx",
            "xx sweeps Jxy with Jz=0; ising sweeps Jz with Jxy=0"),
        Opt("protocol", str, "two-bath", "stroke-3 drive: two-bath or meas"),
        _BETA_H,
        Opt("n", _direction, "1,0,0", "qubit-1 measurement direction"),
        Opt("m", _direction, "0,0,1", "qubit-2 measurement direction"),
    ] + _jrange("0.05", "2", "40") + [_OUT, _SEED],
    "theorem1": [
        Opt("dims", _dims, "2,3,4", "dimensions"),
        Opt("samples", _int, "1000", "number of (channel, state, H) triples"),
        Opt("seed", _int, "1", "random seed"),
        Opt("out", str, None, "optional path for the report text"),
    ],
}


def _read_config(path: str) -> dict:
    """UTF-8 key=value lines, a leading byte order mark allowed; '#'
    comments and blank lines ignored."""
    values = {}
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError as exc:
            raise OttoSimError(
                f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, line in enumerate(lines, start=1):
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
        text = getattr(ns, opt.dest)
        if text is None:
            text = config.get(opt.dest, opt.default)
        out[opt.dest] = None if text is None else opt.conv(text)
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
                f.write(text.encode())
        return 0 if report.passed else 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", MeasurementCoolsWarning)
        table = _SWEEPS[name](vals)
    for w in caught:
        if issubclass(w.category, MeasurementCoolsWarning):
            print(f"warning: {w.message}", file=sys.stderr)
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if vals["seed"] is not None:
        table.meta["seed"] = vals["seed"]
    write_csv(out, table)
    print(f"wrote {len(table.rows)} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every command; main reuses one, built on first use.

    Reuse is safe because a parse leaves the parser as it was: every
    option defaults to None, _Parser.error looks up sys.stderr when it
    runs, and argparse builds its help formatter, which reads the
    terminal width, at print time.
    """
    parser = _Parser(prog="ottosim",
                     description="Quantum Otto engine parameter sweeps")
    sub = parser.add_subparsers(dest="command")
    for name, options in _COMMANDS.items():
        p = sub.add_parser(name, help=f"{name} sweep")
        for opt in options:
            flag = "--" + opt.dest.replace("_", "-")
            p.add_argument(flag, dest=opt.dest, default=None, type=str,
                           help=f"{opt.help} (default {opt.default})")
        p.add_argument("--config", default=None,
                       help="key=value file; flags win over it")
    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
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
