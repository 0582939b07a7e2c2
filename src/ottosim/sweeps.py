"""Parameter sweeps over cycles, tabulated for CSV output.

Each sweep function returns a SweepTable: a header, rows in
deterministic order, and a metadata mapping recording every parameter.
Its columns: the swept axes; Qh, Qc, W; eta_raw (None where Qh == 0);
eta0; engine_mode and crossing as 0/1; q1_plus_q2, the summed hot flux
of the idle levels, for a kind with more than one idle level (xxz);
then q_h, q_c, dp, p_cold and p_post per level label. One rule maps a
cell's type to its % format (blank for None, %d for integers, else
%.17g): format_value applies it to one value, every .meta value that is
not text included, and write_csv joins it into one format per row shape
and writes every row with one % operation. The same parameters give the
same bytes, moved into place once both files are whole. An output path
is resolved through its symlinks, and only a regular file is replaced.

Every sweep is one call to _sweep, the loop they share. It builds and
checks the channel once per point of the outer axes (once per theta for
the contour) and runs the whole grid as one cycle kernel call, with one
protocol per block of rows that share an outer point; a grid of more
than _SWEEP_ROWS rows takes one call per group of whole points. The
kernel works row by row in a fixed order, so each row holds the bits of
run_cycle at its grid point, whatever the split. Each call gives one
list of (column, values), read for both the header and the rows. A
cooling measurement warns once per sweep, counting the whole grid, and
the warning names the line that called the sweep.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import stat
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

# theorem1 lives in channels; the CLI, a test oracle and perfbench use these
from .channels import _MIXTURE, _PROJECTIVE, _theorem1_schedule, theorem1_suite
from .core import BathSpec, _integer, _real, row_sum
from .cycle import Measurement, TwoBath, _run_cycles, _warn_cooling
from .errors import InvalidField, OttoSimError
from .measurements import (SpinDirection, Su3Angles, local_spin_channel,
                           su3_projective_channel)
from .substances import _KINDS, SubstanceKind, _check_fields


@dataclass(frozen=True)
class SweepRange:
    """Inclusive linear grid: steps >= 2 spans [start, stop], steps == 1
    is the single point start (start == stop allowed only then)."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        for name in ("start", "stop"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not math.isfinite(self.stop - self.start):
            raise InvalidField("range span is too large to represent")
        object.__setattr__(self, "steps", _integer("steps", self.steps, 1))
        if self.steps == 1:
            if self.start > self.stop:
                raise InvalidField("single-point range needs start <= stop")
        elif not self.start < self.stop:
            raise InvalidField(f"need start < stop, got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


class SweepTable(NamedTuple):
    header: tuple
    rows: list
    meta: dict


# Most rows one kernel call of _sweep holds. A call takes whole points of
# the outer axes, so a swept axis longer than this is one call per point.
# The arrays and column lists of one call then stay a few megabytes, and
# the peak memory of a large contour is that of its rows.
_SWEEP_ROWS = 4096


def _sweep(meta, Bi, Bf, beta_c, axes, kind, protocol) -> SweepTable:
    """The loop all sweeps share: one cycle kernel call for the whole grid,
    or one per _SWEEP_ROWS rows of it.

    axes: (column, meta prefix, SweepRange) per axis; the last, which runs
    fastest, sets the coupling of kind its column names (others stay 0).
    protocol(*point) is the stroke-3 protocol at a point of the outer axes;
    the kernel runs each point's rows as one block under its protocol.
    """
    Bi, Bf = _check_fields(Bi, Bf)
    *outer, (swept, _, grid) = axes
    table = _KINDS[kind]
    points = itertools.product(*(r.values().tolist() for _, _, r in outer))
    cs = grid.values().tolist()
    step = min(math.prod(r.steps for _, _, r in outer),
               max(1, _SWEEP_ROWS // len(cs)))
    couplings = np.zeros((step * len(cs), len(table.couplings)))
    couplings[:, table.couplings.index(swept)] = cs * step
    cold = BathSpec(beta_c)
    rows, cooled = [], 0
    while chunk := list(itertools.islice(points, step)):
        n = len(chunk) * len(cs)
        blocks = [protocol(*point) for point in chunk]
        batch = _run_cycles(table, couplings[:n], Bi, Bf, cold, blocks)
        if isinstance(blocks[0], Measurement):
            cooled += int(np.count_nonzero(batch.Qh < 0.0))
        # Cells of one value share one float object, as the rows of a
        # large grid take most of a sweep's memory.
        columns = [(column, [v for v in coords for _ in cs])
                   for (column, _, _), coords in zip(outer, zip(*chunk))]
        columns += [
            (swept, cs * len(chunk)),
            ("Qh", batch.Qh.tolist()), ("Qc", batch.Qc.tolist()),
            ("W", batch.W.tolist()),
            ("eta_raw", [None if math.isnan(v) else v
                         for v in batch.eta_raw.tolist()]),
            ("eta0", [batch.eta0] * n),
            ("engine_mode", batch.engine_mode.astype(int).tolist()),
            ("crossing", batch.crossing.astype(int).tolist()),
        ]
        if np.count_nonzero(table.idle) > 1:
            columns.append(("q1_plus_q2",
                            row_sum(batch.flux_hot[:, table.idle]).tolist()))
        for prefix, per_level in zip(
                ("q_h", "q_c", "dp", "p_cold", "p_post"),
                (batch.flux_hot, batch.flux_cold, batch.delta_p, batch.p_cold,
                 batch.p_hot)):
            columns += zip([f"{prefix}_{label}" for label in batch.labels],
                           per_level.T.tolist())
        header, values = zip(*columns)
        rows.extend(map(list, zip(*values)))
    _warn_cooling(cooled, len(rows))
    meta = dict(meta, bi=Bi, bf=Bf, beta_c=cold.beta)
    for _, prefix, r in axes:
        meta.update({f"{prefix}_min": r.start, f"{prefix}_max": r.stop,
                     f"{prefix}_steps": r.steps})
    return SweepTable(header=header, rows=rows, meta=meta)


def sweep_qutrit_two_bath(Bi: float, Bf: float, beta_c: float, beta_h: float,
                          j_range: SweepRange) -> SweepTable:
    """One row per J for the thermally driven qutrit cycle."""
    hot = BathSpec(beta_h)
    return _sweep({"command": "qutrit-two-bath", "beta_h": hot.beta},
                  Bi, Bf, beta_c, [("J", "j", j_range)], SubstanceKind.QUTRIT,
                  lambda: TwoBath(hot))


def sweep_qutrit_measurement(Bi: float, Bf: float, beta_c: float,
                             angles: Su3Angles,
                             j_range: SweepRange) -> SweepTable:
    """One row per J for the measurement-driven qutrit cycle."""
    return _sweep({"command": "qutrit-meas", **asdict(angles)},
                  Bi, Bf, beta_c, [("J", "j", j_range)], SubstanceKind.QUTRIT,
                  lambda: Measurement(su3_projective_channel(angles)))


CONTOUR_MODES = ("theta-phi", "theta-phi-chi")


def sweep_qutrit_contour(Bi: float, Bf: float, beta_c: float, mode: str,
                         theta_range: SweepRange,
                         j_range: SweepRange) -> SweepTable:
    """Grid of measurement cycles over (theta, J).

    mode "theta-phi" sets theta = phi with chi = psi = pi/2;
    mode "theta-phi-chi" also ties chi to theta, with psi = pi/2.
    """
    if mode not in CONTOUR_MODES:
        raise OttoSimError(f"mode must be one of {CONTOUR_MODES}, got {mode!r}")
    half_pi = 0.5 * np.pi
    tie_chi = mode == "theta-phi-chi"
    return _sweep({"command": "qutrit-contour", "mode": mode}, Bi, Bf, beta_c,
                  [("theta", "theta", theta_range), ("J", "j", j_range)],
                  SubstanceKind.QUTRIT,
                  lambda t: Measurement(su3_projective_channel(Su3Angles(
                      theta=t, phi=t, chi=t if tie_chi else half_pi,
                      psi=half_pi))))


EXTREME_ANGLES = Su3Angles(theta=0.75 * np.pi, phi=0.75 * np.pi,
                           chi=0.5 * np.pi, psi=0.5 * np.pi)


def sweep_qutrit_extreme(Bi: float, Bf: float, beta_c: float,
                         j_range: SweepRange) -> SweepTable:
    """Measurement sweep at the fixed high-efficiency angle set.

    This family leaves the +B population untouched and equalizes the two
    lowest levels, trading vanishing work for efficiency near 1.
    """
    return _sweep({"command": "qutrit-extreme", **asdict(EXTREME_ANGLES)},
                  Bi, Bf, beta_c, [("J", "j", j_range)], SubstanceKind.QUTRIT,
                  lambda: Measurement(su3_projective_channel(EXTREME_ANGLES)))


XXZ_MODELS = ("xx", "ising")
XXZ_PROTOCOLS = ("two-bath", "meas")


def sweep_xxz(model: str, protocol: str, Bi: float, Bf: float, beta_c: float,
              coupling_range: SweepRange, beta_h: Optional[float] = None,
              n: Optional[SpinDirection] = None,
              m: Optional[SpinDirection] = None) -> SweepTable:
    """Two-qubit sweeps: XX model sweeps Jxy (Jz=0), Ising sweeps Jz (Jxy=0).

    The extra q1_plus_q2 column sums the two idle-level hot fluxes; its
    sign decides whether the efficiency beats the uncoupled baseline.
    """
    if model not in XXZ_MODELS:
        raise OttoSimError(f"model must be one of {XXZ_MODELS}, got {model!r}")
    if protocol not in XXZ_PROTOCOLS:
        raise OttoSimError(f"protocol must be one of {XXZ_PROTOCOLS}, got {protocol!r}")
    meta = {"command": "xxz", "model": model, "protocol": protocol}
    if protocol == "two-bath":
        if beta_h is None:
            raise OttoSimError("two-bath protocol needs beta_h")
        proto = TwoBath(hot=BathSpec(beta_h))
        meta["beta_h"] = proto.hot.beta
    else:
        if n is None or m is None:
            raise OttoSimError("measurement protocol needs directions n and m")
        proto = Measurement(local_spin_channel(n, m))
        meta["n"] = f"{n.nx},{n.ny},{n.nz}"
        meta["m"] = f"{m.nx},{m.ny},{m.nz}"
    swept = "Jxy" if model == "xx" else "Jz"
    return _sweep(meta, Bi, Bf, beta_c, [(swept, "j", coupling_range)],
                  SubstanceKind.XXZ, lambda: proto)


def _cell_format(t: type) -> str:
    """format_value's % format for a cell of type t (%.0s: a blank)."""
    if t is type(None):
        return "%.0s"
    return "%d" if issubclass(t, (int, np.integer)) else "%.17g"


def format_value(v) -> str:
    """CSV cell: blank for None, %d for integers (bools too), else %.17g."""
    return _cell_format(type(v)) % (v,)


@contextlib.contextmanager
def _replacing(*paths):
    """Text files that replace paths only once all are written and closed.

    Each target is a path with its symlinks resolved, so a link keeps
    pointing where it did. A target must be absent or a regular file, or
    OSError names it before any temp exists. Each temp is a new file next
    to its target, created by open() as a plain write would create it. If
    anything fails first, every temp is removed and no target changes.
    """
    paths = [os.path.realpath(path) for path in paths]
    for path in paths:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            continue
        if not stat.S_ISREG(mode):
            raise OSError(f"{path} is not a regular file; it is not replaced")
    temps = []
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                temp = f"{path}.{os.urandom(8).hex()}.tmp"
                files.append(stack.enter_context(
                    open(temp, "x", encoding="utf-8", newline="")))
                temps.append(temp)
            yield files
        for temp, path in zip(temps, paths):
            os.replace(temp, path)
    except BaseException:
        for temp in temps:
            # a temp already moved into place is gone
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


def write_csv(path: str, table: SweepTable) -> None:
    """Write the table as UTF-8 CSV with Unix newlines, plus a .meta sidecar.

    Output is byte-identical for identical parameters: full-precision
    floats, deterministic row order, no timestamps. Both files replace
    any earlier output only once both are fully written. Every row is
    written with one % format, joined from the cells' formats (the rule
    of format_value) and built once per row shape, the tuple of cell
    types. A cell that is not a number or None raises OttoSimError.

    The .meta sidecar has one key=value line per key, in sorted order: a
    text value as it is, any other through format_value. A key holding
    "=" or a line break, a text value holding a line break, or a value
    format_value cannot write raises OttoSimError before any file is
    written.
    """
    meta_text = "".join(_meta_line(key, value)
                        for key, value in sorted(table.meta.items()))
    formats = {}
    with _replacing(path, path + ".meta") as (f, meta):
        f.write(",".join(table.header) + "\n")
        for index, row in enumerate(table.rows):
            cells = tuple(row)
            shape = tuple(map(type, cells))
            fmt = formats.get(shape)
            if fmt is None:
                fmt = formats[shape] = (",".join(map(_cell_format, shape))
                                        + "\n")
            try:
                f.write(fmt % cells)
            except (TypeError, OverflowError):
                _check_cells(table.header, index, cells)
                raise
        meta.write(meta_text)


def _meta_line(key, value) -> str:
    """The .meta line key=value; OttoSimError if it would not read back."""
    key = str(key)
    if any(c in key for c in "=\r\n"):
        raise OttoSimError(f"meta key {key!r} holds '=' or a line break")
    if isinstance(value, str):
        if any(c in value for c in "\r\n"):
            raise OttoSimError(f"meta {key!r}: {value!r} holds a line break")
        return f"{key}={value}\n"
    try:
        return f"{key}={format_value(value)}\n"
    except (TypeError, OverflowError) as exc:
        raise OttoSimError(f"meta {key!r}: cannot write a "
                           f"{type(value).__name__} as a number: {exc}"
                           ) from None


def _check_cells(header, index, cells):
    """OttoSimError for the first cell of table.rows[index] that
    format_value cannot write."""
    for column, value in enumerate(cells):
        try:
            format_value(value)
        except (TypeError, OverflowError) as exc:
            name = header[column] if column < len(header) else column
            raise OttoSimError(f"table.rows[{index}], column {name!r}: "
                               f"cannot write a {type(value).__name__} as "
                               f"a number: {exc}") from None
