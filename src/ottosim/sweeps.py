"""Parameter sweeps over cycles, tabulated for CSV output.

Each sweep function returns a SweepTable: a header, rows in
deterministic order, and a metadata mapping recording every parameter.
A sweep holds its cells as one float64 table of typed columns, and its
rows are a read-only view of that table that gives each row as a tuple
of Python floats, ints (the 0/1 flags) and None (a blank eta_raw); to
edit them, build a SweepTable from list(rows). Its columns: the swept
axes; Qh, Qc, W; eta_raw (None where Qh == 0); eta0; engine_mode and
crossing as 0/1; q1_plus_q2, the summed hot flux of the idle levels,
for a kind with more than one idle level (xxz); then q_h, q_c, dp,
p_cold and p_post per level label. format_value is the one rule from a
cell to its text (blank for None, %d for integers, else %.17g), for
rows built by hand and every .meta value that is not text. write_csv
writes every cell of a sweep's rows _CSV_CELLS at a time with
text.block_text, which gives the same text. The same parameters give
the same bytes, moved into place once both files are whole. An output
path is resolved through its symlinks, and only a regular file is
replaced.

Every sweep is one call to _sweep, the loop they share. It allocates the
table first, then builds stroke 3: one hot bath for every row, or one
checked channel per point of the outer axes (per theta for the contour;
each kernel call's thetas as one checked Kraus stack, which goes to the
kernel as it is, with no channel record). It runs the whole grid as one
cycle kernel call, each block of rows that share an outer point under
that point's channel; a grid of more than _SWEEP_ROWS rows takes one
call per group of whole points, and a swept axis longer than that one
call per _SWEEP_ROWS of its rows, each point's channel built once for
all the calls its rows span. The kernel works row by row in a fixed
order, so each row holds the bits of run_cycle at its grid point,
whatever the split. Each call fills its rows of the table in place. A
grid whose table cannot be allocated raises OttoSimError before any
channel is built. A cooling measurement warns once per sweep, counting
the whole grid, and the warning names the line that called the sweep.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import stat
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple, Optional

import numpy as np

from ._record import Record
from .core import BathSpec, _empty, _integer, _real, _require, level_sum
from .cycle import _run_cycles, _warn_cooling
from .errors import InvalidField, OttoSimError
from .measurements import SpinDirection, Su3Angles, _spin_kraus, _su3_kraus
from .substances import _KINDS, SubstanceKind, _check_fields
from .text import block_text
# re-exported: the CLI calls theorem1_suite here, where perfbench's tracer
# wraps it; the test oracle in tests/helpers.py reads the other three
from .theorem1 import _MIXTURE, _PROJECTIVE, _theorem1_schedule, theorem1_suite


class SweepRange(Record):
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
    rows: Sequence  # a list of rows, or a sweep's read-only view
    meta: dict


class _Rows(Sequence):
    """The rows of a sweep table, read from its float64 cells of shape
    (rows, columns): each a tuple of a Python int for a column in integer
    (the 0/1 flags), None for a NaN in a column in blank (eta_raw), else
    a Python float. The view is read only, and two are equal when their
    rows are; list(rows) gives rows to edit. write_csv writes the cells,
    each as the float it is, so an integer column's cells are made whole
    floats here, truncated as int() truncates and a -0.0 made 0.0. Each
    must be below 10**17 in size, where '%.17g' writes what '%d' writes;
    else (NaN and inf too) OttoSimError, with the cells left as they were."""

    def __init__(self, cells, integer, blank):
        whole = np.trunc(cells[:, integer]) + 0.0
        if not (np.abs(whole) < 1e17).all():
            raise OttoSimError("an integer column holds NaN, inf or a value "
                               "of 1e17 or more in size")
        cells[:, integer] = whole
        self.cells, self.integer, self.blank = cells, integer, blank

    def _tuples(self, block):
        cells = block.astype(object)
        cells[:, self.integer] = block[:, self.integer].astype(int)
        cells[np.isnan(block) & self.blank] = None
        return list(map(tuple, cells.tolist()))

    def __len__(self):
        return len(self.cells)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._tuples(self.cells[index])
        return self._tuples(self.cells[operator.index(index)][None])[0]

    def __iter__(self):
        # a block at a time, so iterating holds few tuples at once
        for start in range(0, len(self.cells), 1024):
            yield from self._tuples(self.cells[start:start + 1024])

    def __eq__(self, other):
        if not isinstance(other, (list, _Rows)):
            return NotImplemented
        return list(self) == list(other)


# Most rows one kernel call of _sweep holds. A call takes whole points of
# the outer axes, or part of one point's swept axis if that alone is
# longer. The table the calls fill holds 8 bytes a cell. At
# cli.MAX_POINTS, peak RSS beyond the import's 30 MiB and the table is a
# few MiB: 75 MiB for the contour's 50 calls of 4000 rows, 75 MiB for
# qutrit-two-bath and qutrit-meas and 85 MiB for xxz --protocol meas in
# 49 calls (106, 113 and 142 MiB as one call each; ru_maxrss, 2-vCPU
# x86-64 host).
_SWEEP_ROWS = 4096


def _sweep(meta, Bi, Bf, beta_c, axes, kind, strokes) -> SweepTable:
    """The loop all sweeps share: one cycle kernel call for the whole grid,
    or one per at most _SWEEP_ROWS rows of it, each filling its rows of
    one float64 table allocated first.

    axes: (column, meta prefix, SweepRange) per axis; the last, which runs
    fastest, sets the coupling of kind its column names (others stay 0).
    strokes(points) gives the stroke 3 of a group of points of the
    outer axes, an array (points, outer axes), in one call: the hot bath
    of every point, a BathSpec, or one measurement per point as a Kraus
    stack (points, r, d, d), checked by channels._check_kraus. The kernel
    runs each point's rows as one block under its measurement, in one
    call or, for a swept axis longer than _SWEEP_ROWS, in several.
    """
    Bi, Bf = _check_fields(Bi, Bf)
    *outer, (swept, _, grid) = axes
    table = _KINDS[kind]
    extra = ("q1_plus_q2",) if np.count_nonzero(table.idle) > 1 else ()
    header = (*(column for column, _, _ in outer), swept, "Qh", "Qc", "W",
              "eta_raw", "eta0", "engine_mode", "crossing", *extra,
              *(f"{prefix}_{label}"
                for prefix in ("q_h", "q_c", "dp", "p_cold", "p_post")
                for label in table.labels))
    count = math.prod(r.steps for _, _, r in axes)
    cells = _empty(f"a sweep of {count} rows", (count, len(header)))
    integer = np.array([c in ("engine_mode", "crossing") for c in header])
    blank = np.array([c == "eta_raw" for c in header])
    points = itertools.product(*(r.values().tolist() for _, _, r in outer))
    cs = grid.values()
    step = min(math.prod(r.steps for _, _, r in outer),
               max(1, _SWEEP_ROWS // len(cs)))
    part = min(len(cs), _SWEEP_ROWS)
    couplings = np.zeros((step * part, len(table.couplings)))
    swept_column = couplings[:, table.couplings.index(swept)]
    cold = BathSpec(beta_c)
    done, cooled = 0, 0
    while chunk := list(itertools.islice(points, step)):
        coords = np.array(chunk)
        stroke = strokes(coords)
        for first in range(0, len(cs), part):
            values = cs[first:first + part]
            n = len(chunk) * len(values)
            swept_column[:n] = np.tile(values, len(chunk))
            batch = _run_cycles(table, couplings[:n], Bi, Bf, cold, stroke)
            if isinstance(stroke, np.ndarray):
                cooled += int(np.count_nonzero(batch.Qh < 0.0))
            rows = cells[done:done + n]
            grid_rows = rows.reshape(len(chunk), len(values), len(header))
            grid_rows[:, :, :len(outer)] = coords[:, None]
            grid_rows[:, :, len(outer)] = values
            columns = [batch.Qh, batch.Qc, batch.W, batch.eta_raw,
                       batch.eta0, batch.engine_mode, batch.crossing]
            if extra:
                columns.append(level_sum(batch.flux_hot.T[table.idle]))
            for per_level in (batch.flux_hot, batch.flux_cold,
                              batch.delta_p, batch.p_cold, batch.p_hot):
                columns += list(per_level.T)
            for k, column in enumerate(columns, len(outer) + 1):
                rows[:, k] = column
            done += n
    _warn_cooling(cooled, count)
    meta = dict(meta, bi=Bi, bf=Bf, beta_c=cold.beta)
    for _, prefix, r in axes:
        meta.update({f"{prefix}_min": r.start, f"{prefix}_max": r.stop,
                     f"{prefix}_steps": r.steps})
    return SweepTable(header=header, rows=_Rows(cells, integer, blank),
                      meta=meta)


def sweep_qutrit_two_bath(Bi: float, Bf: float, beta_c: float, beta_h: float,
                          j_range: SweepRange) -> SweepTable:
    """One row per J for the thermally driven qutrit cycle."""
    _require("j_range", j_range, SweepRange)
    hot = BathSpec(beta_h)
    return _sweep({"command": "qutrit-two-bath", "beta_h": hot.beta},
                  Bi, Bf, beta_c, [("J", "j", j_range)], SubstanceKind.QUTRIT,
                  lambda points: hot)


def sweep_qutrit_measurement(Bi: float, Bf: float, beta_c: float,
                             angles: Su3Angles,
                             j_range: SweepRange) -> SweepTable:
    """One row per J for the measurement-driven qutrit cycle."""
    _require("angles", angles, Su3Angles)
    return _fixed_angle_sweep("qutrit-meas", Bi, Bf, beta_c, angles, j_range)


def _fixed_angle_sweep(command, Bi, Bf, beta_c, angles: Su3Angles,
                       j_range: SweepRange) -> SweepTable:
    """One row per J of the qutrit measured at angles, named in .meta."""
    _require("j_range", j_range, SweepRange)
    named = dict(zip(angles._fields, angles._values()))
    return _sweep({"command": command, **named}, Bi, Bf, beta_c,
                  [("J", "j", j_range)], SubstanceKind.QUTRIT,
                  lambda points: _su3_kraus(*named.values()))


def _choice(name, value, choices):
    """OttoSimError unless value is text and one of choices."""
    if not (isinstance(value, str) and value in choices):
        raise OttoSimError(f"{name} must be one of {choices}, got {value!r}")


CONTOUR_MODES = ("theta-phi", "theta-phi-chi")


def sweep_qutrit_contour(Bi: float, Bf: float, beta_c: float, mode: str,
                         theta_range: SweepRange,
                         j_range: SweepRange) -> SweepTable:
    """Grid of measurement cycles over (theta, J).

    mode "theta-phi" sets theta = phi with chi = psi = pi/2;
    mode "theta-phi-chi" also ties chi to theta, with psi = pi/2.
    """
    _choice("mode", mode, CONTOUR_MODES)
    _require("theta_range", theta_range, SweepRange)
    _require("j_range", j_range, SweepRange)
    half_pi = 0.5 * np.pi
    tie_chi = mode == "theta-phi-chi"
    return _sweep({"command": "qutrit-contour", "mode": mode}, Bi, Bf, beta_c,
                  [("theta", "theta", theta_range), ("J", "j", j_range)],
                  SubstanceKind.QUTRIT,
                  lambda points: _su3_kraus(
                      points[:, 0], points[:, 0],
                      points[:, 0] if tie_chi else half_pi, half_pi))


EXTREME_ANGLES = Su3Angles(theta=0.75 * np.pi, phi=0.75 * np.pi,
                           chi=0.5 * np.pi, psi=0.5 * np.pi)


def sweep_qutrit_extreme(Bi: float, Bf: float, beta_c: float,
                         j_range: SweepRange) -> SweepTable:
    """Measurement sweep at the fixed high-efficiency angle set.

    This family leaves the +B population untouched and equalizes the two
    lowest levels, trading vanishing work for efficiency near 1.
    """
    return _fixed_angle_sweep("qutrit-extreme", Bi, Bf, beta_c,
                              EXTREME_ANGLES, j_range)


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
    _choice("model", model, XXZ_MODELS)
    _choice("protocol", protocol, XXZ_PROTOCOLS)
    _require("coupling_range", coupling_range, SweepRange)
    meta = {"command": "xxz", "model": model, "protocol": protocol}
    if protocol == "two-bath":
        if beta_h is None:
            raise OttoSimError("two-bath protocol needs beta_h")
        hot = BathSpec(beta_h)
        meta["beta_h"] = hot.beta
        proto = lambda points: hot
    else:
        if n is None or m is None:
            raise OttoSimError("measurement protocol needs directions n and m")
        _require("n", n, SpinDirection)
        _require("m", m, SpinDirection)
        # built in _sweep, once the table is allocated
        proto = lambda points: _spin_kraus(n, m)
        meta["n"] = f"{n.nx},{n.ny},{n.nz}"
        meta["m"] = f"{m.nx},{m.ny},{m.nz}"
    swept = "Jxy" if model == "xx" else "Jz"
    return _sweep(meta, Bi, Bf, beta_c, [(swept, "j", coupling_range)],
                  SubstanceKind.XXZ, proto)


def format_value(v) -> str:
    """CSV cell: blank for None, %d for integers (bools too), else %.17g."""
    if v is None:
        return ""
    return ("%d" if issubclass(type(v), (int, np.integer)) else "%.17g") % (v,)


@contextlib.contextmanager
def _replacing(*paths):
    """Binary files that replace paths only once all are written and closed.

    Each target is a path with its symlinks resolved, so a link keeps
    pointing where it did. A target must be absent or a regular file, or
    OSError names it before any temp exists. Each temp is a new file next
    to its target, created by open() as a plain write would create it; an
    OSError from creating one names its target, not the temp. If anything
    fails first, every temp is removed and no target changes.
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
                try:
                    files.append(stack.enter_context(open(temp, "xb")))
                except OSError as exc:
                    exc.filename = path
                    raise
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


# Cells write_csv writes at a time, in whole rows. Their 32-byte slots,
# 115,201 bytes with the last line break, stay below glibc's 128 KiB mmap
# threshold; the arrays peak at about 90 bytes a cell. Between perfbench's
# output checks the timed calls fault 0 pages at 3,600 and 7,200 cells,
# and 7,200 reads 9% more thermal-sweep points_per_s; in a plain loop they
# fault 0-414 pages a pass at 3,600 and 497-3,152 at 7,200, and take
# 18-20% longer at 7,200. So perfbench alone must not set the size
# (2-vCPU x86-64 host, numpy 2.4). With block_text's fixed cost a block
# cut by about a third, a plain loop still splits: meas-grid passes take
# 12% longer at 7,200 (1,294 faults a pass against 7), thermal-sweep
# passes 3% less.
_CSV_CELLS = 3600


def write_csv(path: str | os.PathLike, table: SweepTable) -> None:
    """Write the table as UTF-8 CSV with Unix newlines, plus a .meta sidecar.

    Output is byte-identical for identical parameters: full-precision
    floats, deterministic row order, no timestamps. Both files replace
    any earlier output only once both are fully written. Each cell is the
    text format_value gives it: a sweep's rows, a view of its float64
    cells, are written whole by text.block_text _CSV_CELLS cells at a
    time; any other rows go row by row through format_value. The .meta
    sidecar has one key=value line per key, in sorted order: a text value
    as it is, any other through format_value.

    OttoSimError, with no file left or changed, for a path that is not a
    non-empty str (or os.PathLike of one), a table that is not a
    SweepTable, a header that is not a tuple or list of text names
    without "," or line breaks, a sweep's rows of another width than the
    header, meta that is not a mapping, a .meta key that is not text or
    holds "=" or a line break, a text value holding a line break or a
    value format_value cannot write, rows or a row that are not iterable,
    or a cell that is not a number or None (naming its row and column).
    """
    path = os.fspath(path) if isinstance(path, os.PathLike) else path
    if not (isinstance(path, str) and path):
        raise OttoSimError(f"path must be a non-empty file name, got {path!r}")
    if not isinstance(table, SweepTable):
        raise OttoSimError("table must be a SweepTable, got a "
                           f"{type(table).__name__}")
    header, rows, meta = table.header, table.rows, table.meta
    try:
        # a name that is not text fails the join
        names = "".join(header) if isinstance(header, (tuple, list)) else None
    except TypeError:
        names = None
    if names is None or "," in names or "\r" in names or "\n" in names:
        raise OttoSimError("table.header must be text names without ',' or "
                           f"line breaks, got {header!r}")
    if not isinstance(meta, Mapping):
        raise OttoSimError("table.meta must be a mapping, got a "
                           f"{type(meta).__name__}")
    for key in meta:
        if not isinstance(key, str):
            raise OttoSimError(f"meta key {key!r} is not text")
    if not isinstance(rows, Iterable):
        raise OttoSimError(f"table.rows must be rows, got {rows!r}")
    if isinstance(rows, _Rows) and rows.cells.shape[1] != len(header):
        raise OttoSimError(f"table.rows has {rows.cells.shape[1]} columns, "
                           f"table.header {len(header)}")
    meta_text = "".join(_meta_line(key, value)
                        for key, value in sorted(meta.items()))
    with _replacing(path, path + ".meta") as (f, meta_file):
        f.write((",".join(header) + "\n").encode())
        if isinstance(rows, _Rows):
            step = max(1, _CSV_CELLS // max(1, rows.cells.shape[1]))
            for first in range(0, len(rows), step):
                f.write(block_text(rows.cells[first:first + step],
                                   rows.blank))
        else:
            for r, row in enumerate(rows):
                f.write(_line(header, r, row))
        meta_file.write(meta_text.encode())


def _line(header, r, row) -> bytes:
    """The CSV line of table.rows[r], each cell as format_value writes it
    (an empty row is a line break alone). OttoSimError names a row that
    is not iterable, or a cell format_value cannot write."""
    if not isinstance(row, Iterable):
        raise OttoSimError(f"table.rows[{r}] is not a row of cells: {row!r}")
    texts = []
    for column, value in enumerate(row):
        try:
            texts.append(format_value(value))
        except (TypeError, OverflowError) as exc:
            name = header[column] if column < len(header) else column
            raise OttoSimError(f"table.rows[{r}], column {name!r}: cannot "
                               f"write a {type(value).__name__} as a "
                               f"number: {exc}") from None
    return (",".join(texts) + "\n").encode()


def _meta_line(key, value) -> str:
    """The .meta line key=value; OttoSimError if it would not read back."""
    if "=" in key or "\r" in key or "\n" in key:
        raise OttoSimError(f"meta key {key!r} holds '=' or a line break")
    if isinstance(value, str):
        if "\r" in value or "\n" in value:
            raise OttoSimError(f"meta {key!r}: {value!r} holds a line break")
        return f"{key}={value}\n"
    try:
        return f"{key}={format_value(value)}\n"
    except (TypeError, OverflowError) as exc:
        raise OttoSimError(f"meta {key!r}: cannot write a "
                           f"{type(value).__name__} as a number: {exc}"
                           ) from None
