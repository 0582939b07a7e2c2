"""Sweep tables held as float64 columns: the row view a sweep returns, the
column path of write_csv against the row path, the table's memory, and
grids too large to hold."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ottosim as o

BI, BF, BETA_C = 3.0, 4.0, 1.0
ANGLES = o.Su3Angles(0.7 * np.pi, 0.7 * np.pi, 0.5 * np.pi, 0.5 * np.pi)
N, M = o.SpinDirection(0.6, 0.0, 0.8), o.SpinDirection(0.0, 1.0, 0.0)


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", o.MeasurementCoolsWarning)
        return fn(*args, **kwargs)


def _sweeps(j_range, theta_range):
    """Every sweep, by name, over j_range (and theta_range for contours)."""
    out = {
        "two-bath": lambda: o.sweep_qutrit_two_bath(BI, BF, BETA_C, 0.5,
                                                    j_range),
        "meas": lambda: o.sweep_qutrit_measurement(BI, BF, BETA_C, ANGLES,
                                                   j_range),
        "extreme": lambda: o.sweep_qutrit_extreme(BI, BF, BETA_C, j_range),
    }
    for mode in o.sweeps.CONTOUR_MODES:
        out[f"contour-{mode}"] = lambda mode=mode: o.sweep_qutrit_contour(
            BI, BF, BETA_C, mode, theta_range, j_range)
    for model in o.sweeps.XXZ_MODELS:
        out[f"xxz-{model}-two-bath"] = lambda model=model: o.sweep_xxz(
            model, "two-bath", BI, BF, BETA_C, j_range, beta_h=0.5)
        out[f"xxz-{model}-meas"] = lambda model=model: o.sweep_xxz(
            model, "meas", BI, BF, BETA_C, j_range, n=N, m=M)
    return {name: _quiet(make) for name, make in out.items()}


def _no_heat():
    # equal betas: the last rows have Qh == 0, so eta_raw is blank there
    return o.sweep_qutrit_two_bath(3, 4, 1, 1, o.SweepRange(0, 800, 9))


def _csv(tmp_path, name, table):
    path = tmp_path / f"{name}.csv"
    o.write_csv(str(path), table)
    return path.read_bytes() + b"\0" + (tmp_path / f"{name}.csv.meta"
                                        ).read_bytes()


def _row_path(table):
    return o.SweepTable(table.header, list(table.rows), dict(table.meta))


# -- the row view ------------------------------------------------------------

def test_rows_index_like_a_list():
    table = o.sweep_qutrit_contour(BI, BF, BETA_C, "theta-phi",
                                   o.SweepRange(0.0, 3.0, 7),
                                   o.SweepRange(0.2, 2.8, 300))
    rows, listed = table.rows, list(table.rows)
    assert len(rows) == len(listed) == 7 * 300
    assert rows[0] == listed[0] and rows[-1] == listed[-1]
    assert rows[len(rows) - 1] == rows[-1]
    assert rows[-len(rows)] == rows[0]
    for bad in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[bad]
    for cut in (slice(None), slice(3, 9), slice(-5, None), slice(None, None,
                -7), slice(1000, 1100, 3), slice(10, 2), slice(5000, None)):
        assert rows[cut] == listed[cut]
    # row k is the kernel's row at grid point k, as a single-point sweep
    theta, j = rows[1234][:2]
    one = o.sweep_qutrit_contour(BI, BF, BETA_C, "theta-phi",
                                 o.SweepRange(theta, theta, 1),
                                 o.SweepRange(j, j, 1))
    assert one.rows[0] == rows[1234]


def test_iteration_crosses_its_chunks_in_order():
    table = o.sweep_qutrit_two_bath(BI, BF, BETA_C, 0.5,
                                    o.SweepRange(0.0, 3.0, 2500))
    rows = table.rows
    assert list(rows) == [rows[k] for k in range(len(rows))]
    assert [row[0] for row in rows] == o.SweepRange(0.0, 3.0, 2500
                                                   ).values().tolist()


def test_cells_are_python_floats_ints_and_none():
    for table in _sweeps(o.SweepRange(0.2, 2.8, 9),
                         o.SweepRange(0.0, 3.0, 3)).values():
        integer = {table.header.index(c) for c in ("engine_mode", "crossing")}
        for row in table.rows:
            assert type(row) is tuple and len(row) == len(table.header)
            for k, cell in enumerate(row):
                if k in integer:
                    assert type(cell) is int and cell in (0, 1)
                elif cell is not None:
                    assert type(cell) is float


def test_none_exactly_where_eta_raw_is_nan():
    table = _no_heat()
    qh, eta = table.header.index("Qh"), table.header.index("eta_raw")
    blank = [row[eta] is None for row in table.rows]
    assert any(blank) and not all(blank)
    kernel = o.run_cycle_batch(
        [o.SubstanceSpec.qutrit(row[0]) for row in table.rows], 3, 4,
        o.BathSpec(1), o.TwoBath(o.BathSpec(1)))
    assert blank == np.isnan(kernel.eta_raw).tolist()
    assert blank == [row[qh] == 0.0 for row in table.rows]
    assert all(row.count(None) == (row[eta] is None)
               for row in table.rows)


def test_equal_sweeps_compare_equal():
    make = lambda steps: o.sweep_xxz("xx", "two-bath", BI, BF, BETA_C,
                                     o.SweepRange(0.0, 2.0, steps),
                                     beta_h=0.5)
    a, b = make(11), make(11)
    assert a == b and a.rows == b.rows
    assert a.rows == list(b.rows) and list(a.rows) == b.rows
    assert a.rows != make(12).rows
    assert a.rows != make(11).rows[:-1]
    assert a.rows != tuple(a.rows)


def test_rows_are_read_only_and_a_list_of_them_writes_cell_by_cell(
        tmp_path, monkeypatch):
    table = o.sweep_qutrit_two_bath(BI, BF, BETA_C, 0.5,
                                    o.SweepRange(0.2, 2.8, 5))
    cells, before = table.rows.cells, table.rows.cells.copy()
    with pytest.raises(AttributeError):
        table.rows.insert(2, [1.0])
    with pytest.raises(AttributeError):
        table.rows.append([1.0])
    with pytest.raises(TypeError):
        table.rows[0] = [1.0]
    with pytest.raises(TypeError):
        del table.rows[0]
    assert table.rows.cells is cells and np.array_equal(cells, before)
    assert len(table.rows) == 5
    # to edit a sweep's rows, build a table from a list of them
    rows = list(table.rows)
    rows.insert(2, [Fraction(1, 3), 7, None])
    seen = []
    real = o.sweeps.format_value
    monkeypatch.setattr(o.sweeps, "format_value",
                        lambda v: seen.append(v) or real(v))
    o.write_csv(str(tmp_path / "x.csv"),
                o.SweepTable(table.header, rows, table.meta))
    assert Fraction(1, 3) in seen
    lines = (tmp_path / "x.csv").read_text().splitlines()
    assert lines[3] == "0.33333333333333331,7,"
    assert lines[1] == ",".join(map(real, rows[0]))


# -- the column path against the row path -------------------------------------

@pytest.mark.parametrize("limit", [None, 7])
def test_column_path_writes_the_bytes_of_the_row_path(tmp_path, monkeypatch,
                                                      limit):
    if limit is not None:
        # split the grids into kernel calls of a few rows
        monkeypatch.setattr(o.sweeps, "_SWEEP_ROWS", limit)
    tables = _sweeps(o.SweepRange(0.0, 2.95, 160), o.SweepRange(0.0, 3.1, 6))
    tables["no-heat"] = _no_heat()
    for name, table in tables.items():
        assert _csv(tmp_path, name, table) == \
            _csv(tmp_path, name + "-rows", _row_path(table)), name


def test_column_path_writes_cells_outside_the_kernels_range(tmp_path,
                                                            monkeypatch):
    table = o.sweep_qutrit_two_bath(BI, BF, BETA_C, 0.5,
                                    o.SweepRange(0.0, 1e300, 41))
    beyond = [v for row in table.rows for v in row
              if type(v) is float and v != 0.0
              and not 1e-11 <= abs(v) < 1e4]
    # the J column, past 1e4 from its second row
    assert len(beyond) == 40
    seen = []
    real = o.sweeps.format_value
    monkeypatch.setattr(o.sweeps, "format_value",
                        lambda v: seen.append(v) or real(v))
    columns = _csv(tmp_path, "columns", table)
    # block_text writes every cell: format_value sees the .meta values alone
    assert seen == [v for _, v in sorted(table.meta.items())
                    if not isinstance(v, str)]
    assert columns == _csv(tmp_path, "rows", _row_path(table))


# -- memory and size ----------------------------------------------------------

def test_a_contour_fills_one_table_in_place():
    args = (BI, BF, BETA_C, "theta-phi", o.SweepRange(0.0, 3.1, 200),
            o.SweepRange(0.2, 2.8, 250))
    o.sweep_qutrit_contour(*args[:4], o.SweepRange(0.0, 3.1, 2),
                           o.SweepRange(0.2, 2.8, 3))  # warm caches
    tracemalloc.start()
    try:
        table = o.sweep_qutrit_contour(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = 8 * len(table.rows) * len(table.header)
    assert len(table.rows) == 50_000
    assert peak <= 2 * cells


UNALLOCATABLE = [
    ("two-bath", lambda: o.sweep_qutrit_two_bath(
        3, 4, 1, 0.5, o.SweepRange(0, 1, 10 ** 12)), 10 ** 12),
    ("two-bath-1e30", lambda: o.sweep_qutrit_two_bath(
        3, 4, 1, 0.5, o.SweepRange(0, 1, 10 ** 30)), 10 ** 30),
    ("meas", lambda: o.sweep_qutrit_measurement(
        3, 4, 1, ANGLES, o.SweepRange(0, 1, 10 ** 13)), 10 ** 13),
    ("contour", lambda: o.sweep_qutrit_contour(
        3, 4, 1, "theta-phi-chi", o.SweepRange(0, 3, 10 ** 7),
        o.SweepRange(0, 1, 10 ** 7)), 10 ** 14),
    ("extreme", lambda: o.sweep_qutrit_extreme(
        3, 4, 1, o.SweepRange(0, 1, 2 ** 60)), 2 ** 60),
    ("xxz-meas", lambda: o.sweep_xxz(
        "ising", "meas", 3, 4, 1, o.SweepRange(0, 1, 10 ** 12), n=N, m=M),
     10 ** 12),
]


@pytest.mark.parametrize("sweep, rows", [case[1:] for case in UNALLOCATABLE],
                         ids=[case[0] for case in UNALLOCATABLE])
def test_a_grid_too_large_to_hold_raises_before_any_channel(monkeypatch,
                                                            sweep, rows):
    # every grid here needs more than 2**47 bytes, more than a 47-bit
    # address space holds, so the table is never allocated
    assert 8 * 20 * rows > 2 ** 47

    def no_channel(*args):
        raise AssertionError("a channel was built")

    for name in ("_su3_kraus", "_spin_kraus", "_run_cycles"):
        monkeypatch.setattr(o.sweeps, name, no_channel)
    with pytest.raises(o.OttoSimError, match=f"sweep of {rows} rows"):
        sweep()


def test_a_grid_that_fits_still_runs():
    table = o.sweep_qutrit_two_bath(3, 4, 1, 0.5, o.SweepRange(0, 1, 1))
    assert len(table.rows) == 1 and math.isfinite(table.rows[0][2])
