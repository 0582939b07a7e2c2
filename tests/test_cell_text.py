"""write_csv against format_value, the one cell rule, on cells chosen to
break the block text kernel. A sweep's rows, a view of its float64 cells,
go through text.block_text (_check_view); any other rows go row by row
through format_value (_check). Either way every cell must be
format_value's text of the value the row holds."""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import ottosim as o
from ottosim import cli, sweeps, text


def _check(tmp_path, rows, header=("a", "b", "c")):
    """Write rows and compare the CSV with format_value cell by cell."""
    path = tmp_path / "cells.csv"
    o.write_csv(str(path), o.SweepTable(tuple(header), rows, {}))
    return _compare(path, header, rows)


def _compare(path, header, rows):
    """The CSV text at path, once it is checked to be format_value's text
    of each cell of rows, under header."""
    want = ",".join(header) + "\n" + "".join(
        ",".join(map(o.format_value, row)) + "\n" for row in rows)
    got = path.read_bytes()
    if got != want.encode():
        lines = zip(got.decode().splitlines(), want.splitlines())
        bad = next((g, w) for g, w in lines if g != w)
        pytest.fail(f"written {bad[0]!r}, format_value gives {bad[1]!r}")
    return got.decode()


def _check_view(tmp_path, values, integer=False, width=7):
    """Write values, floats or (if integer) integral floats, as a sweep
    writes its cells: from a _Rows view of a float64 table, width columns
    of values (the last row padded with NaN), then an integer column (the
    row index) and a blank one. Compare the CSV with format_value of each
    cell of the rows the view gives, and return the CSV text."""
    values = np.asarray(values, dtype=float)
    n = -(-len(values) // width)
    padded = np.full(n * width, np.nan)
    padded[:len(values)] = values
    cells = np.full((n, width + 2), np.nan)
    cells[:, :width] = padded.reshape(n, width)
    cells[:, width] = np.arange(n)
    rows = sweeps._Rows(cells, np.r_[np.full(width, integer), True, False],
                        np.r_[np.zeros(width + 1, bool), True])
    header = tuple(f"c{k}" for k in range(width + 2))
    path = tmp_path / "view.csv"
    o.write_csv(str(path), o.SweepTable(header, rows, {}))
    assert rows.cells is cells  # integer columns made whole in place
    return _compare(path, header, rows)


def _rows(values, width=7):
    values = list(values)
    return [values[i:i + width] for i in range(0, len(values), width)]


def _steps(x, count):
    """x and the count floats on either side of it."""
    out, down, up = [x], x, x
    for _ in range(count):
        down = math.nextafter(down, -math.inf)
        up = math.nextafter(up, math.inf)
        out += [down, up]
    return out


def test_powers_of_ten_and_their_neighbours(tmp_path):
    # the nearest doubles of 1e-6 and 1e-7 lie below the power: an
    # exponent read off the rounded digits would print 1e-06 and 1e-07
    cells = [s * y for k in range(-30, 31) for y in _steps(float(f"1e{k}"), 3)
             for s in (1, -1)]
    _check_view(tmp_path, cells)
    line = _check_view(tmp_path, [1e-6, 1e-7, -1e-6], width=3).splitlines()[1]
    assert line == "9.9999999999999995e-07,9.9999999999999995e-08," \
                   "-9.9999999999999995e-07,0,"


def test_ties_round_half_to_even(tmp_path):
    # 2**51 - 0.25 has 18 significant digits and ends in 5, beyond the
    # kernel's decimal exponents; 2**-25 and 3 * 2**-25 too, inside them
    cells = [2251799813685247.75, -2251799813685247.75, 2251799813685246.25,
             2 ** -25, -3 * 2 ** -25]
    line = _check_view(tmp_path, cells, width=5).splitlines()[1]
    assert line == "2251799813685247.8,-2251799813685247.8," \
                   "2251799813685246.2,2.9802322387695312e-08," \
                   "-8.9406967163085938e-08,0,"


def test_ties_inside_the_kernels_range(tmp_path):
    # N / 2**(17 - X) with N odd has 18 significant digits, the last a 5,
    # for each decimal exponent X where such an N exists
    rng = np.random.default_rng(7)
    cells, up = [], 0
    for X in range(-8, 4):
        f = 17 - X
        low = math.ceil(10.0 ** X * 2 ** f)
        high = int(10.0 ** (X + 1) * 2 ** f)
        for N in rng.integers(low, high, size=50).tolist():
            x = (N | 1) / 2 ** f
            assert len(("%.25e" % x).split("e")[0].rstrip("0")) == 19
            cells.append(x)
            # the 17th digit of the rounded and of the exact text
            up += ("%.16e" % x)[-5] != ("%.17e" % x)[-6]
    assert 0 < up < len(cells)  # half to even goes both ways
    _check_view(tmp_path, cells + [-x for x in cells])


def test_no_float_in_the_kernels_range_rounds_up_to_a_power_of_ten():
    # so the exponent read off the float is the one %.17g prints
    for k in range(text._X_MIN, text._X_MAX + 2):
        power = Fraction(10) ** k
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        assert power - Fraction(below) > Fraction(10) ** (k - 17) / 2
        assert ("%.17e" % below).startswith("9.9999999999999")


def test_zeros_subnormals_and_the_edges_of_the_kernel(tmp_path):
    cells = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 2.2250738585072014e-308,
             1.7976931348623157e308, 2.0 ** 52, 2.0 ** 53, 2.0 ** 53 + 2,
             9007199254740993.0, 0.5, 0.25, 1.0, 100.0, 1234.5, 9999.5]
    for edge in (1e-11, 1e-10, 1e-5, 1e-4, 1e-3, 1.0, 10.0, 1e3, 1e4, 1e5,
                 1e16, 1e17):
        cells += _steps(edge, 4)
    cells += [-x for x in cells]
    _check_view(tmp_path, cells)


def test_ints_as_integral_floats_below_2_to_the_53(tmp_path):
    # a view makes its integer columns integral floats, truncated as its
    # tuples' ints are and with no -0.0; block_text writes them as
    # %.17g, which below 10**17 is the %d format_value gives the view's
    # ints (10**17 - 16 is the last float below 10**17)
    rng = np.random.default_rng(53)
    cells = [0, 1, 7, 10, 99, 100, 9999, 10 ** 4, 2 ** 31, 2 ** 32 + 1,
             10 ** 15, 2 ** 53 - 1, 10 ** 16, 10 ** 17 - 16]
    # and values a hand-built view may hold; with 7 * 293 values before
    # their negatives, no NaN pads the last row of _check_view
    cells += [-0.0, 0.5, -0.5, 1.5, 2.5, 9999.5, 10 ** 4 + 0.5]
    cells += [10 ** k + d for k in range(1, 16) for d in (-1, 1)]
    cells += rng.integers(-2 ** 53 + 1, 2 ** 53, size=2000).tolist()
    cells += [-v for v in cells]
    _check_view(tmp_path, cells, integer=True)
    # an integer cell %.17g would not write as %d is refused, with no
    # numpy warning, and leaves the cells as they were
    for bad in (math.nan, math.inf, -math.inf, 2.0 ** 63, 1e17, -1e17):
        cells = np.array([[1.0, 0.5], [bad, 2.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(o.OttoSimError, match="integer column"):
                sweeps._Rows(cells, np.array([True, False]),
                             np.array([False, False]))
        assert cells[0, 0] == 1.0 and cells[1, 1] == 2.5


def test_ints_and_bools_at_their_edges(tmp_path):
    cells = [0, 1, -1, 7, 10, 100, 10 ** 16, 10 ** 17 - 1, 10 ** 17,
             10 ** 17 + 1, 2 ** 53 + 1, 2 ** 63 - 1, 2 ** 63, 2 ** 64,
             10 ** 30, True, False]
    cells += [-v for v in cells] + [-2 ** 63, -2 ** 63 - 1]
    _check(tmp_path, _rows(cells, 5))


def test_ragged_rows_empty_rows_and_no_rows(tmp_path):
    rows = [[1.5], [], [0.25, 2, None, 3.0], [None], [], [1e-9, -7]]
    text_ = _check(tmp_path, rows)
    assert text_ == "a,b,c\n1.5\n\n0.25,2,,3\n\n\n1.0000000000000001e-09,-7\n"
    assert _check(tmp_path, [], header=("a", "b")) == "a,b\n"
    # a row given as an iterator is read once, as before
    path = tmp_path / "iter.csv"
    o.write_csv(str(path), o.SweepTable(("a", "b"), [iter([0.5, 1])], {}))
    assert path.read_text() == "a,b\n0.5,1\n"


def test_a_column_that_mixes_every_kind_of_cell(tmp_path):
    column = [None, math.nan, math.inf, -math.inf, np.float64(0.1),
              np.float64(-2.5e-7), Decimal("0.1"), Decimal(-7),
              Fraction(1, 3), np.int64(-5), np.uint64(2 ** 63),
              np.float32(0.1), np.bool_(True), 0.1, 3, True]
    rows = [[v, 0.5 * i, i] for i, v in enumerate(column)]
    _check(tmp_path, rows)


def test_random_bit_patterns(tmp_path):
    # 10**6 doubles: half any bit pattern (mostly outside the kernel's
    # decimal exponents, so they take printf's text), half with biased
    # exponents that cover the kernel's range and a little beyond
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    exponents = rng.integers(1023 - 42, 1023 + 17, size=5 * 10 ** 5)
    bits[::2] = (bits[::2] & np.uint64(0x800F_FFFF_FFFF_FFFF)) \
        | (exponents.astype(np.uint64) << np.uint64(52))
    _check_view(tmp_path, bits.view(np.float64), width=10)


def _cli_sweeps():
    """The table of each sweep the CLI runs, at the CLI's defaults: each
    command, both contour modes and the four xxz models and protocols."""
    variants = [("qutrit-two-bath", {}), ("qutrit-meas", {}),
                ("qutrit-extreme", {})]
    variants += [("qutrit-contour", {"mode": mode})
                 for mode in sweeps.CONTOUR_MODES]
    variants += [("xxz", {"model": model, "protocol": protocol})
                 for model in sweeps.XXZ_MODELS
                 for protocol in sweeps.XXZ_PROTOCOLS]
    for name, choices in variants:
        values = {opt.dest: None if opt.default is None
                  else opt.conv(opt.default) for opt in cli._COMMANDS[name]}
        yield cli._SWEEPS[name](dict(values, **choices))


def test_sweep_tables_need_no_cell_by_cell_text():
    # every cell of a sweep is a float in the kernel's range, a zero or a
    # blank: none takes printf's text
    tables = [o.sweep_qutrit_two_bath(3, 4, 1, 0.5, o.SweepRange(0, 3, 201)),
              o.sweep_qutrit_contour(3, 4, 1, "theta-phi",
                                     o.SweepRange(0, 3.14, 9),
                                     o.SweepRange(0.2, 2.8, 11))]
    tables += _cli_sweeps()
    assert len(tables) == 11
    for table in tables:
        rows = table.rows
        _, _, ok = text._digits(rows.cells)
        ok |= rows.cells == 0.0
        ok[:, rows.blank] |= np.isnan(rows.cells[:, rows.blank])
        assert ok.all()
        assert np.isin(rows.cells[:, rows.integer], (0.0, 1.0)).all()


def test_a_bad_cell_in_a_later_block_names_its_row(tmp_path):
    rows = [[0.5 * i, i, None] for i in range(3 * o.sweeps._CSV_CELLS)]
    rows[2 * o.sweeps._CSV_CELLS + 5][1] = "x"
    with pytest.raises(o.OttoSimError, match=r"table\.rows\[%d\], column 'b'"
                       % (2 * o.sweeps._CSV_CELLS + 5)):
        o.write_csv(str(tmp_path / "x.csv"), o.SweepTable(("a", "b", "c"),
                                                          rows, {}))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("header", [("a,b", "c"), ("a", "b\nc"),
                                    ("a\r", "b"), ("a", "b,\r\n")],
                         ids=["comma", "newline", "return", "all"])
def test_write_csv_rejects_a_header_that_would_not_read_back(tmp_path,
                                                             header):
    with pytest.raises(o.OttoSimError, match="header"):
        o.write_csv(str(tmp_path / "h.csv"),
                    o.SweepTable(header, [[1.0, 2.0]], {}))
    assert list(tmp_path.iterdir()) == []
