import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # the property test below skips itself without it
    hypothesis = None

import ottosim as o
from helpers import (idle_flux_sum, oracle_boltzmann, oracle_qutrit_cycle,
                     oracle_transfer, two_bath)

BI, BF, BETA_C = 3.0, 4.0, 1.0


def test_sweep_range_values():
    r = o.SweepRange(0.0, 3.0, 4)
    np.testing.assert_allclose(r.values(), [0.0, 1.0, 2.0, 3.0], atol=0)
    single = o.SweepRange(1.5, 1.5, 1)
    np.testing.assert_allclose(single.values(), [1.5], atol=0)


def test_sweep_range_validation():
    with pytest.raises(o.InvalidField):
        o.SweepRange(0.0, 1.0, 0)
    with pytest.raises(o.InvalidField):
        o.SweepRange(2.0, 1.0, 5)
    with pytest.raises(o.InvalidField):
        o.SweepRange(2.0, 1.0, 1)


@pytest.mark.parametrize("start, stop, steps", [
    (0.0, 1.0, 2.5), (0.0, 1.0, 3.0), (0.0, 1.0, "3"), (0.0, 1.0, None),
    (0.0, float("inf"), 5), (float("-inf"), 1.0, 5), (float("nan"), 1.0, 1),
    (0.0, float("nan"), 5), (-1e308, 1e308, 5), ("0", 1.0, 5),
    pytest.param(-10**308, 10**308, 3, id="int-span-beyond-float"),
])
def test_sweep_range_rejects_non_finite_and_non_integral(start, stop, steps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(o.InvalidField):
            o.SweepRange(start, stop, steps)


def test_sweep_range_accepts_numpy_scalars():
    r = o.SweepRange(np.float64(0.0), 2, np.int64(3))
    np.testing.assert_array_equal(r.values(), [0.0, 1.0, 2.0])


def test_two_bath_sweep_rows_match_single_cycles():
    table = o.sweep_qutrit_two_bath(3.0, 4.0, 1.0, 0.5,
                                    o.SweepRange(0.0, 2.0, 5))
    assert table.header[0] == "J"
    assert table.header[1:8] == ("Qh", "Qc", "W", "eta_raw", "eta0",
                                 "engine_mode", "crossing")
    assert len(table.rows) == 5
    for row in (table.rows[0], table.rows[3]):
        rec = two_bath(o.SubstanceSpec.qutrit(row[0]))
        assert row[1] == rec.Qh
        assert row[2] == rec.Qc
        assert row[3] == rec.W
        assert row[4] == rec.eta_raw
    assert table.meta["command"] == "qutrit-two-bath"
    assert table.meta["beta_h"] == 0.5


def test_two_bath_sweep_column_count_matches_header():
    table = o.sweep_qutrit_two_bath(3.0, 4.0, 1.0, 0.5,
                                    o.SweepRange(0.0, 1.0, 2))
    for row in table.rows:
        assert len(row) == len(table.header)
    assert "q_h_+B" in table.header
    assert "p_post_-J" in table.header


def test_measurement_sweep_reference_row():
    angles = o.Su3Angles(0.7 * np.pi, 0.7 * np.pi, 0.5 * np.pi, 0.5 * np.pi)
    table = o.sweep_qutrit_measurement(3.0, 4.0, 1.0, angles,
                                       o.SweepRange(1.0, 1.0, 1))
    assert len(table.rows) == 1
    row = dict(zip(table.header, table.rows[0]))
    assert row["J"] == 1.0
    assert row["engine_mode"] == 1
    assert row["eta_raw"] == pytest.approx(0.315670465570348, abs=1e-12)
    assert table.meta["theta"] == pytest.approx(0.7 * np.pi)


def test_contour_sweep_single_point():
    table = o.sweep_qutrit_contour(3.0, 4.0, 1.0, "theta-phi",
                                   o.SweepRange(0.7 * np.pi, 0.7 * np.pi, 1),
                                   o.SweepRange(1.0, 1.0, 1))
    assert table.header[:2] == ("theta", "J")
    assert len(table.rows) == 1
    row = dict(zip(table.header, table.rows[0]))
    assert row["eta_raw"] == pytest.approx(0.315670465570348, abs=1e-12)


def test_contour_sweep_grid_order_and_modes():
    table = o.sweep_qutrit_contour(3.0, 4.0, 1.0, "theta-phi-chi",
                                   o.SweepRange(0.5, 1.5, 2),
                                   o.SweepRange(0.5, 1.0, 3))
    assert len(table.rows) == 6
    # theta is the outer loop
    assert [r[0] for r in table.rows] == [0.5] * 3 + [1.5] * 3
    assert table.meta["mode"] == "theta-phi-chi"
    # a choice must be text: an empty array or a one-name array is refused
    for bad in ("bogus", np.array([]), np.array(["theta-phi"])):
        with pytest.raises(o.OttoSimError, match="mode must be one of"):
            o.sweep_qutrit_contour(3.0, 4.0, 1.0, bad,
                                   o.SweepRange(0.5, 1.5, 2),
                                   o.SweepRange(0.5, 1.0, 3))


def test_extreme_sweep_properties():
    table = o.sweep_qutrit_extreme(3.0, 4.0, 1.0, o.SweepRange(0.1, 2.9, 8))
    cols = {name: i for i, name in enumerate(table.header)}
    for row in table.rows:
        assert abs(row[cols["dp_+B"]]) <= 1e-10
        assert row[cols["p_post_-B"]] == pytest.approx(row[cols["p_post_-J"]],
                                                       abs=1e-10)
    assert table.meta["command"] == "qutrit-extreme"


def test_xxz_sweep_has_idle_flux_column():
    table = o.sweep_xxz("ising", "meas", 3.0, 4.0, 1.0,
                        o.SweepRange(1.0, 1.0, 1),
                        n=o.SpinDirection.x(), m=o.SpinDirection.z())
    assert table.header[0] == "Jz"
    assert table.header[8] == "q1_plus_q2"
    row = dict(zip(table.header, table.rows[0]))
    assert row["q1_plus_q2"] == pytest.approx(-0.9293267308310077, abs=1e-12)
    assert row["q1_plus_q2"] == pytest.approx(
        row["q_h_2(Jxy-Jz)"] + row["q_h_-2(Jxy+Jz)"], abs=1e-15)
    assert table.meta["n"] == "1.0,0.0,0.0"
    assert "beta_h" not in table.meta


def test_xxz_two_bath_sweep():
    table = o.sweep_xxz("xx", "two-bath", 3.0, 4.0, 1.0,
                        o.SweepRange(1.0, 1.0, 1), beta_h=0.5)
    assert table.header[0] == "Jxy"
    row = dict(zip(table.header, table.rows[0]))
    assert row["eta_raw"] == pytest.approx(0.298045200818923, abs=1e-12)
    assert row["q1_plus_q2"] == pytest.approx(-0.04616432484331369,
                                              abs=1e-12)
    assert table.meta["beta_h"] == 0.5
    assert "n" not in table.meta


def test_xxz_sweep_validation():
    with pytest.raises(o.OttoSimError):
        o.sweep_xxz("heisenberg", "meas", 3.0, 4.0, 1.0,
                    o.SweepRange(1.0, 1.0, 1))
    for model, protocol in [(np.array([]), "two-bath"),
                            (np.array(["xx"]), "two-bath"),
                            ("xx", np.array([])),
                            ("xx", np.array(["two-bath"]))]:
        with pytest.raises(o.OttoSimError, match="must be one of"):
            o.sweep_xxz(model, protocol, 3.0, 4.0, 1.0,
                        o.SweepRange(1.0, 1.0, 1), beta_h=0.5)
    with pytest.raises(o.OttoSimError):
        o.sweep_xxz("xx", "two-bath", 3.0, 4.0, 1.0,
                    o.SweepRange(1.0, 1.0, 1))  # beta_h missing
    with pytest.raises(o.OttoSimError):
        o.sweep_xxz("xx", "meas", 3.0, 4.0, 1.0,
                    o.SweepRange(1.0, 1.0, 1))  # directions missing


def test_format_value():
    assert o.format_value(None) == ""
    assert o.format_value(3) == "3"
    assert o.format_value(0.25) == "0.25"
    x = 0.1 + 0.2
    assert float(o.format_value(x)) == x  # 17 digits round-trip

    def oracle(v):  # the three-branch cell format the CSV bytes were made by
        if v is None:
            return ""
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return f"{float(v):.17g}"

    for v in (None, 3, 0.25, x, True, False, np.int64(-7), np.uint64(2**63),
              10**20, -10**20, -0.0, 5e-324, -2.5e-310, float("nan"),
              float("inf"), float("-inf"), np.float32(0.1), np.float64(1e300),
              np.bool_(True)):
        assert o.format_value(v) == oracle(v), repr(v)


def test_two_bath_row_without_heat(tmp_path):
    # at J = 800 the -J level holds the whole population at both strokes,
    # so no heat flows: eta_raw is undefined and the row is no engine
    table = o.sweep_qutrit_two_bath(3, 4, 1, 1, o.SweepRange(800, 800, 1))
    rec = two_bath(o.SubstanceSpec.qutrit(800), Bi=3, Bf=4, beta_c=1,
                   beta_h=1)
    assert rec.Qh == 0.0 and rec.eta_raw is None and not rec.engine_mode
    row = dict(zip(table.header, table.rows[0]))
    assert row["eta_raw"] is None and row["engine_mode"] == 0
    want = {"Qh": rec.Qh, "Qc": rec.Qc, "W": rec.W, "eta0": rec.eta0}
    for prefix, per_level in (("q_h", rec.per_level_flux_hot),
                              ("q_c", rec.per_level_flux_cold),
                              ("dp", rec.delta_p),
                              ("p_cold", rec.populations_cold),
                              ("p_post", rec.populations_hot)):
        want.update((f"{prefix}_{label}", v) for label, v in per_level.items())
    for column, value in want.items():  # bitwise, the sign of zero included
        assert float(row[column]).hex() == float(value).hex(), column
    path = tmp_path / "no-heat.csv"
    o.write_csv(str(path), table)
    assert path.read_text().splitlines()[1] == (
        "800,0,0,-0,,0.25,0,0,0,-0,-0,-0,0,0,0,0,0,0,0,1,0,0,1")


def test_write_csv_deterministic(tmp_path):
    table = o.sweep_qutrit_two_bath(3.0, 4.0, 1.0, 0.5,
                                    o.SweepRange(0.0, 2.0, 3))
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    o.write_csv(str(a), table)
    o.write_csv(str(b), table)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta").read_bytes() == \
        (tmp_path / "b.csv.meta").read_bytes()
    text = a.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("J,Qh,Qc,W,eta_raw,")
    assert len(lines) == 4
    meta = (tmp_path / "a.csv.meta").read_text().splitlines()
    assert meta == sorted(meta)
    assert any(line.startswith("command=") for line in meta)


def test_write_csv_blank_cell_for_none(tmp_path):
    # undefined ratios (eta_raw when Qh = 0) serialize as empty cells
    table = o.SweepTable(header=("J", "eta_raw"), rows=[[1.0, None]],
                         meta={"command": "demo"})
    path = tmp_path / "blank.csv"
    o.write_csv(str(path), table)
    assert path.read_text().splitlines()[1] == "1,"


def test_write_csv_meta_writes_text_as_is_and_other_values_as_cells(
        tmp_path):
    meta = {"text": "a,b", "none": None, "int": 3, "float": 0.1,
            "bool": True, "numpy": np.float64(2.5)}
    o.write_csv(str(tmp_path / "m.csv"), o.SweepTable(("a",), [[1.0]], meta))
    assert (tmp_path / "m.csv.meta").read_text().splitlines() == [
        "bool=1", "float=0.10000000000000001", "int=3", "none=",
        "numpy=2.5", "text=a,b"]


@pytest.mark.parametrize("meta", [
    {"k": "x\ny=1"}, {"k": "x\r"}, {"k=v": 1.0}, {"k\n": "x"}, {"k": 1j},
    {"k": "ok", "z": [1.0]}, {1: 2, "a": 3}, {1: 2},
], ids=["value-newline", "value-return", "key-equals", "key-newline",
        "complex", "list", "key-types-mixed", "key-int"])
def test_write_csv_rejects_meta_that_would_not_read_back(tmp_path, meta):
    with pytest.raises(o.OttoSimError, match="meta"):
        o.write_csv(str(tmp_path / "m.csv"),
                    o.SweepTable(("a",), [[1.0]], meta))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_write_csv_matches_format_value_per_cell(tmp_path):
    # cell kinds: write_csv writes every row with one % format per row
    # shape, built from format_value's rule; rows mix the first four
    # kinds only, or all of them, None and numpy scalars included
    special = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
               -2.5e-310, 1e300]
    kinds = [st.floats(), st.sampled_from(special),
             st.integers(-10**20, 10**20) | st.sampled_from([10**20, -10**20]),
             st.booleans(), st.none(), st.floats().map(np.float64),
             st.integers(-2**63, 2**63 - 1).map(np.int64),
             st.booleans().map(np.bool_)]

    @st.composite
    def tables(draw):
        # a few row shapes, half of them of bulk-formatted cells only,
        # then rows that repeat and mix those shapes
        shapes = [draw(st.lists(st.sampled_from(pool), max_size=6))
                  for pool in draw(st.lists(
                      st.sampled_from([kinds[:4], kinds]), min_size=2,
                      max_size=4))]
        rows = [[draw(kind) for kind in shape] for shape in
                draw(st.lists(st.sampled_from(shapes), min_size=2,
                              max_size=12))]
        hypothesis.assume(len({tuple(map(type, r)) for r in rows}) > 1)
        return rows

    path = tmp_path / "cells.csv"

    @hypothesis.given(tables())
    def check(rows):
        o.write_csv(str(path), o.SweepTable(header=("a", "b"), rows=rows,
                                            meta={"command": "demo"}))
        want = "a,b\n" + "".join(",".join(map(o.format_value, row)) + "\n"
                                 for row in rows)
        assert path.read_bytes() == want.encode()

    check()


@pytest.mark.parametrize("cell", ["x", 1j, [1.0], Fraction(10**400)],
                         ids=["str", "complex", "list", "huge-Fraction"])
def test_write_csv_rejects_a_cell_that_is_no_number(tmp_path, cell):
    table = o.SweepTable(("a", "b"), [[1.0, 2], [3.0, cell]], {})
    with pytest.raises(o.OttoSimError, match=r"rows\[1\], column 'b'"):
        o.write_csv(str(tmp_path / "x.csv"), table)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("table", [
    o.SweepTable(("a",), [5], {}), o.SweepTable(("a",), None, {}),
    o.SweepTable(("a",), [[1.0]], None), o.SweepTable((1, 2), [[1.0, 2]], {}),
    (("a",), [[1.0]], {}),
], ids=["row-int", "rows-None", "meta-None", "header-ints", "plain-tuple"])
def test_write_csv_rejects_a_malformed_table(tmp_path, table):
    path = tmp_path / "t.csv"
    path.write_bytes(b"OLD")
    with pytest.raises(o.OttoSimError):
        o.write_csv(str(path), table)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert path.read_bytes() == b"OLD"


def test_write_csv_takes_a_path_like(tmp_path):
    table = o.SweepTable(("a", "b"), [[0.5, 1]], {"x": 2})
    o.write_csv(tmp_path / "p.csv", table)
    o.write_csv(str(tmp_path / "s.csv"), table)
    for suffix in ("", ".meta"):
        assert (tmp_path / f"p.csv{suffix}").read_bytes() == \
            (tmp_path / f"s.csv{suffix}").read_bytes()


@pytest.mark.parametrize("path", ["", b"x.csv", 5, None],
                         ids=["empty", "bytes", "int", "None"])
def test_write_csv_rejects_a_path_that_is_no_file_name(tmp_path, monkeypatch,
                                                       path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(o.OttoSimError, match="path"):
        o.write_csv(path, o.SweepTable(("a",), [[1.0]], {}))
    assert list(tmp_path.iterdir()) == []


def test_write_csv_writes_exact_numbers_as_their_floats(tmp_path):
    cells = [Decimal("0.1"), Fraction(1, 3), Decimal(-7), Fraction(10**20)]
    path = tmp_path / "exact.csv"
    o.write_csv(str(path), o.SweepTable(("a", "b", "c", "d"), [cells], {}))
    assert path.read_text() == "a,b,c,d\n" + ",".join(
        "%.17g" % float(v) for v in cells) + "\n"


# Every measurement sweep, at several grid sizes. Each entry gives the
# sweep's name, its table, how many swept columns lead a row, and a map
# from a row to the point it stands for: (substance, coupling, angles).
ANGLES = (2.2, 1.1, 0.3, 2.9)
N_DIR = (0.6, 0.0, 0.8)
M_DIR = (0.0, 1.0, 0.0)


def _qutrit_cfg(J, angles):
    channel = o.su3_projective_channel(o.Su3Angles(*angles))
    return o.CycleConfig(spec=o.SubstanceSpec.qutrit(J), Bi=BI, Bf=BF,
                         cold=o.BathSpec(BETA_C),
                         protocol=o.Measurement(channel))


def _contour_angles(mode, theta):
    chi = theta if mode == "theta-phi-chi" else 0.5 * np.pi
    return (theta, theta, chi, 0.5 * np.pi)


def _measurement_sweeps():
    for steps in (1, 7, 40):
        j_range = o.SweepRange(0.1, 2.9, steps) if steps > 1 else \
            o.SweepRange(1.3, 1.3, 1)
        table = o.sweep_qutrit_measurement(BI, BF, BETA_C,
                                           o.Su3Angles(*ANGLES), j_range)
        yield ("meas", table, 1, lambda row: ("qutrit", row[0], ANGLES))
        table = o.sweep_qutrit_extreme(BI, BF, BETA_C, j_range)
        ext = (0.75 * np.pi, 0.75 * np.pi, 0.5 * np.pi, 0.5 * np.pi)
        yield ("extreme", table, 1, lambda row: ("qutrit", row[0], ext))
        table = o.sweep_xxz("ising", "meas", BI, BF, BETA_C,
                            o.SweepRange(-2.0, 3.0, steps) if steps > 1
                            else o.SweepRange(0.7, 0.7, 1),
                            n=o.SpinDirection(*N_DIR),
                            m=o.SpinDirection(*M_DIR))
        yield ("xxz", table, 1, lambda row: ("ising", row[0], None))
    for mode in o.sweeps.CONTOUR_MODES:
        table = o.sweep_qutrit_contour(BI, BF, BETA_C, mode,
                                       o.SweepRange(0.0, np.pi, 5),
                                       o.SweepRange(0.2, 2.8, 9))
        yield ("contour", table, 2,
               lambda row, mode=mode: ("qutrit", row[1],
                                       _contour_angles(mode, row[0])))


def _point_cycle(point):
    kind, coupling, angles = point
    if kind == "qutrit":
        return o.run_cycle(_qutrit_cfg(coupling, angles))
    channel = o.local_spin_channel(o.SpinDirection(*N_DIR),
                                   o.SpinDirection(*M_DIR))
    return o.run_cycle(o.CycleConfig(
        spec=o.SubstanceSpec.xxz(Jxy=0.0, Jz=coupling), Bi=BI, Bf=BF,
        cold=o.BathSpec(BETA_C), protocol=o.Measurement(channel)))


def _record_row(lead, rec, idle_column):
    vals = list(lead) + [rec.Qh, rec.Qc, rec.W, rec.eta_raw, rec.eta0,
                         int(rec.engine_mode), int(rec.crossing_warning)]
    if idle_column:
        vals.append(idle_flux_sum(rec))
    for field in (rec.per_level_flux_hot, rec.per_level_flux_cold,
                  rec.delta_p, rec.populations_cold, rec.populations_hot):
        vals.extend(field[label] for label in rec.labels)
    return vals


def _bits(row):
    return [v.hex() if isinstance(v, float) else v for v in row]


def test_measurement_sweep_rows_are_bitwise_single_cycles():
    # Rows cannot depend on the grid they were computed in: each equals
    # run_cycle (a batch of one) at its point, down to the sign of zero.
    checked = 0
    for name, table, lead, point in _measurement_sweeps():
        for row in table.rows:
            rec = _point_cycle(point(row))
            expected = _record_row(row[:lead], rec, name == "xxz")
            assert _bits(row) == _bits(expected), (name, row[:lead])
            checked += 1
    assert checked == 3 * (1 + 7 + 40) + 2 * 45


QUTRIT_BASIS = [np.array([1, 1, 0]) / np.sqrt(2),
                np.array([-1, 1, 0]) / np.sqrt(2),
                np.array([0, 0, 1.0])]
XXZ_BASIS = [np.array([1, 0, 0, 0.0]), np.array([0, 1, 1, 0]) / np.sqrt(2),
             np.array([0, 1, -1, 0]) / np.sqrt(2), np.array([0, 0, 0, 1.0])]


def _spin_projectors(n):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ndots = n[0] * sx + n[1] * sy + n[2] * sz
    return [(np.eye(2) + ndots) / 2, (np.eye(2) - ndots) / 2]


def _oracle_row(point):
    """Energies at Bi and Bf, populations before and after stroke 3."""
    kind, c, angles = point
    if kind == "qutrit":
        ei = np.array([BI, -BI, -c])
        ef = np.array([BF, -BF, -c])
        kraus = o.su3_projective_channel(o.Su3Angles(*angles)).operators
        basis = QUTRIT_BASIS
    else:
        ei = np.array([2 * BI, -2 * c, -2 * c, -2 * BI])
        ef = np.array([2 * BF, -2 * c, -2 * c, -2 * BF])
        kraus = [np.kron(a, b) for a in _spin_projectors(N_DIR)
                 for b in _spin_projectors(M_DIR)]
        basis = XXZ_BASIS
    p_cold = oracle_boltzmann(ei, BETA_C)
    p_hot = oracle_transfer(kraus, basis) @ p_cold
    return ei, ef, p_cold, p_hot


def _close(a, b, rel=1e-13):
    return abs(a - b) <= rel * max(1.0, abs(b))


def test_measurement_sweep_rows_match_independent_routes():
    for name, table, lead, point in _measurement_sweeps():
        col = {h: i for i, h in enumerate(table.header)}
        for row in table.rows:
            pt = point(row)
            ei, ef, p_cold, p_hot = _oracle_row(pt)
            labels = [h[len("p_post_"):] for h in table.header
                      if h.startswith("p_post_")]
            dp = p_hot - p_cold
            for k, label in enumerate(labels):
                assert _close(row[col["p_cold_" + label]], p_cold[k])
                assert _close(row[col["p_post_" + label]], p_hot[k])
                assert _close(row[col["dp_" + label]], dp[k])
                assert _close(row[col["q_h_" + label]], ef[k] * dp[k])
                assert _close(row[col["q_c_" + label]], -ei[k] * dp[k])
            qh = float(ef @ dp)
            qc = float(-ei @ dp)
            assert _close(row[col["Qh"]], qh)
            assert _close(row[col["Qc"]], qc)
            assert _close(row[col["W"]], -(qh + qc))
            if pt[0] == "qutrit":
                # explicit 3x3 operators, Gibbs states and traces
                oqh, oqc, ow = oracle_qutrit_cycle(pt[1], BI, BF, BETA_C,
                                                   angles=pt[2])
                assert _close(row[col["Qh"]], oqh), (name, row[:lead])
                assert _close(row[col["Qc"]], oqc), (name, row[:lead])
                assert _close(row[col["W"]], ow), (name, row[:lead])
            else:
                assert _close(row[col["q1_plus_q2"]],
                              ef[1] * dp[1] + ef[2] * dp[2])


def test_two_bath_sweep_rows_are_bitwise_single_cycles():
    table = o.sweep_qutrit_two_bath(BI, BF, BETA_C, 0.5,
                                    o.SweepRange(-1.0, 5.0, 31))
    for row in table.rows:
        rec = two_bath(o.SubstanceSpec.qutrit(row[0]))
        assert _bits(row) == _bits(_record_row(row[:1], rec, False))
    table = o.sweep_xxz("xx", "two-bath", BI, BF, BETA_C,
                        o.SweepRange(-2.0, 3.0, 21), beta_h=0.5)
    for row in table.rows:
        rec = two_bath(o.SubstanceSpec.xxz(Jxy=row[0], Jz=0.0))
        assert _bits(row) == _bits(_record_row(row[:1], rec, True))


def test_channel_built_once_per_sweep_or_theta(monkeypatch):
    # one stacked build per kernel call, with the exact angles of each theta
    built = []
    real = o.sweeps._su3_kraus

    def counted(*angles):
        arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float)
                                       for a in angles))
        built.append(list(zip(*(a.reshape(-1).tolist() for a in arrays))))
        return real(*angles)

    monkeypatch.setattr(o.sweeps, "_su3_kraus", counted)
    o.sweep_qutrit_measurement(BI, BF, BETA_C, o.EXTREME_ANGLES,
                               o.SweepRange(0.2, 2.8, 6))
    a = o.EXTREME_ANGLES
    assert built == [[(a.theta, a.phi, a.chi, a.psi)]]
    built.clear()
    table = o.sweep_qutrit_contour(BI, BF, BETA_C, "theta-phi-chi",
                                   o.SweepRange(0.0, np.pi, 4),
                                   o.SweepRange(0.2, 2.8, 5))
    assert len(table.rows) == 20
    assert built == [[(t, t, t, 0.5 * np.pi)
                      for t in np.linspace(0.0, np.pi, 4).tolist()]]


def test_measurement_sweeps_build_no_record_per_point(monkeypatch):
    # each sweep hands the kernel one checked Kraus stack
    built = []
    for cls in (o.KrausChannel, o.Measurement):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, real=real: built.append(
                                type(self).__name__) or real(self))
    for mode in o.sweeps.CONTOUR_MODES:
        o.sweep_qutrit_contour(BI, BF, BETA_C, mode,
                               o.SweepRange(0.0, np.pi, 41),
                               o.SweepRange(0.2, 2.8, 27))
    o.sweep_qutrit_measurement(BI, BF, BETA_C, o.EXTREME_ANGLES,
                               o.SweepRange(0.2, 2.8, 6))
    o.sweep_qutrit_extreme(BI, BF, BETA_C, o.SweepRange(0.2, 2.8, 6))
    o.sweep_xxz("ising", "meas", BI, BF, BETA_C, o.SweepRange(0.1, 2.0, 40),
                n=o.SpinDirection(*N_DIR), m=o.SpinDirection(*M_DIR))
    assert built == []
    # the count sees a record when one is built
    o.Measurement(o.local_spin_channel(o.SpinDirection(*N_DIR),
                                       o.SpinDirection(*M_DIR)))
    assert built == ["KrausChannel", "Measurement"]


def _counting_kernel(monkeypatch):
    """Replace the sweeps' cycle kernel by a wrapper; returns its call log
    (the row count of each call)."""
    calls = []
    real = o.sweeps._run_cycles

    def counted(kind, couplings, *args):
        calls.append(len(couplings))
        return real(kind, couplings, *args)

    monkeypatch.setattr(o.sweeps, "_run_cycles", counted)
    return calls


def test_contour_is_one_kernel_call_at_benchmark_size(monkeypatch):
    calls = _counting_kernel(monkeypatch)
    for mode in o.sweeps.CONTOUR_MODES:
        table = o.sweep_qutrit_contour(BI, BF, BETA_C, mode,
                                       o.SweepRange(0.0, np.pi, 41),
                                       o.SweepRange(0.2, 2.8, 27))
        assert len(table.rows) == 41 * 27
    assert calls == [41 * 27] * 2


# A contour whose J range crosses Bi = 2.5: 5 of its 20 rows cool, spread
# over two values of theta.
COOLING_CONTOUR = (2.5, 4.0, 1.0, "theta-phi", o.SweepRange(2.0, 2.6, 5),
                   o.SweepRange(2.4, 3.0, 4))


@pytest.mark.parametrize("limit", [None, 8, 1],
                         ids=["one-call", "two-thetas-per-call", "row-limit-1"])
def test_cooling_contour_warns_once_with_the_grid_count(monkeypatch, limit):
    if limit is not None:
        monkeypatch.setattr(o.sweeps, "_SWEEP_ROWS", limit)
    with pytest.warns(o.MeasurementCoolsWarning) as caught:
        table = o.sweep_qutrit_contour(*COOLING_CONTOUR)
    qh = table.header.index("Qh")
    cooling = [row[0] for row in table.rows if row[qh] < 0.0]
    assert sorted(set(cooling)) == [2.3, 2.45]
    assert [str(w.message) for w in caught] == [
        f"measurement stroke removed energy (Qh < 0) in {len(cooling)} of "
        f"20 cycles"]


def test_grid_beyond_the_row_limit_gives_the_bytes_of_one_call(
        monkeypatch, tmp_path):
    # 160 x 27 = 4320 rows: two kernel calls of whole thetas
    args = (BI, BF, BETA_C, "theta-phi-chi", o.SweepRange(0.0, np.pi, 160),
            o.SweepRange(0.2, 2.8, 27))
    calls = _counting_kernel(monkeypatch)
    o.write_csv(str(tmp_path / "split.csv"), o.sweep_qutrit_contour(*args))
    assert calls == [151 * 27, 9 * 27]
    calls.clear()
    monkeypatch.setattr(o.sweeps, "_SWEEP_ROWS", 160 * 27)
    o.write_csv(str(tmp_path / "one.csv"), o.sweep_qutrit_contour(*args))
    assert calls == [160 * 27]
    for suffix in ("", ".meta"):
        assert (tmp_path / f"split.csv{suffix}").read_bytes() == \
            (tmp_path / f"one.csv{suffix}").read_bytes()


def test_swept_axis_beyond_the_row_limit_is_split_at_the_limit(monkeypatch):
    monkeypatch.setattr(o.sweeps, "_SWEEP_ROWS", 3)
    calls = _counting_kernel(monkeypatch)
    split = o.sweep_qutrit_contour(BI, BF, BETA_C, "theta-phi",
                                   o.SweepRange(0.0, np.pi, 3),
                                   o.SweepRange(0.2, 2.8, 5))
    line = o.sweep_qutrit_two_bath(BI, BF, BETA_C, 0.5,
                                   o.SweepRange(0.2, 2.8, 5))
    assert calls == [3, 2, 3, 2, 3, 2, 3, 2]
    monkeypatch.undo()
    assert split == o.sweep_qutrit_contour(BI, BF, BETA_C, "theta-phi",
                                           o.SweepRange(0.0, np.pi, 3),
                                           o.SweepRange(0.2, 2.8, 5))
    assert line == o.sweep_qutrit_two_bath(BI, BF, BETA_C, 0.5,
                                           o.SweepRange(0.2, 2.8, 5))


def test_channels_are_built_call_by_call(monkeypatch):
    # a call's channels exist only while it runs, so memory stays flat
    events = []
    channels, kernel = o.sweeps._su3_kraus, o.sweeps._run_cycles
    monkeypatch.setattr(o.sweeps, "_su3_kraus",
                        lambda *angles: events.append(
                            ("channels", np.size(angles[0])))
                        or channels(*angles))
    monkeypatch.setattr(o.sweeps, "_run_cycles",
                        lambda *args: events.append("kernel") or kernel(*args))
    monkeypatch.setattr(o.sweeps, "_SWEEP_ROWS", 10)
    o.sweep_qutrit_contour(BI, BF, BETA_C, "theta-phi",
                           o.SweepRange(0.0, np.pi, 3),
                           o.SweepRange(0.2, 2.8, 5))
    assert events == [("channels", 2), "kernel", ("channels", 1), "kernel"]


def test_a_point_split_over_calls_builds_its_channel_once(monkeypatch):
    # 2 thetas x 5 J at 2 rows a call: each theta's channel serves the
    # three calls its rows span
    events = []
    channels, kernel = o.sweeps._su3_kraus, o.sweeps._run_cycles
    monkeypatch.setattr(o.sweeps, "_su3_kraus",
                        lambda *angles: events.append("channels")
                        or channels(*angles))
    monkeypatch.setattr(o.sweeps, "_run_cycles",
                        lambda kind, couplings, *args: events.append(
                            len(couplings)) or kernel(kind, couplings, *args))
    monkeypatch.setattr(o.sweeps, "_SWEEP_ROWS", 2)
    o.sweep_qutrit_contour(BI, BF, BETA_C, "theta-phi",
                           o.SweepRange(0.0, np.pi, 2),
                           o.SweepRange(0.2, 2.8, 5))
    assert events == ["channels", 2, 2, 1] * 2


def test_write_csv_rejects_a_row_view_under_a_header_of_another_width(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rows = o.sweep_qutrit_two_bath(3, 4, 1, 0.5, o.SweepRange(0, 1, 2)).rows
    assert rows.cells.shape[1] == 23
    with pytest.raises(o.OttoSimError, match="23 columns"):
        o.write_csv("x.csv", o.SweepTable(("a", "b"), rows, {}))
    assert list(tmp_path.iterdir()) == []
