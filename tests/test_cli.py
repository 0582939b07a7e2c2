import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ottosim as o
from ottosim import cli
from ottosim.cli import main

SRC = str(Path(o.__file__).resolve().parents[1])


def _lines(path):
    return path.read_text().splitlines()


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().out.lower()


def test_unknown_flag_exits_one(capsys):
    # argparse's usage failure is remapped from its default 2 to 1
    with pytest.raises(SystemExit) as exc:
        main(["qutrit-two-bath", "--bogus", "1"])
    assert exc.value.code == 1


def test_a_number_in_exponent_notation_is_a_value_after_its_flag(
        tmp_path, capsys, monkeypatch):
    # argparse's own rule for negative numbers knows no exponent
    runs = []
    for k, spelling in enumerate([["--j-min", "-1e-3"], ["--j-min=-1e-3"]]):
        (tmp_path / str(k)).mkdir()
        monkeypatch.chdir(tmp_path / str(k))
        code = main(["qutrit-two-bath", "--out", "t.csv", "--j-steps", "5",
                     *spelling])
        files = {p.name: p.read_bytes() for p in sorted(Path().iterdir())}
        runs.append((code, *capsys.readouterr(), files))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0
    assert b"j_min=-0.001\n" in runs[0][3]["t.csv.meta"]
    # -inf reads as a number too, and the library refuses it
    monkeypatch.chdir(tmp_path / "0")
    assert main(["qutrit-two-bath", "--out", "inf.csv", "--j-min",
                 "-inf"]) == 1
    assert capsys.readouterr() == (
        "", "error: start must be a finite number, got -inf\n")
    assert not Path("inf.csv").exists()
    # a direction is no number: it still needs the = spelling
    with pytest.raises(SystemExit) as exc:
        main(["xxz", "--out", "n.csv", "--n", "-1,0,0"])
    assert exc.value.code == 1
    assert "--n: expected one argument" in capsys.readouterr().err
    assert main(["xxz", "--out", "n.csv", "--n=-1,0,0"]) == 0


def test_two_bath_sweep_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "tb.csv"
    code = main(["qutrit-two-bath", "--j-min", "0", "--j-max", "2",
                 "--j-steps", "5", "--out", str(out)])
    assert code == 0
    assert "wrote 5 rows" in capsys.readouterr().out
    lines = _lines(out)
    assert len(lines) == 6
    header = lines[0].split(",")
    assert header[:8] == ["J", "Qh", "Qc", "W", "eta_raw", "eta0",
                          "engine_mode", "crossing"]
    # full-precision cells round-trip: re-run the first row's cycle
    row = dict(zip(header, lines[1].split(",")))
    cfg = o.CycleConfig(spec=o.SubstanceSpec.qutrit(0.0), Bi=3.0, Bf=4.0,
                        cold=o.BathSpec(1.0),
                        protocol=o.TwoBath(hot=o.BathSpec(0.5)))
    rec = o.run_cycle(cfg)
    assert float(row["Qh"]) == rec.Qh
    assert float(row["W"]) == rec.W
    assert float(row["eta_raw"]) == rec.eta
    meta = dict(line.split("=", 1) for line in _lines(
        tmp_path / "tb.csv.meta"))
    assert meta["command"] == "qutrit-two-bath"
    assert float(meta["beta_h"]) == 0.5
    assert "seed" not in meta


def test_output_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["qutrit-meas", "--j-steps", "7", "--j-max", "2.1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta").read_bytes() == \
        (tmp_path / "b.csv.meta").read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep setup\nbeta-h = 0.3\nj-steps = 4\nj-max = 3\n")
    out = tmp_path / "out.csv"
    code = main(["qutrit-two-bath", "--config", str(cfg), "--j-steps", "3",
                 "--out", str(out)])
    assert code == 0
    lines = _lines(out)
    assert len(lines) == 4  # flag beat the config's 4 steps
    meta = dict(line.split("=", 1) for line in _lines(tmp_path / "out.csv.meta"))
    assert float(meta["beta_h"]) == 0.3  # config beat the default
    assert int(meta["j_steps"]) == 3


# Every command's options with no flag and no config file, frozen as the
# typed values they resolve to: the bits of every float count.
DEFAULTS = {
    "qutrit-two-bath": dict(bi=3.0, bf=4.0, beta_c=1.0, beta_h=0.5,
                            j_min=0.0, j_max=3.0, j_steps=121, out=None,
                            seed=None),
    "qutrit-meas": dict(bi=3.0, bf=4.0, beta_c=1.0, theta=2.199114857512855,
                        phi=2.199114857512855, chi=1.5707963267948966,
                        psi=1.5707963267948966, j_min=0.0, j_max=3.0,
                        j_steps=121, out=None, seed=None),
    "qutrit-contour": dict(bi=3.0, bf=4.0, beta_c=1.0, mode="theta-phi",
                           theta_min=0.0, theta_max=3.141592653589793,
                           theta_steps=41, j_min=0.2, j_max=2.8, j_steps=27,
                           out=None, seed=None),
    "qutrit-extreme": dict(bi=3.0, bf=4.0, beta_c=1.0, j_min=0.1, j_max=2.9,
                           j_steps=29, out=None, seed=None),
    "xxz": dict(bi=3.0, bf=4.0, beta_c=1.0, model="xx", protocol="two-bath",
                beta_h=0.5, n=o.SpinDirection(1.0, 0.0, 0.0),
                m=o.SpinDirection(0.0, 0.0, 1.0), j_min=0.05, j_max=2.0,
                j_steps=40, out=None, seed=None),
    "theorem1": dict(dims=(2, 3, 4), samples=1000, seed=1, out=None),
}


def test_resolved_defaults_are_frozen():
    assert set(DEFAULTS) == set(cli._COMMANDS)
    for command, options in cli._COMMANDS.items():
        got = cli._resolve(cli.build_parser().parse_args([command]), options)
        # repr tells 3 from 3.0 and gives every bit of a float
        assert {k: repr(v) for k, v in got.items()} == \
            {k: repr(v) for k, v in DEFAULTS[command].items()}, command


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("beta-x = 1\n")
    out = tmp_path / "o.csv"
    assert main(["qutrit-two-bath", "--config", str(cfg),
                 "--out", str(out)]) == 1
    assert "beta_x" in capsys.readouterr().err


def test_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just words\n")
    assert main(["qutrit-two-bath", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 1


def test_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"bi=\xff\xfe3\n")
    assert main(["qutrit-meas", "--config", str(cfg),
                 "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {cfg}: not UTF-8 text (invalid start byte)\n")
    assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["qutrit-two-bath", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o.csv")]) == 2


def test_validation_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["qutrit-two-bath", "--bi", "-3", "--out", out]) == 1
    assert "Bi" in capsys.readouterr().err
    assert main(["qutrit-two-bath", "--bi", "abc", "--out", out]) == 1
    assert main(["qutrit-two-bath", "--j-steps", "0", "--out", out]) == 1
    assert main(["qutrit-two-bath"]) == 1  # --out missing
    assert main(["qutrit-contour", "--mode", "bogus", "--out", out]) == 1
    assert main(["xxz", "--model", "bogus", "--out", out]) == 1
    assert main(["xxz", "--protocol", "bogus", "--out", out]) == 1
    assert main(["xxz", "--protocol", "meas", "--n", "1,1", "--out",
                 out]) == 1
    assert main(["xxz", "--protocol", "meas", "--n", "1,1,0", "--out",
                 out]) == 1


@pytest.mark.parametrize("args", [
    ["--j-max", "inf"], ["--j-min", "nan"], ["--j-steps", "2.5"],
    ["--j-min=-1e308", "--j-max=1e308"],
])
def test_bad_range_exits_one_without_warning(tmp_path, capsys, args):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["qutrit-two-bath"] + args + ["--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--bi", "1", "--bf", "1e308", "--j-steps", "2"],
    ["--j-min", "1e307", "--j-max", "1.7e308", "--j-steps", "3"],
])
def test_overflowing_energies_exit_one_with_one_error_line(tmp_path, capsys,
                                                         args):
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["xxz"] + args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: a level energy is too large to represent\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exits_two(tmp_path, capsys):
    assert main(["qutrit-two-bath", "--j-steps", "2", "--j-max", "1",
                 "--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 2
    assert "error" in capsys.readouterr().err.lower()


def test_contour_single_point_matches_library(tmp_path):
    out = tmp_path / "c.csv"
    t = 0.7 * np.pi
    code = main(["qutrit-contour", "--theta-min", str(t), "--theta-max",
                 str(t), "--theta-steps", "1", "--j-min", "1", "--j-max",
                 "1", "--j-steps", "1", "--out", str(out)])
    assert code == 0
    header, row = (line.split(",") for line in _lines(out))
    got = dict(zip(header, row))
    assert float(got["eta_raw"]) == pytest.approx(0.315670465570348,
                                                  abs=1e-12)
    assert float(got["theta"]) == t


def test_extreme_defaults_sweep(tmp_path):
    out = tmp_path / "ex.csv"
    assert main(["qutrit-extreme", "--out", str(out)]) == 0
    lines = _lines(out)
    assert len(lines) == 30
    header = lines[0].split(",")
    idx = header.index("eta_raw")
    etas = [float(line.split(",")[idx]) for line in lines[1:]]
    assert all(b > a for a, b in zip(etas, etas[1:]))


def test_xxz_meas_csv_and_seed_meta(tmp_path):
    out = tmp_path / "xxz.csv"
    code = main(["xxz", "--model", "ising", "--protocol", "meas",
                 "--n", "1,0,0", "--m", "0,0,1", "--j-min", "1", "--j-max",
                 "1", "--j-steps", "1", "--seed", "9", "--out", str(out)])
    assert code == 0
    header, row = (line.split(",") for line in _lines(out))
    got = dict(zip(header, row))
    assert header[0] == "Jz"
    assert float(got["q1_plus_q2"]) == pytest.approx(-0.9293267308310077,
                                                     abs=1e-12)
    meta = dict(line.split("=", 1) for line in _lines(tmp_path / "xxz.csv.meta"))
    assert meta["seed"] == "9"
    assert meta["protocol"] == "meas"
    assert meta["m"] == "0.0,0.0,1.0"


def test_theorem1_command(tmp_path, capsys):
    report = tmp_path / "t1.txt"
    code = main(["theorem1", "--samples", "60", "--seed", "2",
                 "--dims", "2,3", "--out", str(report)])
    assert code == 0
    shown = capsys.readouterr().out
    assert "unital" in shown
    assert report.read_text() == shown


def test_theorem1_rejects_bad_dims(capsys):
    assert main(["theorem1", "--dims", "2,9", "--samples", "5"]) == 1


def test_spot_check_sample_of_rows_against_cycles(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["qutrit-two-bath", "--out", str(out)]) == 0
    lines = _lines(out)
    assert len(lines) == 122  # default 121-point grid
    header = lines[0].split(",")
    for k in (1, 60, 121):  # ~1 percent of rows, ends included
        row = dict(zip(header, lines[k].split(",")))
        cfg = o.CycleConfig(spec=o.SubstanceSpec.qutrit(float(row["J"])),
                            Bi=3.0, Bf=4.0, cold=o.BathSpec(1.0),
                            protocol=o.TwoBath(hot=o.BathSpec(0.5)))
        rec = o.run_cycle(cfg)
        assert float(row["Qh"]) == rec.Qh
        assert float(row["Qc"]) == rec.Qc
        assert float(row["W"]) == rec.W
        assert float(row["q_h_-J"]) == rec.per_level_flux_hot["-J"]
        assert int(row["engine_mode"]) == int(rec.engine_mode)

@pytest.mark.parametrize("args", [
    ["theorem1", "--samples", "200001"],
    ["qutrit-meas", "--j-steps", "200001"],
    ["qutrit-contour", "--theta-steps", "1000", "--j-steps", "201"],
])
def test_oversized_request_exits_one_before_any_work(tmp_path, capsys,
                                                     monkeypatch, args):
    assert o.cli.MAX_POINTS == 200_000

    def no_work(*_, **__):
        raise AssertionError("the command started work")

    for name in ("theorem1_suite", "sweep_qutrit_measurement",
                 "sweep_qutrit_contour"):
        monkeypatch.setattr(o.sweeps, name, no_work)
    out = tmp_path / "x.out"
    assert main(args + ["--out", str(out)]) == 1
    assert "more than 200000 points" in capsys.readouterr().err
    assert not out.exists()


SWEEP_FUNCTIONS = ("sweep_qutrit_two_bath", "sweep_qutrit_measurement",
                   "sweep_qutrit_contour", "sweep_qutrit_extreme", "sweep_xxz")


@pytest.mark.parametrize("command", ["qutrit-two-bath", "qutrit-meas",
                                     "qutrit-contour", "qutrit-extreme",
                                     "xxz"])
def test_missing_out_exits_one_before_the_sweep(capsys, monkeypatch,
                                                 command):
    def no_work(*_, **__):
        raise AssertionError("the sweep ran")

    for name in SWEEP_FUNCTIONS:
        monkeypatch.setattr(o.sweeps, name, no_work)
    assert main([command]) == 1
    assert "--out is required" in capsys.readouterr().err


class _Unwritable:
    """A cell or meta value whose text cannot be produced, as a full disk."""

    def __float__(self):
        raise OSError("no space left on device")

    __str__ = __float__


@pytest.mark.parametrize("where", ["csv", "meta"])
def test_failed_write_keeps_earlier_output(tmp_path, capsys, monkeypatch,
                                           where):
    out = tmp_path / "x.csv"
    out.write_bytes(b"earlier csv\n")
    (tmp_path / "x.csv.meta").write_bytes(b"earlier=meta\n")
    real = o.sweeps.sweep_qutrit_two_bath

    def broken(*args):
        table = real(*args)
        if where == "csv":
            # past the first buffer flushes, so the temp file holds data
            rows = list(table.rows)
            rows.insert(len(rows) // 2, [_Unwritable()])
            return o.SweepTable(table.header, rows, table.meta)
        table.meta["broken"] = _Unwritable()
        return table

    monkeypatch.setattr(o.sweeps, "sweep_qutrit_two_bath", broken)
    assert main(["qutrit-two-bath", "--j-steps", "2001",
                 "--out", str(out)]) == 2
    assert "no space left" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier csv\n"
    assert (tmp_path / "x.csv.meta").read_bytes() == b"earlier=meta\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv",
                                                          "x.csv.meta"]


@pytest.mark.parametrize("args", [
    ["qutrit-two-bath", "--j-steps", "3"],
    ["theorem1", "--samples", "20"],
])
def test_output_onto_a_directory_exits_two_and_leaves_no_temp(tmp_path,
                                                              args):
    target = tmp_path / "taken"
    target.mkdir()
    assert main(args + ["--out", str(target)]) == 2
    assert target.is_dir() and not any(target.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_meta_onto_a_directory_keeps_the_earlier_csv(tmp_path, capsys):
    out = tmp_path / "o.csv"
    out.write_bytes(b"OLD\n")
    (tmp_path / "o.csv.meta").mkdir()
    assert main(["qutrit-meas", "--j-steps", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and "o.csv.meta" in err
    assert out.read_bytes() == b"OLD\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o.csv",
                                                          "o.csv.meta"]
    assert not any((tmp_path / "o.csv.meta").iterdir())


def test_symlink_output_keeps_its_link_and_fills_its_target(tmp_path):
    args = ["qutrit-meas", "--j-steps", "2", "--out"]
    assert main(args + [str(tmp_path / "plain.csv")]) == 0
    real = tmp_path / "real.csv"
    real.write_bytes(b"OLD\n")
    link = tmp_path / "link.csv"
    link.symlink_to("real.csv")
    assert main(args + [str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == "real.csv"
    assert real.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("args", [
    ["qutrit-meas", "--j-steps", "2"],
    ["theorem1", "--samples", "20"],
])
def test_fifo_output_exits_two_and_stays_a_fifo(tmp_path, capsys, args):
    fifo = tmp_path / "f.csv"
    os.mkfifo(fifo)
    assert main(args + ["--out", str(fifo)]) == 2
    assert "f.csv" in capsys.readouterr().err
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]


def test_outputs_get_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w"):
        pass
    mode = plain.stat().st_mode
    assert main(["qutrit-two-bath", "--j-steps", "2",
                 "--out", str(tmp_path / "x.csv")]) == 0
    assert main(["theorem1", "--samples", "20",
                 "--out", str(tmp_path / "t1.txt")]) == 0
    for name in ("x.csv", "x.csv.meta", "t1.txt"):
        assert (tmp_path / name).stat().st_mode == mode


def test_cooling_contour_prints_one_plain_warning_line(tmp_path, capsys):
    # J crosses Bi = 2.5, so some of the 5 x 4 measurement cycles cool
    grid = ["--bi", "2.5", "--bf", "4", "--beta-c", "1", "--theta-min", "2",
            "--theta-max", "2.6", "--theta-steps", "5", "--j-min", "2.4",
            "--j-max", "3", "--j-steps", "4"]
    out = tmp_path / "c.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["qutrit-contour"] + grid + ["--out", str(out)]) == 0
    lines = _lines(out)
    qh = lines[0].split(",").index("Qh")
    cooled = sum(float(line.split(",")[qh]) < 0.0 for line in lines[1:])
    assert cooled > 0
    assert capsys.readouterr().err == (
        f"warning: measurement stroke removed energy (Qh < 0) in {cooled} of "
        f"{5 * 4} cycles\n")
    # the library still warns, and the CLI wrote the library's table
    with pytest.warns(o.MeasurementCoolsWarning):
        table = o.sweep_qutrit_contour(2.5, 4.0, 1.0, "theta-phi",
                                       o.SweepRange(2.0, 2.6, 5),
                                       o.SweepRange(2.4, 3.0, 4))
    o.write_csv(str(tmp_path / "lib.csv"), table)
    assert out.read_bytes() == (tmp_path / "lib.csv").read_bytes()


# Calls made one after another in one process: two kinds of sweep, a
# usage error and the help text between them, the theorem1 report, and
# the first call again, which must not see anything the others left.
SEQUENCE = [
    ["qutrit-meas", "--j-steps", "5", "--out", "meas.csv"],
    ["qutrit-meas", "--bogus"],
    [],
    ["xxz", "--protocol", "meas", "--j-steps", "4", "--out", "xxz.csv"],
    ["theorem1", "--samples", "20"],
    ["qutrit-meas", "--j-steps", "5", "--out", "meas.csv"],
]


def test_one_parser_serves_every_call_as_a_fresh_process_would(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")  # the help text's width
    env = {**os.environ, "PYTHONPATH": SRC}
    built, used = [], []
    init, parse_args = cli._Parser.__init__, cli._Parser.parse_args

    def spy_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def spy_parse_args(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy_init)
    monkeypatch.setattr(cli._Parser, "parse_args", spy_parse_args)
    codes = []
    for index, argv in enumerate(SEQUENCE):
        here, fresh = tmp_path / f"main{index}", tmp_path / f"fresh{index}"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "ottosim", *argv],
                              cwd=fresh, env=env, capture_output=True,
                              text=True, timeout=120)
        assert (code, out, err) == (proc.returncode, proc.stdout,
                                    proc.stderr), argv
        assert {p.name: p.read_bytes() for p in here.iterdir()} == \
            {p.name: p.read_bytes() for p in fresh.iterdir()}, argv
        codes.append(code)
    assert codes == [0, 1, 1, 0, 0, 0]
    assert built.count("ottosim") <= 1
    assert len(used) == len(SEQUENCE)
    assert all(parser is used[0] for parser in used)
    assert cli.build_parser() is not cli.build_parser()


@pytest.mark.parametrize("command", [["qutrit-meas", "--j-steps", "3"],
                                     ["theorem1", "--samples", "5"]])
def test_io_error_names_the_target_not_a_temp(tmp_path, capsys, command):
    target = tmp_path / "nodir" / "o.csv"
    assert main(command + ["--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err == ("io error: [Errno 2] No such file or directory: "
                   f"{os.path.realpath(target)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_config_with_a_byte_order_mark_reads_as_the_flag(tmp_path):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfbi=2.5\n")
    by_config, by_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    assert main(["qutrit-meas", "--config", str(cfg), "--j-steps", "3",
                 "--out", str(by_config)]) == 0
    assert main(["qutrit-meas", "--bi", "2.5", "--j-steps", "3",
                 "--out", str(by_flag)]) == 0
    assert by_config.read_bytes() == by_flag.read_bytes()
    assert (tmp_path / "config.csv.meta").read_bytes() == \
        (tmp_path / "flag.csv.meta").read_bytes()
    assert "bi=2.5\n" in (tmp_path / "flag.csv.meta").read_text()


# A sweep whose library call warns with something other than
# MeasurementCoolsWarning; run in a fresh interpreter, where the warning
# reaches stderr as Python shows it, not pytest's recorder.
OTHER_WARNING = """
import sys, warnings
from ottosim import cli, sweeps

def sweep(vals):
    warnings.warn("a note from the sweep", UserWarning)
    return sweeps.sweep_qutrit_two_bath(
        vals["bi"], vals["bf"], vals["beta_c"], vals["beta_h"],
        sweeps.SweepRange(0.0, 1.0, 2))

cli._SWEEPS["qutrit-two-bath"] = sweep
sys.exit(cli.main(["qutrit-two-bath", "--out", sys.argv[1]]))
"""


def test_another_warning_is_shown_as_python_shows_it(tmp_path):
    out = tmp_path / "w.csv"
    proc = subprocess.run([sys.executable, "-c", OTHER_WARNING, str(out)],
                          env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(_lines(out)) == 3
    assert out.with_name("w.csv.meta").exists()
    assert proc.stdout == f"wrote 2 rows to {out}\n"
    assert "UserWarning: a note from the sweep" in proc.stderr
    assert not any(line.startswith("warning: ")
                   for line in proc.stderr.splitlines())
