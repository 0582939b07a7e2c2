"""Frozen outputs: every case of freeze_golden.CASES reproduces its bytes.

On a mismatch the failure names the worst cell and its relative change,
and every engine_mode or crossing flag and every blank eta_raw that
flipped, so that a last-digit move can be told apart from a physics
change. The files pin the Python and numpy builds in golden/VERSIONS.
"""

import math
import os

import pytest

from freeze_golden import CASES, GOLDEN, files, produce, versions

FLAGS = ("engine_mode", "crossing")


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return None


def _csv_report(want, got):
    """What moved between two CSV texts: the worst cell, flips, shapes."""
    want_rows = [line.split(",") for line in want.splitlines()]
    got_rows = [line.split(",") for line in got.splitlines()]
    if want_rows[:1] != got_rows[:1]:
        return [f"header changed: {want_rows[:1]} -> {got_rows[:1]}"]
    if len(want_rows) != len(got_rows):
        return [f"row count changed: {len(want_rows) - 1} -> "
                f"{len(got_rows) - 1}"]
    header = want_rows[0]
    notes, worst = [], None
    for r, (old, new) in enumerate(zip(want_rows[1:], got_rows[1:]), 1):
        for column, a, b in zip(header, old, new):
            if a == b:
                continue
            where = f"row {r} {column}"
            if column in FLAGS:
                notes.append(f"{where}: flag flipped {a} -> {b}")
            elif (a == "") != (b == ""):
                notes.append(f"{where}: blank flipped {a!r} -> {b!r}")
            else:
                x, y = _cell(a), _cell(b)
                scale = max(abs(x), abs(y))
                rel = abs(y - x) / scale if scale else math.inf
                if worst is None or rel > worst[0]:
                    worst = (rel, where, a, b)
    if worst is not None:
        rel, where, a, b = worst
        notes.insert(0, f"worst cell {where}: {a} -> {b} "
                        f"(relative change {rel:.3e})")
    return notes


def _text_report(want, got):
    return [f"line {n}: {a!r} -> {b!r}" for n, (a, b) in
            enumerate(zip(want.splitlines(), got.splitlines()), 1)
            if a != b] or ["line count changed"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_frozen_bytes(name, tmp_path):
    produce(name, str(tmp_path))
    problems = []
    for filename in files(name):
        with open(os.path.join(GOLDEN, filename), "rb") as f:
            want = f.read()
        got = (tmp_path / filename).read_bytes()
        if got == want:
            continue
        report = (_csv_report if filename.endswith(".csv") else
                  _text_report)(want.decode(), got.decode())
        problems.append(f"{filename} differs from its frozen bytes:\n  "
                        + "\n  ".join(report))
    if problems:
        with open(os.path.join(GOLDEN, "VERSIONS"), encoding="utf-8") as f:
            frozen = f.read()
        problems.append(f"frozen with {' '.join(frozen.split())}, running "
                        f"{' '.join(versions().split())}")
    assert not problems, "\n".join(problems)


def test_report_names_worst_cell_and_flips():
    want = "J,Qh,eta_raw,engine_mode\n1,2.5,0.1,1\n2,-1,,0\n"
    got = "J,Qh,eta_raw,engine_mode\n1,2.5000000000000004,,0\n2,-1.5,,0\n"
    report = _csv_report(want, got)
    assert report[0].startswith("worst cell row 2 Qh: -1 -> -1.5")
    assert "row 1 eta_raw: blank flipped '0.1' -> ''" in report
    assert "row 1 engine_mode: flag flipped 1 -> 0" in report
