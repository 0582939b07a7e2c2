"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CLI = run.load_program()


def _bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        BENCH["command"] + ["--workload", workload, "--seed", "7",
                            "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for m in declared:
        assert any(ln.split()[:2] == [m["name"], "="]
                   and ln.split()[3] == m["unit"] for ln in lines[:-1])
    assert any(ln.startswith("failed_frac") for ln in lines)
    assert any(ln.startswith("host: python") for ln in lines)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in declared)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_but_not_the_work(workload, tmp_path):
    passes = {}
    for seed in (1, 2):
        loop = run.Loop(CLI, workloads.build_workload(workload, seed,
                                                      tmp_path))
        tracer = Tracer()
        with tracer:
            loop.run_pass()
        counts = {k: v for k, v in tracer.snapshot().items()
                  if k.endswith(".calls")}
        passes[seed] = ([inv.argv for inv in loop.invocations],
                        loop.points, counts, loop.failed)
    (argv1, points1, counts1, failed1), (argv2, points2, counts2, failed2) = \
        passes[1], passes[2]
    assert failed1 == failed2 == 0
    assert argv1 != argv2
    assert [a[0] for a in argv1] == [a[0] for a in argv2]
    assert points1 == points2 > 0
    if workload == "theorem1":
        # The suite draws its own channel sizes from its seed; only the
        # number of samples (and so of top-level calls) is fixed.
        for name in counts1:
            assert abs(counts1[name] - counts2[name]) <= 0.05 * counts1[name]
        counts1 = {k: counts1[k] for k in ("cli.main.calls",
                                           "sweeps.theorem1_suite.calls",
                                           "channels.energy_change.calls")}
        counts2 = {k: counts2[k] for k in counts1}
    assert counts1 == counts2


def _corrupt_cell(path: Path, column: str, row: int = 5):
    lines = path.read_text().split("\n")
    cells = lines[row].split(",")
    column = lines[0].split(",").index(column)
    cells[column] = repr(float(cells[column]) + 1e-3)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines))


class _CorruptingCli:
    """Runs the real CLI, then alters one cell of the CSV it wrote."""

    def __init__(self, invocation, column="Qh"):
        self.invocation = invocation
        self.column = column

    def main(self, argv):
        rc = CLI.main(argv)
        if argv is self.invocation.argv:
            _corrupt_cell(self.invocation.out, self.column)
        return rc


def test_corrupted_cell_is_counted_as_failed(tmp_path):
    invs = workloads.build_workload("thermal-sweep", 3, tmp_path)
    loop = run.Loop(CLI, invs)
    loop.run_pass(timed=False)
    assert all(inv.reference_ok for inv in invs)
    loop.cli = _CorruptingCli(invs[1])
    loop.run_pass()
    loop.cli = CLI
    loop.run_pass()
    assert (loop.attempted, loop.failed) == (2 * len(invs), 1)


@pytest.mark.parametrize("column", ["Qh", "J"])
@pytest.mark.parametrize("workload", ["thermal-sweep", "meas-grid"])
def test_corrupted_first_output_fails_the_deep_check(workload, column,
                                                     tmp_path):
    inv = workloads.build_workload(workload, 4, tmp_path)[0]
    loop = run.Loop(_CorruptingCli(inv, column), [inv])
    loop.run_pass()
    assert inv.reference is not None and not inv.reference_ok
    assert loop.failed == 1


def test_tracer_sees_calls_made_inside_the_package():
    import ottosim
    from ottosim import cycle, substances
    original = substances.labelled_spectrum
    cfg = ottosim.CycleConfig(
        spec=ottosim.SubstanceSpec.qutrit(1.0), Bi=3.0, Bf=4.0,
        cold=ottosim.BathSpec(1.0),
        protocol=ottosim.TwoBath(hot=ottosim.BathSpec(0.5)))
    tracer = Tracer()
    with tracer:
        assert cycle.labelled_spectrum is not original
        ottosim.run_cycle(cfg)
    snap = tracer.snapshot()
    assert snap["cycle.run_cycle.calls"] == 1
    assert snap["substances.labelled_spectrum.calls"] == 2
    assert snap["core.boltzmann_populations.calls"] == 2
    assert snap["substances.labelled_spectrum.self_ms"] > 0
    assert snap["cycle.run_cycle.self_ms"] > 0
    assert cycle.labelled_spectrum is original
    assert substances.labelled_spectrum is original


def test_gauge_rescales_by_the_kernel_time_around_the_interval(monkeypatch):
    kernel_ms = iter([2 * run.REF_MS, 2 * run.REF_MS, run.REF_MS])
    monkeypatch.setattr(run, "reference_ms", lambda: next(kernel_ms))
    gauge = run.SpeedGauge()
    assert gauge.at_reference(100.0) == 50.0       # host at half speed
    assert gauge.at_reference(100.0) == 100.0 / 1.5
    assert gauge.samples == [2 * run.REF_MS, 2 * run.REF_MS, run.REF_MS]


def test_tail_leaves_ten_samples_beyond():
    value, pct = run.tail(list(range(100, 0, -1)))
    assert (value, pct) == (90, 90.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = _bench("theorem1", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
