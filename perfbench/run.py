#!/usr/bin/env python3
"""ottosim benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload meas-grid --seed 1 --seconds 38 --trace 0

Runs from the root of a source checkout and imports ottosim from its
``src/``. The load is a closed loop in this single-threaded process: each
CLI call (``ottosim.cli.main(argv)``, in-process) starts when the previous
one returns. Every output is verified outside the timed region.

--trace 0 reports the end-to-end metrics, with times rescaled to a fixed
reference speed of the host (see SpeedGauge); --trace 1 alternates untraced and
traced passes and reports per-layer metrics (calls and self time of each
module's public functions, from perfbench/tracer.py), the tracing overhead
and the baseline rows of single calls. The last line of standard output is
the JSON result; the lines above it give each metric by name with its unit,
and the host it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

# One thread per process: the benchmark is a single closed-loop client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy  # noqa: E402  (after the thread settings, which it reads)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SPAWNS = 11          # set-up probes for baseline.import_ms (trace 1)
SETUP_EVERY_S = 1.0        # wall time between set-up probes (trace 0)
# A fresh interpreter imports the package and builds the CLI parser, then
# reports how long the import alone took.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ottosim\n"
    "t = time.perf_counter() - t\n"
    "from ottosim import cli\n"
    "cli.build_parser()\n"
    "print('ready', t, flush=True)\n"
)
# The reference speed: the speed at which reference_ms() takes REF_MS, about
# its time on the development host (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
# in that host's fast phase.
REF_ROUNDS = 150
REF_MS = 6.0
REF_MATRIX = numpy.array([[2.0, 1.0 - 0.5j, 0.3j, 0.0],
                          [1.0 + 0.5j, -1.0, 0.2, 0.4 - 0.1j],
                          [-0.3j, 0.2, 0.5, 0.7],
                          [0.0, 0.4 + 0.1j, 0.7, -1.5]])
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
BASELINE_SHARE = 0.1       # of --seconds, for the baseline rows (trace 1)
BASELINE_BATCH_S = 0.002   # minimum duration of one timed batch of calls


def load_program():
    """Import ottosim from this checkout's src/, never from elsewhere."""
    package = SRC / "ottosim"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ottosim sources in {package}")
    sys.path.insert(0, str(SRC))
    import ottosim
    if Path(ottosim.__file__).resolve().parent != package:
        raise SystemExit(f"perfbench: imported ottosim from {ottosim.__file__}")
    from ottosim import cli
    return cli


def setup_once() -> tuple:
    """Seconds from spawning a fresh interpreter until import + build_parser
    are done, and seconds of the import alone."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                          stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline().split()
        total = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=60)
    if proc.returncode != 0 or not line or line[0] != b"ready":
        raise RuntimeError("setup probe failed")
    return total, float(line[1])


def reference_ms() -> float:
    """Wall milliseconds of a fixed kernel that does not touch ottosim: small
    Hermitian eigensystems and products, float formatting and dict work, the
    mix the program spends its time on."""
    start = time.perf_counter()
    for k in range(REF_ROUNDS):
        values, vectors = numpy.linalg.eigh(REF_MATRIX)
        back = (vectors * values) @ vectors.conj().T
        text = ",".join(format(float(v), ".17g") for v in values)
        table = {i: i * 0.5 for i in range(20)}
        _ = back[k % 4, 0].real + sum(table.values()) + len(text)
    return (time.perf_counter() - start) * 1e3


class SpeedGauge:
    """Rescales a measured interval to the reference speed, at which
    reference_ms() takes REF_MS. The kernel is timed before and after each
    interval, and the host's speed over the interval is taken as the mean
    of the two."""

    def __init__(self):
        self.last = reference_ms()
        self.samples = [self.last]

    def at_reference(self, ms: float) -> float:
        """ms, measured just now, rescaled to the reference speed."""
        before, self.last = self.last, reference_ms()
        self.samples.append(self.last)
        return ms * REF_MS / ((before + self.last) / 2.0)


class Loop:
    """Closed-loop load generator: runs passes over the invocations, verifies every
    output outside the timed region and keeps the samples."""

    def __init__(self, cli, invocations):
        self.cli = cli
        self.invocations = invocations
        self.gauge = SpeedGauge()
        self.cmd_ms = []            # wall time of each timed call
        self.cmd_ref_ms = []        # the same, at the reference speed
        self.pass_ref_ms = []       # each timed pass, at the reference speed
        self.attempted = 0
        self.failed = 0
        self._reported = False

    def call(self, inv) -> tuple:
        """(output verified, milliseconds in cli.main)."""
        inv.clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(inv.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = None
                err.write(traceback.format_exc())
            ms = (time.perf_counter() - start) * 1e3
        ok = inv.check(rc, out.getvalue())
        if not ok and not self._reported:
            self._reported = True
            print(f"perfbench: {' '.join(inv.argv[:1])} failed (exit {rc})\n"
                  f"{err.getvalue()}", file=sys.stderr)
        return ok, ms

    def run_pass(self, timed: bool = True) -> float:
        """One pass over the invocations; returns the summed call time, ms."""
        total = total_ref = 0.0
        for inv in self.invocations:
            ok, ms = self.call(inv)
            ref_ms = self.gauge.at_reference(ms)
            total += ms
            total_ref += ref_ms
            if timed:
                self.cmd_ms.append(ms)
                self.cmd_ref_ms.append(ref_ms)
                self.attempted += 1
                self.failed += not ok
        if timed:
            self.pass_ref_ms.append(total_ref)
        return total

    @property
    def points(self) -> int:
        return sum(inv.points for inv in self.invocations)


def tail(samples) -> tuple:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, pct).
    With too few samples for that, the maximum."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        k = len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(loop: Loop, seconds: float) -> tuple:
    """(metrics, printed, notes): the gated metrics, the wall-clock figures
    that are printed but not gated, and a note on how each was taken.

    The gated times are at the reference speed (see SpeedGauge). The
    development host (2-vCPU Xeon VM) switched between a fast and a slow
    phase, up to 1.8x apart, for seconds to minutes at a time. Wall-clock
    medians of whole runs then spread by 10-40%, while the rescaled ones
    spread by about 3%. Set-up probes are spread over the run, and each is
    rescaled like a call."""
    loop.run_pass(timed=False)                 # warm-up; sets the references
    setups, setups_wall = [], []
    next_setup = time.perf_counter()
    deadline = next_setup + seconds
    while not loop.pass_ref_ms or time.perf_counter() < deadline:
        if time.perf_counter() >= next_setup:
            setup_s = setup_once()[0]
            setups_wall.append(setup_s)
            setups.append(loop.gauge.at_reference(setup_s * 1e3) / 1e3)
            next_setup = time.perf_counter() + SETUP_EVERY_S
        loop.run_pass()
    n, passes = len(loop.cmd_ms), len(loop.pass_ref_ms)
    tail_ms, pct = tail(loop.cmd_ref_ms)
    metrics = {
        "points_per_s": (statistics.median(loop.points / (ms / 1e3)
                                           for ms in loop.pass_ref_ms), "1/s"),
        "cmd_ms_p50": (statistics.median(loop.cmd_ref_ms), "ms"),
        "cmd_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    printed = {
        "wall.cmd_ms_p50": (statistics.median(loop.cmd_ms), "ms"),
        "wall.cmd_ms_tail": (tail(loop.cmd_ms)[0], "ms"),
        "wall.setup_s": (statistics.median(setups_wall), "s"),
        "host.speed": (REF_MS / statistics.median(loop.gauge.samples),
                       "ratio"),
    }
    notes = {"points_per_s": f"median of {passes} passes, "
                             f"{loop.points} points each",
             "cmd_ms_p50": f"n={n}",
             "cmd_ms_tail": f"p{pct:.1f}, n={n}",
             "setup_s": f"median of {len(setups)} fresh interpreters",
             "peak_rss_mib": "ru_maxrss of this process",
             "host.speed": f"{REF_MS:g} ms over the median of "
                           f"{len(loop.gauge.samples)} reference-kernel "
                           f"times; not gated"}
    notes.update({name: "wall clock; not gated" for name in printed
                  if name.startswith("wall.")})
    return metrics, printed, notes


def baseline_rows(seed: int, budget_s: float) -> dict:
    """Per-call time of single library calls (the ROADMAP baseline rows),
    untraced, at this seed's physics inputs."""
    from ottosim import (BathSpec, CycleConfig, Measurement, SpinDirection,
                         Su3Angles, SubstanceSpec, TwoBath, build_hamiltonian,
                         hermitian_eigensystem, local_spin_channel, run_cycle,
                         su3_projective_channel)
    from workloads import draw_physics
    ph = draw_physics(seed)
    angles = Su3Angles(*ph.angles)
    su3 = su3_projective_channel(angles)
    spin = local_spin_channel(SpinDirection(*ph.n), SpinDirection(*ph.m))
    qutrit, xxz = SubstanceSpec.qutrit(1.0), SubstanceSpec.xxz(1.0, 0.0)
    cold = BathSpec(ph.beta_c)

    def cycle(spec, protocol):
        return CycleConfig(spec=spec, Bi=ph.bi, Bf=ph.bf, cold=cold,
                           protocol=protocol)

    two_bath = cycle(qutrit, TwoBath(hot=BathSpec(ph.beta_h)))
    qutrit_meas = cycle(qutrit, Measurement(su3))
    xxz_meas = cycle(xxz, Measurement(spin))
    matrix_4x4 = build_hamiltonian(xxz, ph.bf).matrix
    rows = {
        "baseline.run_cycle.qutrit_two_bath_us": lambda: run_cycle(two_bath),
        "baseline.run_cycle.qutrit_meas_us": lambda: run_cycle(qutrit_meas),
        "baseline.run_cycle.xxz_meas_us": lambda: run_cycle(xxz_meas),
        "baseline.su3_projective_channel_us":
            lambda: su3_projective_channel(angles),
        "baseline.hermitian_eigensystem_4x4_us":
            lambda: hermitian_eigensystem(matrix_4x4),
    }
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, fn in rows.items():
            out[name] = _per_call_us(fn, budget_s / len(rows))
    return out


def _per_call_us(fn, budget_s: float) -> float:
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - start >= BASELINE_BATCH_S:
            break
        n *= 2
    means = []
    deadline = time.perf_counter() + budget_s
    while not means or time.perf_counter() < deadline:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        means.append((time.perf_counter() - start) / n * 1e6)
    return statistics.median(means)


def per_layer(loop: Loop, seed: int, seconds: float) -> tuple:
    from tracer import LAYERS, MEASUREMENT_CYCLES, TRANSFER_OUTSIDE_CYCLE, \
        Tracer
    import_s = statistics.median(setup_once()[1]
                                 for _ in range(SETUP_SPAWNS))
    loop.run_pass(timed=False)                 # warm-up; sets the references
    baseline = baseline_rows(seed, BASELINE_SHARE * seconds)
    tracer = Tracer()
    plain_ms, traced_ms, snapshots = [], [], []
    deadline = time.perf_counter() + (1.0 - BASELINE_SHARE) * seconds
    while not traced_ms or time.perf_counter() < deadline:
        plain_ms.append(loop.run_pass())
        tracer.reset()
        with tracer:
            traced_ms.append(loop.run_pass())
        snapshots.append(tracer.snapshot())

    metrics = {key: (statistics.median(s[key] for s in snapshots),
                     "count" if key.endswith(".calls") else "ms")
               for key in snapshots[0] if key.endswith((".calls", ".self_ms"))}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (
            sum(v for k, (v, _) in metrics.items()
                if k.startswith(f"{layer}.") and k.endswith(".self_ms")), "ms")
    builds = statistics.median(s[MEASUREMENT_CYCLES] + s[TRANSFER_OUTSIDE_CYCLE]
                               for s in snapshots)
    channels = metrics["channels.kraus_channel.calls"][0]
    metrics["cycle.transfer_builds_per_channel"] = (
        builds / channels if channels else 0.0, "ratio")
    metrics["sweeps.write_csv.bytes"] = (
        sum(inv.csv_bytes() for inv in loop.invocations), "B")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0,
        "frac")
    metrics.update({k: (v, "us") for k, v in baseline.items()})
    metrics["baseline.import_ms"] = (import_s * 1e3, "ms")
    notes = {"trace.overhead_frac": f"{len(traced_ms)} traced and "
                                    f"{len(plain_ms)} untraced passes"}
    return metrics, {}, notes


def host_line() -> str:
    import numpy
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"host: python {sys.version.split()[0]} numpy {numpy.__version__} "
            f"nproc {os.cpu_count()} loadavg {load}")


def parse_args(argv=None):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    from workloads import build_workload
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(cli, build_workload(args.workload, args.seed, workdir))
        print(f"workload {args.workload} seed {args.seed} seconds "
              f"{args.seconds:g} trace {args.trace}; {host_line()}")
        if args.trace:
            metrics, printed, notes = per_layer(loop, args.seed,
                                                args.seconds)
        else:
            metrics, printed, notes = end_to_end(loop, args.seconds)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed_frac = loop.failed / loop.attempted if loop.attempted else 1.0
    for name, (value, unit) in {**metrics, **printed}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44s} = {value:.6g} {unit}{note}")
    print(f"{'failed_frac':44s} = {failed_frac:.6g} frac  "
          f"({loop.failed} of {loop.attempted} invocations)")
    print(host_line())
    result = {"correct": loop.attempted > 0 and loop.failed == 0,
              "attempted": loop.attempted, "failed": loop.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
