"""Workload generation and output verification for the ottosim benchmark.

A workload is a fixed list of CLI invocations. The seed picks only the
physics inputs (fields, inverse temperatures, measurement angles, spin
directions, the theorem1 seed), drawn from the paper's parameter region;
grid sizes are constants, so the work per pass does not depend on the seed.

Each invocation knows how to check its own output. The first output of an
argv is checked in depth (shape, header, conservation, independent routes);
every later output of the same argv must be byte-identical to it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Grid sizes. The contour keeps the CLI's 41 x 27 default; the single-channel
# sweeps are sized so that every invocation of a workload costs about the same,
# which keeps the per-invocation median inside one cluster of samples. theorem1
# runs 500 samples (about 200 ms) per call rather than 1500, so that a run
# holds enough calls for a steady tail percentile.
CONTOUR_THETA_STEPS = 41
CONTOUR_J_STEPS = 27
MEAS_J_STEPS = 1107
XXZ_MEAS_STEPS = 600
THERMAL_STEPS = 2001
THEOREM1_SAMPLES = 500

# |W + Qh + Qc| per row; the library's conservation tolerance (1e-12).
CONSERVATION_TOL = 1e-12
# Agreement with the closed form and with the operator route. Both are
# different float expressions of the same O(1) heats, so they agree to
# rounding times the largest Boltzmann factor involved.
ROUTE_TOL = 1e-10
# Measurement rows checked against the operator route, per output.
SAMPLED_ROWS = 8
# Eigenvalue gap below which the operator route's eigenbasis is ambiguous.
MIN_GAP = 1e-6

SCALAR_COLUMNS = ("Qh", "Qc", "W", "eta_raw", "eta0", "engine_mode",
                  "crossing")
QUTRIT_LABELS = ("+B", "-B", "-J")
XXZ_LABELS = ("2B", "2(Jxy-Jz)", "-2(Jxy+Jz)", "-2B")
LEVEL_PREFIXES = ("q_h", "q_c", "dp", "p_cold", "p_post")

WORKLOADS = ("meas-grid", "thermal-sweep", "theorem1")


@dataclass(frozen=True)
class Physics:
    """Seeded inputs shared by every invocation of one run."""

    bi: float
    bf: float
    beta_c: float
    beta_h: float
    angles: tuple      # theta, phi, chi, psi
    n: tuple           # qubit-1 direction
    m: tuple           # qubit-2 direction
    theorem1_seed: int


def draw_physics(seed: int) -> Physics:
    rng = random.Random(seed)
    bi = rng.uniform(2.5, 3.5)
    bf = bi + rng.uniform(0.5, 1.5)
    beta_c = rng.uniform(0.8, 1.2)
    beta_h = beta_c * rng.uniform(0.4, 0.6)
    angles = tuple(rng.uniform(0.0, math.pi) for _ in range(4))
    return Physics(bi=bi, bf=bf, beta_c=beta_c, beta_h=beta_h, angles=angles,
                   n=_unit(rng), m=_unit(rng),
                   theorem1_seed=rng.randrange(1, 2 ** 31))


def _unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in v))
        if norm > 1e-3:
            return tuple(x / norm for x in v)


def _num(x: float) -> str:
    return repr(float(x))


def _vec(v) -> str:
    # Passed as --n=<vec>: argparse would take a leading "-x," for a flag.
    return ",".join(_num(x) for x in v)


@dataclass
class Invocation:
    """One CLI call of a workload, with its expected output and checks."""

    argv: list
    out: Path
    kind: str                  # which deep check applies
    rows: int                  # expected CSV rows (or theorem1 samples)
    swept: tuple               # names of the swept columns
    axes: tuple                # (start, stop, steps) per swept column
    labels: tuple
    context: dict = field(default_factory=dict)
    reference: tuple = None    # output bytes of the deeply checked call
    reference_ok: bool = False
    points: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    def clear(self):
        """Remove earlier outputs, so a call that writes nothing fails."""
        for path in (self.out, Path(str(self.out) + ".meta")):
            path.unlink(missing_ok=True)

    def outputs(self, stdout: str) -> tuple:
        if self.kind == "theorem1":
            return (self.out.read_bytes(), stdout.encode())
        return (self.out.read_bytes(),
                Path(str(self.out) + ".meta").read_bytes())

    def csv_bytes(self) -> int:
        """Bytes written by write_csv: the CSV plus its .meta sidecar."""
        if self.kind == "theorem1" or self.reference is None:
            return 0
        return sum(len(b) for b in self.reference)

    def expected_header(self) -> tuple:
        extra = ("q1_plus_q2",) if self.labels == XXZ_LABELS else ()
        per_level = tuple(f"{p}_{label}" for p in LEVEL_PREFIXES
                          for label in self.labels)
        return self.swept + SCALAR_COLUMNS + extra + per_level

    def check(self, rc, stdout: str) -> bool:
        """Check one call. The first successful call becomes the reference."""
        if rc != 0:
            return False
        try:
            produced = self.outputs(stdout)
        except OSError:
            return False
        if self.reference is None:
            self.reference = produced
            try:
                self.points = verify_output(self, produced)
                self.reference_ok = True
            except (VerificationError, ValueError, ArithmeticError,
                    LookupError):
                self.reference_ok = False
        return self.reference_ok and produced == self.reference


def build_workload(name: str, seed: int, workdir: Path) -> list:
    """The invocations of one pass of workload `name` for this seed."""
    ph = draw_physics(seed)
    bath = ["--bi", _num(ph.bi), "--bf", _num(ph.bf),
            "--beta-c", _num(ph.beta_c)]
    ctx = {"bi": ph.bi, "bf": ph.bf, "beta_c": ph.beta_c,
           "beta_h": ph.beta_h}
    if name == "meas-grid":
        theta, phi, chi, psi = ph.angles
        invs = []
        for mode in ("theta-phi", "theta-phi-chi"):
            path = workdir / f"contour-{mode}.csv"
            invs.append(Invocation(
                argv=["qutrit-contour", "--mode", mode] + bath + [
                    "--theta-min", "0", "--theta-max", _num(math.pi),
                    "--theta-steps", str(CONTOUR_THETA_STEPS),
                    "--j-min", "0.2", "--j-max", "2.8",
                    "--j-steps", str(CONTOUR_J_STEPS), "--out", str(path)],
                out=path, kind="qutrit-meas",
                rows=CONTOUR_THETA_STEPS * CONTOUR_J_STEPS,
                swept=("theta", "J"),
                axes=((0.0, math.pi, CONTOUR_THETA_STEPS),
                      (0.2, 2.8, CONTOUR_J_STEPS)),
                labels=QUTRIT_LABELS,
                context=dict(ctx, mode=mode)))
        path = workdir / "meas.csv"
        invs.append(Invocation(
            argv=["qutrit-meas"] + bath + [
                "--theta", _num(theta), "--phi", _num(phi),
                "--chi", _num(chi), "--psi", _num(psi),
                "--j-min", "0", "--j-max", "3",
                "--j-steps", str(MEAS_J_STEPS), "--out", str(path)],
            out=path, kind="qutrit-meas", rows=MEAS_J_STEPS, swept=("J",),
            axes=((0.0, 3.0, MEAS_J_STEPS),), labels=QUTRIT_LABELS, context=dict(ctx, angles=ph.angles)))
        path = workdir / "xxz-meas.csv"
        invs.append(Invocation(
            argv=["xxz", "--model", "xx", "--protocol", "meas"] + bath + [
                "--n=" + _vec(ph.n), "--m=" + _vec(ph.m),
                "--j-min", "0.05", "--j-max", "2",
                "--j-steps", str(XXZ_MEAS_STEPS), "--out", str(path)],
            out=path, kind="xxz-meas", rows=XXZ_MEAS_STEPS, swept=("Jxy",),
            axes=((0.05, 2.0, XXZ_MEAS_STEPS),), labels=XXZ_LABELS, context=dict(ctx, n=ph.n, m=ph.m)))
        return invs
    if name == "thermal-sweep":
        hot = ["--beta-h", _num(ph.beta_h)]
        path = workdir / "two-bath.csv"
        invs = [Invocation(
            argv=["qutrit-two-bath"] + bath + hot + [
                "--j-min", "0", "--j-max", "3",
                "--j-steps", str(THERMAL_STEPS), "--out", str(path)],
            out=path, kind="qutrit-two-bath", rows=THERMAL_STEPS,
            swept=("J",), axes=((0.0, 3.0, THERMAL_STEPS),),
            labels=QUTRIT_LABELS, context=ctx)]
        for model, swept in (("xx", "Jxy"), ("ising", "Jz")):
            path = workdir / f"xxz-{model}.csv"
            invs.append(Invocation(
                argv=["xxz", "--model", model, "--protocol", "two-bath"]
                + bath + hot + ["--j-min", "0.05", "--j-max", "2",
                                "--j-steps", str(THERMAL_STEPS),
                                "--out", str(path)],
                out=path, kind="two-bath", rows=THERMAL_STEPS,
                swept=(swept,), axes=((0.05, 2.0, THERMAL_STEPS),),
                labels=XXZ_LABELS, context=ctx))
        return invs
    if name == "theorem1":
        path = workdir / "theorem1.txt"
        return [Invocation(
            argv=["theorem1", "--dims", "2,3,4",
                  "--samples", str(THEOREM1_SAMPLES),
                  "--seed", str(ph.theorem1_seed), "--out", str(path)],
            out=path, kind="theorem1", rows=THEOREM1_SAMPLES, swept=(),
            axes=(), labels=(), context={"seed": ph.theorem1_seed})]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


class VerificationError(Exception):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise VerificationError(what)


def verify_output(inv: Invocation, produced: tuple) -> int:
    """Deep check of one output; returns the points it holds."""
    if inv.kind == "theorem1":
        return _verify_theorem1(inv, produced)
    csv_text, meta_text = (b.decode("utf-8") for b in produced)
    lines = csv_text.split("\n")
    _require(lines[-1] == "", "CSV does not end in a newline")
    header = tuple(lines[0].split(","))
    _require(header == inv.expected_header(), f"header {header}")
    col = {name: k for k, name in enumerate(header)}
    rows = [_parse_row(line, len(header), col["eta_raw"])
            for line in lines[1:-1]]
    _require(len(rows) == inv.rows, f"{len(rows)} rows, expected {inv.rows}")
    grid = list(itertools.product(*(_axis(*axis) for axis in inv.axes)))
    for row, point in zip(rows, grid):
        _require(all(_close(row[col[name]], x)
                     for name, x in zip(inv.swept, point)),
                 f"grid point {row[:len(point)]}, expected {point}")
        residual = abs(row[col["W"]] + row[col["Qh"]] + row[col["Qc"]])
        _require(residual <= CONSERVATION_TOL,
                 f"|W+Qh+Qc| = {residual:.3e}")
    meta = dict(line.split("=", 1) for line in meta_text.splitlines())
    _require(meta.get("command") == inv.command, "meta command")
    for key in ("bi", "bf", "beta_c"):
        _require(float(meta[key]) == inv.context[key], f"meta {key}")
    if inv.kind == "qutrit-two-bath":
        _verify_closed_form(inv, rows, col)
    elif inv.kind in ("qutrit-meas", "xxz-meas"):
        _verify_operator_route(inv, rows, col)
    return len(rows)




def _parse_row(line: str, width: int, blank_ok: int) -> list:
    cells = line.split(",")
    _require(len(cells) == width, f"row of {len(cells)} cells")
    row = [None if c == "" else float(c) for c in cells]
    _require(all(v is not None and math.isfinite(v)
                 for k, v in enumerate(row) if k != blank_ok),
             f"blank or non-finite cell in {line!r}")
    return row


def _axis(start: float, stop: float, steps: int) -> list:
    return [start + k * (stop - start) / (steps - 1) for k in range(steps)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ROUTE_TOL


def _verify_closed_form(inv: Invocation, rows, col):
    from ottosim import closed_form_two_bath_qutrit
    c = inv.context
    for row in rows:
        cf = closed_form_two_bath_qutrit(row[col["J"]], c["bi"], c["bf"],
                                         c["beta_c"], c["beta_h"])
        for name in ("Qh", "Qc", "W"):
            _require(_close(getattr(cf, name), row[col[name]]),
                     f"{name} at J={row[col['J']]} differs from closed form")


def _verify_operator_route(inv: Invocation, rows, col):
    """Recompute sampled rows as rho -> channel -> populations in H(Bf)."""
    from ottosim import (BathSpec, SpinDirection, Su3Angles, SubstanceSpec,
                         apply_channel, build_hamiltonian, energy_expectation,
                         gibbs_state, local_spin_channel, populations_in_basis,
                         su3_projective_channel)
    c = inv.context
    picks = sorted({round(k * (len(rows) - 1) / (SAMPLED_ROWS - 1))
                    for k in range(SAMPLED_ROWS)})
    checked = 0
    for k in picks:
        row = rows[k]
        coupling = row[col[inv.swept[-1]]]
        if inv.kind == "xxz-meas":
            spec = SubstanceSpec.xxz(Jxy=coupling, Jz=0.0)
            channel = local_spin_channel(SpinDirection(*c["n"]),
                                         SpinDirection(*c["m"]))
            level_energy = {"2B": 2 * c["bf"], "2(Jxy-Jz)": 2 * coupling,
                            "-2(Jxy+Jz)": -2 * coupling, "-2B": -2 * c["bf"]}
        else:
            spec = SubstanceSpec.qutrit(coupling)
            if "mode" in c:
                t = row[col["theta"]]
                chi = t if c["mode"] == "theta-phi-chi" else 0.5 * math.pi
                angles = (t, t, chi, 0.5 * math.pi)
            else:
                angles = c["angles"]
            channel = su3_projective_channel(Su3Angles(*angles))
            level_energy = {"+B": c["bf"], "-B": -c["bf"], "-J": -coupling}
        h_i = build_hamiltonian(spec, c["bi"])
        h_f = build_hamiltonian(spec, c["bf"])
        rho = gibbs_state(h_i, BathSpec(c["beta_c"]))
        post = apply_channel(channel, rho)
        qh = energy_expectation(post, h_f) - energy_expectation(rho, h_f)
        qc = energy_expectation(rho, h_i) - energy_expectation(post, h_i)
        _require(_close(qh, row[col["Qh"]]), f"Qh of row {k}")
        _require(_close(qc, row[col["Qc"]]), f"Qc of row {k}")
        if min(b - a for a, b in zip(h_f.eigenvalues,
                                      h_f.eigenvalues[1:])) < MIN_GAP:
            continue
        pops = populations_in_basis(post, h_f)
        order = sorted(inv.labels, key=level_energy.__getitem__)
        for label, p in zip(order, pops):
            _require(_close(p, row[col[f"p_post_{label}"]]),
                     f"p_post_{label} of row {k}")
        checked += 1
    _require(2 * checked >= len(picks), "too few rows had a clear eigenbasis")


def _verify_theorem1(inv: Invocation, produced: tuple) -> int:
    text, stdout = (b.decode("utf-8") for b in produced)
    _require(text == stdout, "report file differs from stdout")
    lines = text.splitlines()
    _require(lines[0] == f"unital-channel suite: {inv.rows} samples, dims "
             f"2,3,4, seed {inv.context['seed']}", f"first line {lines[0]!r}")
    _require(lines[-1] == "result: PASS", f"last line {lines[-1]!r}")
    control = [ln for ln in lines if ln.startswith("non-unital control group:")]
    _require(len(control) == 1, "no control-group line")
    return inv.rows + int(control[0].split(":")[1].split()[0])
