"""Parameter sweeps over cycles, tabulated for CSV output.

Each sweep function returns a SweepTable: a header, rows in
deterministic order, and a metadata mapping recording every parameter.
Its columns: the swept axes; Qh, Qc, W; eta_raw (None where Qh == 0);
eta0; engine_mode and crossing as 0/1; q1_plus_q2, the summed hot flux
of the idle levels, for a kind with more than one idle level (xxz);
then q_h, q_c, dp, p_cold and p_post per level label. format_value is
the one number format of the CSV and its .meta; write_csv formats a row
with one % format per row shape, and any other row through format_value
cell by cell. The same parameters give the same bytes, moved into place
once both files are whole.

Every sweep is one call to _sweep, the loop they share. It builds the
channel once per point of the outer axes (once per sweep, once per theta
for the contour) and hands one coupling array for the whole grid to
the cycle kernel, which works row by row in a fixed order, so each row
holds the same bits as run_cycle at that grid point, whatever the grid
size. Each batch gives one list of (column, values), from which both
the header and the rows are read. A cooling measurement warns once per
batch, not once per row.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import numbers
import operator
import os
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .channels import (_apply_kraus, _check_trace_preserving,
                       _damping_operators, _draw_unitary_mixture,
                       _random_matrix, _unitary_mixture)
from .core import (BathSpec, _dagger, _densities, _eigensystems, _energies,
                   _finite, _hermitian_part, _real, boltzmann_populations,
                   row_sum)
from .cycle import Measurement, TwoBath, _run_cycles
from .errors import InvalidField, OttoSimError
from .measurements import (SpinDirection, Su3Angles, local_spin_channel,
                           su3_projective_channel)
from .substances import _KINDS, SubstanceKind
from .tolerances import TOL


@dataclass(frozen=True)
class SweepRange:
    """Inclusive linear grid: steps >= 2 spans [start, stop], steps == 1
    is the single point start (start == stop allowed only then)."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        for name in ("start", "stop"):
            _real(name, getattr(self, name))
        if not math.isfinite(self.stop - self.start):
            raise InvalidField("range span is too large to represent")
        try:
            operator.index(self.steps)
        except TypeError:
            raise InvalidField(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise InvalidField(f"steps must be >= 1, got {self.steps}")
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


def _sweep(meta, Bi, Bf, beta_c, axes, kind, protocol) -> SweepTable:
    """The loop all sweeps share: a cycle batch per outer grid point.

    axes: (column, meta prefix, SweepRange) per axis; the last, which runs
    fastest, sets the coupling of kind its column names (others stay 0).
    protocol(*point) is the stroke-3 protocol at a point of the outer axes.
    """
    *outer, (swept, _, grid) = axes
    table = _KINDS[kind]
    cs = grid.values().tolist()
    couplings = np.zeros((len(cs), len(table.couplings)))
    couplings[:, table.couplings.index(swept)] = cs
    cold = BathSpec(beta_c)
    rows = []
    for point in itertools.product(*(r.values().tolist()
                                     for _, _, r in outer)):
        batch = _run_cycles(table, couplings, Bi, Bf, cold, protocol(*point))
        columns = [(column, [v] * len(cs))
                   for (column, _, _), v in zip(outer, point)]
        columns += [
            (swept, cs), ("Qh", batch.Qh.tolist()), ("Qc", batch.Qc.tolist()),
            ("W", batch.W.tolist()),
            ("eta_raw", [None if math.isnan(v) else v
                         for v in batch.eta_raw.tolist()]),
            ("eta0", [batch.eta0] * len(cs)),
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
    meta = dict(meta, bi=Bi, bf=Bf, beta_c=beta_c)
    for _, prefix, r in axes:
        meta.update({f"{prefix}_min": r.start, f"{prefix}_max": r.stop,
                     f"{prefix}_steps": r.steps})
    return SweepTable(header=header, rows=rows, meta=meta)


def sweep_qutrit_two_bath(Bi: float, Bf: float, beta_c: float, beta_h: float,
                          j_range: SweepRange) -> SweepTable:
    """One row per J for the thermally driven qutrit cycle."""
    return _sweep({"command": "qutrit-two-bath", "beta_h": beta_h},
                  Bi, Bf, beta_c, [("J", "j", j_range)], SubstanceKind.QUTRIT,
                  lambda: TwoBath(hot=BathSpec(beta_h)))


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
        meta["beta_h"] = beta_h
    else:
        if n is None or m is None:
            raise OttoSimError("measurement protocol needs directions n and m")
        proto = Measurement(local_spin_channel(n, m))
        meta["n"] = f"{n.nx},{n.ny},{n.nz}"
        meta["m"] = f"{m.nx},{m.ny},{m.nz}"
    swept = "Jxy" if model == "xx" else "Jz"
    return _sweep(meta, Bi, Bf, beta_c, [(swept, "j", coupling_range)],
                  SubstanceKind.XXZ, lambda: proto)


@dataclass(frozen=True)
class Theorem1Report:
    """Outcome of the unital-channel energy-gain property suite.

    min_unital is the smallest energy change over the unital samples other
    than the identity. max_identity is the largest |energy change| over
    the identity-channel samples, which must leave every energy exactly
    unchanged.
    """

    samples: int
    dims: tuple
    seed: int
    min_unital: float
    control_samples: int
    min_control: float
    control_negative_found: bool
    passed: bool
    max_identity: float = 0.0

    def lines(self):
        if self.max_identity == 0.0:
            identity = "identity-channel row: energy change 0 (exact)"
        else:
            identity = (f"identity-channel row: max |energy change| "
                        f"{self.max_identity:.6e} (expected exactly 0)")
        return [
            f"unital-channel suite: {self.samples} samples, dims "
            f"{','.join(str(d) for d in self.dims)}, seed {self.seed}",
            f"min energy change over non-identity unital channels on "
            f"passive states: "
            f"{self.min_unital:.6e} (floor {-TOL.theorem_slack:g})",
            identity,
            f"non-unital control group: {self.control_samples} samples, "
            f"min energy change {self.min_control:.6e}, expected-negative "
            f"found: {'yes' if self.control_negative_found else 'no'}",
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ]


# Samples drawn and computed per array pass of theorem1_suite. The stacks
# of one pass take well under a megabyte, so memory does not grow with the
# sample count.
_THEOREM1_BLOCK = 256

# Channel kinds of the unital samples. A mixture draws 1 to 4 unitaries and
# a projective channel has d <= 4 projectors, so 4 Kraus slots hold any
# channel; unused slots stay zero.
_MIXTURE, _PROJECTIVE, _IDENTITY = range(3)
_KRAUS_SLOTS = 4


def _theorem1_schedule(dims, samples):
    """(dim, channel kind, Gibbs state?) of each unital sample, in order.

    The samples cycle through every combination: the dimension changes
    fastest, then the channel kind, then the state (Gibbs, then sorted).
    """
    combos = [(dim, kind, gibbs) for gibbs in (True, False)
              for kind in (_MIXTURE, _PROJECTIVE, _IDENTITY) for dim in dims]
    return [combos[i % len(combos)] for i in range(samples)]


def _draw_unital(rng, kind, gibbs, dim):
    """Random numbers of one unital sample: Hamiltonian, state, channel.

    The state is a Gibbs beta or passive populations (sorted descending
    against ascending energies); the channel is the draws of a unitary
    mixture, the matrix behind a projective basis, or None.
    """
    h = _random_matrix(rng, dim)
    if gibbs:
        state = float(rng.uniform(0.05, 5.0))
    else:
        pops = np.sort(rng.random(dim) + 1e-3)[::-1]
        state = pops / pops.sum()
    if kind == _MIXTURE:
        seed = int(rng.integers(2 ** 31))
        channel = _draw_unitary_mixture(dim, seed, int(rng.integers(1, 5)))
    elif kind == _PROJECTIVE:
        channel = _random_matrix(rng, dim)
    else:
        channel = None
    return h, kind, state, channel


def _unital_changes(dim, draws):
    """Energy changes of unital samples of one dimension, as stacks."""
    matrices, kinds, states, channels = zip(*draws)
    h, vals, vecs = _eigensystems(_finite(_hermitian_part(np.array(matrices))))
    n = len(draws)
    pops = np.empty((n, dim))
    gibbs = [k for k in range(n) if isinstance(states[k], float)]
    drawn = [k for k in range(n) if not isinstance(states[k], float)]
    if drawn:
        pops[drawn] = [states[k] for k in drawn]
    if gibbs:
        betas = np.array([states[k] for k in gibbs])
        pops[gibbs] = boltzmann_populations(vals[gibbs], betas[:, None])

    kraus = np.zeros((n, _KRAUS_SLOTS, dim, dim), dtype=complex)
    mix = [k for k in range(n) if kinds[k] == _MIXTURE]
    proj = [k for k in range(n) if kinds[k] == _PROJECTIVE]
    kraus[[k for k in range(n) if kinds[k] == _IDENTITY], 0] = np.eye(dim)
    if mix or proj:
        # One eigensystem call for every channel basis of the group.
        stack = [channels[k][1] for k in mix] + [channels[k][None] for k in proj]
        bases = _eigensystems(_finite(_hermitian_part(np.concatenate(stack))))[2]
        counts = [len(channels[k][0]) for k in mix]
        r = sum(counts)
        if mix:
            ops = _unitary_mixture(
                np.concatenate([channels[k][0] for k in mix]), bases[:r],
                np.concatenate([channels[k][2] for k in mix]))
            kraus[np.repeat(mix, counts),
                  np.concatenate([np.arange(c) for c in counts])] = ops
        if proj:
            # Projector k of a basis is the outer product of its column k.
            cols = bases[r:].swapaxes(-1, -2)
            kraus[proj, :dim] = cols[..., :, None] * cols.conj()[..., None, :]
    return _passive_energy_changes(h, vecs, pops, kraus)


def _draw_control(rng, dim):
    """Random numbers of one control sample: level energies, beta, damping."""
    energies = np.sort(rng.uniform(-2.0, 2.0, size=dim))
    beta = float(rng.uniform(0.2, 1.0))
    ground = int(np.argmin(energies))
    kraus = _damping_operators(dim, float(rng.uniform(0.3, 0.9)), ground)
    return energies, beta, kraus


def _control_changes(dim, draws):
    """Energy changes of damped thermal states of one dimension, as stacks."""
    energies, betas, kraus = zip(*draws)
    diag = np.zeros((len(draws), dim, dim), dtype=complex)
    diag[:, range(dim), range(dim)] = energies
    h, vals, vecs = _eigensystems(_finite(diag))
    pops = boltzmann_populations(vals, np.array(betas)[:, None])
    return _passive_energy_changes(h, vecs, pops, np.array(kraus))


def _passive_energy_changes(h, vecs, pops, kraus):
    """Tr[(E(rho) - rho) H] for rho = sum_n pops_n |v_n><v_n|, per sample.

    h (n, d, d) with eigenvectors vecs, pops (n, d), Kraus stacks
    kraus (n, r, d, d). Both states pass the DensityMatrix checks and the
    channels the trace-preservation check.
    """
    rho = _densities(_finite((vecs * pops[:, None, :]) @ _dagger(vecs)))
    _check_trace_preserving(_finite(kraus))
    post = _densities(_finite(_apply_kraus(kraus, rho)))
    return _energies(post, h) - _energies(rho, h)


def _in_blocks(count, draw, compute):
    """Per-sample energy changes, drawn in order and computed in blocks.

    draw(i) returns (dim, draws of sample i); each block of samples is
    drawn in full, then compute(dim, list of draws) runs once per
    dimension present.
    """
    out = np.empty(count)
    for start in range(0, count, _THEOREM1_BLOCK):
        groups = {}
        for i in range(start, min(count, start + _THEOREM1_BLOCK)):
            dim, draws = draw(i)
            index, block = groups.setdefault(dim, ([], []))
            index.append(i)
            block.append(draws)
        for dim, (index, block) in groups.items():
            out[index] = compute(dim, block)
    return out


def _theorem1_energy_changes(dims, samples, seed):
    """Schedule and per-sample energy changes of theorem1_suite.

    Returns the schedule, the unital samples' changes (one per schedule
    entry) and the control group's changes.
    """
    rng = np.random.default_rng(seed)
    schedule = _theorem1_schedule(dims, samples)

    def unital(i):
        dim, kind, gibbs = schedule[i]
        return dim, _draw_unital(rng, kind, gibbs, dim)

    def control(i):
        dim = dims[i % len(dims)]
        return dim, _draw_control(rng, dim)

    changes = _in_blocks(samples, unital, _unital_changes)
    control_changes = _in_blocks(max(10, samples // 20), control,
                                 _control_changes)
    return schedule, changes, control_changes


def theorem1_suite(dims=(2, 3, 4), samples: int = 1000,
                   seed: int = 1) -> Theorem1Report:
    """Property suite: unital channels never drain passive states.

    Draws (channel, passive state, Hamiltonian) triples across the given
    dimensions, mixing unitary-mixture channels, random projective
    channels, and the identity; records the minimum energy change over
    the non-identity channels and requires every identity sample to
    change the energy by exactly 0.
    The control group applies non-unital ground-sink damping to excited
    thermal states and must find a strictly negative energy change.

    The random numbers are drawn sample by sample from one generator;
    blocks of _THEOREM1_BLOCK samples are then validated and computed as
    stacks, one per dimension, with every check of the scalar calls
    (hermitian_eigensystem, kraus_channel, DensityMatrix,
    energy_expectation) applied to each sample. Each energy change holds
    the bits of the scalar route through those calls.
    """
    try:
        given = list(dims)
    except TypeError:
        given = []
    if not given or not all(isinstance(d, numbers.Integral) and 2 <= d <= 4
                            for d in given):
        raise OttoSimError(f"dims must be integers in {{2,3,4}}, got {dims!r}")
    dims = tuple(sorted({int(d) for d in given}))
    if not (isinstance(samples, numbers.Integral) and samples >= 1):
        raise OttoSimError(f"samples must be an integer >= 1, got {samples!r}")
    if not (isinstance(seed, numbers.Integral) and not isinstance(seed, bool)
            and seed >= 0):
        raise OttoSimError(f"seed must be an integer >= 0, got {seed!r}")
    schedule, changes, control = _theorem1_energy_changes(dims, samples, seed)
    identity = np.array([kind == _IDENTITY for _, kind, _ in schedule])
    max_identity = float(np.abs(changes[identity]).max(initial=0.0))
    # the first sample is always a mixture, so this is never empty
    min_unital = float(changes[~identity].min())
    min_control = float(control.min())
    found = min_control < -1e-6
    passed = ((min_unital >= -TOL.theorem_slack) and found
              and max_identity == 0.0)
    return Theorem1Report(samples=samples, dims=dims, seed=seed,
                          min_unital=min_unital,
                          control_samples=len(control),
                          min_control=min_control,
                          control_negative_found=found, passed=passed,
                          max_identity=max_identity)


def format_value(v) -> str:
    """CSV cell: blank for None, %d for integers (bools too), else %.17g."""
    return "" if v is None else (
        "%d" if isinstance(v, (int, np.integer)) else "%.17g") % v


# format_value's format for each exact cell type write_csv formats in bulk.
_CELL_FORMATS = {float: "%.17g", int: "%d", bool: "%d"}


@contextlib.contextmanager
def _replacing(*paths):
    """Text files that replace paths only once all are written and closed.

    Each is a new temp file next to its target, created by open() as a
    plain write would create it. If anything fails first, every temp is
    removed and no target changes.
    """
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
    any earlier output only once both are fully written. Rows of exact
    floats, ints and bools are formatted with one % format per row shape
    (the tuple of cell types); any other row goes through format_value
    cell by cell.
    """
    formats = {}
    with _replacing(path, path + ".meta") as (f, meta):
        f.write(",".join(table.header) + "\n")
        for row in table.rows:
            cells = tuple(row)
            shape = tuple(map(type, cells))
            fmt = formats.get(shape)
            if fmt is None:
                specs = [_CELL_FORMATS.get(t) for t in shape]
                fmt = formats[shape] = ("" if None in specs
                                        else ",".join(specs) + "\n")
            f.write(fmt % cells if fmt
                    else ",".join(map(format_value, cells)) + "\n")
        for key, value in sorted(table.meta.items()):
            text = format_value(value) if isinstance(value, float) else value
            meta.write(f"{key}={text!s}\n")
