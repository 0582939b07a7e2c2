"""Four-stroke Otto cycle execution and heat/work/efficiency accounting.

Stroke order: cold-bath thermalization at field Bi; adiabatic ramp
Bi -> Bf with populations pinned to their labelled levels; energy
injection at Bf (hot-bath thermalization or a non-selective measurement);
adiabatic return Bf -> Bi. Signs: W < 0 means work extracted, Qh > 0
means the stroke-3 source delivered energy into the substance.

Per-level bookkeeping is exact label arithmetic: q_h[l] = E_l(Bf) dp_l
and q_c[l] = -E_l(Bi) dp_l, so conservation W = -(Qh + Qc), the flux
decompositions, and the idle passthrough q_c = -q_h hold to rounding.

Entropy ledger, with S the Shannon and D the relative entropy of the
labelled populations, p_post those after stroke 3. As p_cold is Gibbs at
Bi, beta_c Qc = -[S(p_post) - S(p_cold)] - D(p_post||p_cold); as a hot
bath leaves its Gibbs state at Bf, a two-bath cycle also has
beta_h Qh + beta_c Qc = -Sigma, Sigma = D(p_post||p_cold) + D(p_cold||p_post).
So a two-bath engine has eta = 1 - beta_h/beta_c - Sigma/(beta_c Qh), and
a measurement engine eta = 1 - (Delta S + D(p_post||p_cold))/(beta_c Qh).

_run_cycles is the one cycle kernel: it runs N cycles of one kind table,
given as an (N, c) coupling array. Every per-level array of the kernel
is laid out level first, (d, N) and C-contiguous: a step over the levels
is d loops over N rows, not N loops over d = 2 to 4 levels, and a sum
over levels is core.level_sum's fold of those rows. CycleBatch shows
them transposed, as (N, d) views. Its stroke 3 is a
hot bath, a BathSpec common to every row, or a checked Kraus stack with
one measurement per block of rows (a sweep's outer point). Its callers
warn: run_cycle_batch (which run_cycle calls as a batch of one) and
sweeps._sweep each call _warn_cooling once, and the warning names the
line of the first caller outside the ottosim package.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import NamedTuple, Optional, Union

import numpy as np

from ._record import Record
from .channels import (KrausChannel, _check_trace_preserving, _operators,
                       _transfer_entries)
from .core import BathSpec, _gibbs, _real, _require, level_sum
from .errors import (DimensionMismatch, InvalidField, MeasurementCoolsWarning,
                     NotAnEngine, OttoSimError)
from .substances import (_KINDS, SubstanceSpec, _check_fields, _couplings,
                         _crossing_fields, _level_energies,
                         check_uniform_gap_ratio)
from .tolerances import TOL


class TwoBath(Record):
    """Stroke 3 thermalizes with a hot bath."""

    hot: BathSpec

    def __post_init__(self):
        _require("hot", self.hot, BathSpec)


class Measurement(Record):
    """Stroke 3 applies a non-selective quantum channel."""

    channel: KrausChannel

    def __post_init__(self):
        _require("channel", self.channel, KrausChannel)


Protocol = Union[TwoBath, Measurement]


class CycleConfig(Record):
    spec: SubstanceSpec
    Bi: float
    Bf: float
    cold: BathSpec
    protocol: Protocol

    def __post_init__(self):
        _require("spec", self.spec, SubstanceSpec)
        _require("cold", self.cold, BathSpec)
        fields = _check_fields(self.Bi, self.Bf)
        _check_protocol(self.spec.dim, self.protocol)
        for name, value in zip(("Bi", "Bf"), fields):
            object.__setattr__(self, name, value)


def _check_protocol(dim: int, protocol: Protocol) -> None:
    """InvalidField or DimensionMismatch unless protocol can drive stroke 3
    of a substance of dim levels."""
    if not isinstance(protocol, (TwoBath, Measurement)):
        raise InvalidField(f"unknown protocol {protocol!r}")
    if isinstance(protocol, Measurement) and protocol.channel.dim != dim:
        raise DimensionMismatch(
            f"channel dim {protocol.channel.dim} vs substance dim {dim}")


class CycleRecord(Record):
    """Complete accounting for one cycle.

    engine_mode is exactly W < 0.0 and Qh > 0.0; eta is None elsewhere.
    eta_raw = -W/Qh, which sweeps plot past the engine regime, is None
    exactly where Qh == 0.0, as in a no-op stroke, whose populations
    TOL.population_snap snaps back. Maps are keyed by level label.
    """

    labels: tuple
    idle_labels: tuple
    Qh: float
    Qc: float
    W: float
    eta: Optional[float]
    eta_raw: Optional[float]
    eta0: float
    per_level_flux_hot: dict
    per_level_flux_cold: dict
    delta_p: dict
    populations_cold: dict
    populations_hot: dict
    engine_mode: bool
    crossing_warning: bool


class CycleBatch(Record):
    """Accounting for N cycles of one substance kind at common fields and
    cold bath; run_cycle_batch's cycles differ only in their couplings.

    Row k of every array belongs to the k-th substance of the batch;
    per-level arrays have shape (N, d) with columns in label order. They
    are transposed views of the kernel's (d, N) arrays: a.T[l] is level
    l of every cycle, one contiguous row, and a[k] a strided row.
    eta_raw is NaN exactly where Qh == 0.0; engine_mode as in CycleRecord.
    """

    labels: tuple
    idle_labels: tuple
    eta0: float
    Qh: np.ndarray
    Qc: np.ndarray
    W: np.ndarray
    eta_raw: np.ndarray
    engine_mode: np.ndarray
    crossing: np.ndarray
    flux_hot: np.ndarray
    flux_cold: np.ndarray
    delta_p: np.ndarray
    p_cold: np.ndarray
    p_hot: np.ndarray

    def record(self, k: int) -> CycleRecord:
        """The full record of the k-th cycle."""
        Qh = float(self.Qh[k])
        eta_raw = float(self.eta_raw[k]) if Qh != 0.0 else None
        engine = bool(self.engine_mode[k])

        def by_label(per_level):
            return dict(zip(self.labels, per_level[k].tolist()))

        return CycleRecord(
            labels=self.labels,
            idle_labels=self.idle_labels,
            Qh=Qh, Qc=float(self.Qc[k]), W=float(self.W[k]),
            eta=eta_raw if engine else None,
            eta_raw=eta_raw,
            eta0=self.eta0,
            per_level_flux_hot=by_label(self.flux_hot),
            per_level_flux_cold=by_label(self.flux_cold),
            delta_p=by_label(self.delta_p),
            populations_cold=by_label(self.p_cold),
            populations_hot=by_label(self.p_hot),
            engine_mode=engine,
            crossing_warning=bool(self.crossing[k]),
        )


def run_cycle_batch(specs, Bi: float, Bf: float, cold: BathSpec,
                    protocol: Protocol) -> CycleBatch:
    """Execute one Otto cycle per substance in specs and account for all.

    The substances must share one kind; fields, cold bath and stroke-3
    protocol are common to the batch. The cold-stroke populations are
    Boltzmann weights of the labelled spectrum at Bi. Under TwoBath the
    stroke-3 populations are Boltzmann weights at Bf; under Measurement
    the thermal state is carried to Bf along its labels and pushed
    through the channel's transfer matrix in the labelled eigenbasis,
    which does not depend on the couplings; it comes from the kind table.

    Every step is elementwise or a fixed-order sum within a row, so row k
    has the same bits as a batch of specs[k] alone. A cooling measurement
    (Qh < 0 in any row) raises one MeasurementCoolsWarning per call.
    Energies, heats or work too large to represent raise InvalidField, and
    so do specs that are not iterable, a spec that is not a SubstanceSpec
    and a cold bath that is not a BathSpec, naming the argument, before
    any cycle runs. A hand-built channel whose operators are not d x d
    matrices of numbers raises OttoSimError (DimensionMismatch for a
    shape that is not d x d), and NotTracePreserving if they are not
    trace preserving.
    """
    try:
        specs = tuple(specs)
    except TypeError:
        raise InvalidField(f"specs must be an iterable of SubstanceSpec, "
                           f"got {specs!r}") from None
    if not specs:
        raise OttoSimError("a cycle batch needs at least one substance")
    for k, spec in enumerate(specs):
        _require(f"specs[{k}]", spec, SubstanceSpec)
    _require("cold", cold, BathSpec)
    if any(s.kind is not specs[0].kind for s in specs):
        raise InvalidField("substances of one batch must share one kind")
    kind = _KINDS[specs[0].kind]
    _check_protocol(len(kind.labels), protocol)
    couplings = _couplings(kind, specs)
    if isinstance(protocol, TwoBath):
        return _run_cycles(kind, couplings, Bi, Bf, cold, protocol.hot)
    kraus = _operators(protocol.channel)[None]
    # kraus_channel's own check, which a hand-built channel skipped
    _check_trace_preserving(kraus)
    batch = _run_cycles(kind, couplings, Bi, Bf, cold, kraus)
    _warn_cooling(int(np.count_nonzero(batch.Qh < 0.0)), len(specs))
    return batch


def _warn_cooling(cooled: int, total: int) -> None:
    """One MeasurementCoolsWarning if a measurement cooled in cooled of
    total cycles, naming the first caller outside the package; called by
    run_cycle_batch and sweeps._sweep."""
    if cooled:
        frame, level = sys._getframe(), 1
        while frame is not None and frame.f_globals.get(
                "__name__", "").partition(".")[0] == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"measurement stroke removed energy (Qh < 0) in "
                      f"{cooled} of {total} cycles",
                      MeasurementCoolsWarning, stacklevel=level)


def _run_cycles(kind, couplings: np.ndarray, Bi: float, Bf: float,
                cold: BathSpec, stroke) -> CycleBatch:
    """run_cycle_batch for N substances of one kind (a substances._Kind),
    given as their couplings, shape (N, c) in the kind's coupling order.

    stroke is the hot bath of every row, a BathSpec, or the operators of
    B measurements as one Kraus stack (B, r, d, d), with no unital flag:
    stroke[b] drives the b-th of B
    consecutive blocks of N/B rows. Zero operators may pad a channel of
    lower rank; they leave its bits as they are. A stack's shape is
    checked against the kind's d and the rows (its channels were checked
    where they were built), anything else raises InvalidField, and each
    row gets the bits it would get in a call of its block alone. No
    warning is raised.
    """
    Bi, Bf = _check_fields(Bi, Bf)
    dim = len(kind.labels)
    if isinstance(stroke, np.ndarray):
        if stroke.ndim != 4 or stroke.shape[2:] != (dim, dim):
            raise DimensionMismatch(f"Kraus operators of shape "
                                    f"{stroke.shape[2:]} vs substance dim "
                                    f"{dim}")
        if not len(stroke) or len(couplings) % len(stroke):
            raise OttoSimError(f"{len(couplings)} rows do not split into "
                               f"{len(stroke)} equal blocks")
    elif not isinstance(stroke, BathSpec):
        raise InvalidField(f"stroke 3 must be a BathSpec or a Kraus stack, "
                           f"got {stroke!r}")
    offsets, (ei, ef) = _level_energies(kind, couplings, (Bi, Bf))
    # Overflow is caught by the check on W below, not by numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        p_cold = _gibbs(ei, cold.beta)
        if isinstance(stroke, BathSpec):
            p_hot = _gibbs(ef, stroke.beta)
        else:
            # (level, block, row of the block); block b runs under stroke[b]
            blocks = p_cold.reshape(dim, len(stroke), -1)
            # The input state is diagonal in the labelled basis, so only
            # the diagonal transfer p' = T p matters: p'_m is the fold
            # 0.0 + T[m, 0] p_0 + T[m, 1] p_1 + ..., each term over every
            # row at once, with each row's T that of its block.
            t = _transfer_entries(stroke, kind.basis).transpose(2, 1, 0)
            p_hot = level_sum(t_n * p_n for t_n, p_n
                              in zip(t[..., None], blocks)).reshape(ef.shape)
            # Levels the channel leaves alone must not pick up rounding
            # noise: a stray 1e-16 would make a no-op stroke an engine.
            still = np.abs(p_hot - p_cold) <= TOL.population_snap
            p_hot = np.where(still, p_cold, p_hot)

        delta_p = p_hot - p_cold
        flux_hot = ef * delta_p
        flux_cold = -ei * delta_p
        Qh = level_sum(flux_hot)
        Qc = level_sum(flux_cold)
        W = -(Qh + Qc)
    # W is finite only where Qh and Qc are
    if not np.isfinite(W).all():
        raise InvalidField("heat or work is too large to represent")
    eta_raw = -W / np.where(Qh != 0.0, Qh, np.nan)
    fields = _crossing_fields(kind, offsets)
    crossing = ((Bi <= fields) & (fields <= Bf)).any(axis=0)

    return CycleBatch(
        labels=kind.labels,
        idle_labels=tuple(label for label, idle
                          in zip(kind.labels, kind.idle) if idle),
        eta0=1.0 - Bi / Bf,
        Qh=Qh, Qc=Qc, W=W, eta_raw=eta_raw,
        engine_mode=(W < 0.0) & (Qh > 0.0),
        crossing=crossing,
        flux_hot=flux_hot.T, flux_cold=flux_cold.T, delta_p=delta_p.T,
        p_cold=p_cold.T, p_hot=p_hot.T,
    )


def run_cycle(cfg: CycleConfig) -> CycleRecord:
    """Execute one Otto cycle and return its full record.

    A batch of one, run as run_cycle_batch runs it; a cooling measurement
    (Qh < 0) raises MeasurementCoolsWarning but still returns the record.
    """
    _require("cfg", cfg, CycleConfig)
    return run_cycle_batch((cfg.spec,), cfg.Bi, cfg.Bf, cfg.cold,
                           cfg.protocol).record(0)


class ClosedForm(NamedTuple):
    Qh: float
    Qc: float
    W: float
    eta: Optional[float]


def _shifted_exp(*exponents):
    """e^(x - max x) for each exponent x; OttoSimError if one is not finite."""
    if not all(math.isfinite(x) for x in exponents):
        raise InvalidField("beta*B or beta*J is too large to represent")
    top = max(exponents)
    return tuple(math.exp(x - top) for x in exponents)


def closed_form_two_bath_qutrit(J: float, Bi: float, Bf: float,
                                beta_c: float, beta_h: float) -> ClosedForm:
    """Analytic two-bath qutrit heats, work, and efficiency.

    Direct evaluation of the closed forms; W obeys the extraction sign
    convention W = -(Qh + Qc). The efficiency comes from the compact
    ratio (Bf - Bi)/(Bf + Omega J); eta is None when that ratio's
    denominator vanishes or, as run_cycle's eta_raw, when Qh == 0.0.
    """
    J = _real("J", J)
    Bi, Bf = _check_fields(Bi, Bf)
    beta_c, beta_h = BathSpec(beta_c).beta, BathSpec(beta_h).beta
    # Every ratio below is a quotient of exponential sums, so both sums are
    # scaled by e^-max(exponent) first: no term can overflow.
    hot_up, hot_down, hot_idle = _shifted_exp(
        -beta_h * Bf, beta_h * Bf, beta_h * J)
    cold_up, cold_down, cold_idle = _shifted_exp(
        -beta_c * Bi, beta_c * Bi, beta_c * J)
    zh = hot_up + hot_down + hot_idle
    zc = cold_up + cold_down + cold_idle
    hot_num = 2.0 * hot_up + hot_idle
    cold_num = 2.0 * cold_up + cold_idle
    Qh = ((hot_num * Bf - J * hot_idle) / zh
          - (cold_num * Bf - J * cold_idle) / zc)
    Qc = (-(hot_num * Bi - J * hot_idle) / zh
          + (cold_num * Bi - J * cold_idle) / zc)
    W = -(Qh + Qc)

    cold_j = beta_c * (Bi + J)
    hot_j = beta_h * (Bf + J)
    (e_cold_j, e_cold_j_hot, e_hot_j_cold, e_hot_j, e_cold,
     e_hot) = _shifted_exp(cold_j, cold_j + 2 * beta_h * Bf,
                           hot_j + 2 * beta_c * Bi, hot_j,
                           2 * beta_c * Bi, 2 * beta_h * Bf)
    num = e_cold_j + e_cold_j_hot - e_hot_j_cold - e_hot_j
    den = (2.0 * (e_cold - e_hot) + e_cold_j - e_hot_j - e_cold_j_hot
           + e_hot_j_cold)
    eta = None
    if Qh != 0.0 and den != 0.0:
        omega = num / den
        ratio_den = Bf + omega * J
        if ratio_den != 0.0:
            eta = (Bf - Bi) / ratio_den
    return ClosedForm(Qh=Qh, Qc=Qc, W=W, eta=eta)


def efficiency_ratio_identity(rec: CycleRecord) -> float:
    """1 - (sum of idle-level hot fluxes)/Qh; equals eta/eta0 in engine mode.

    For levels s_n B + o_n, eta/eta0 = 1 - sum_n o_n dp_n / Qh. The
    identity holds because moving levels carry no offset (built-in kinds).
    """
    _require("rec", rec, CycleRecord)
    if not rec.engine_mode:
        raise NotAnEngine("efficiency ratio is defined only in engine mode")
    idle_sum = sum(rec.per_level_flux_hot[label] for label in rec.idle_labels)
    return 1.0 - idle_sum / rec.Qh


def uniform_ratio_efficiency_check(cfg: CycleConfig) -> Optional[float]:
    """1 - 1/r when all gaps scale uniformly by r = Bf/Bi, else None.

    When this returns a value, run_cycle's efficiency equals it for any
    hot bath and any unital measurement channel.
    """
    _require("cfg", cfg, CycleConfig)
    r = check_uniform_gap_ratio(cfg.spec, cfg.Bi, cfg.Bf)
    return None if r is None else 1.0 - 1.0 / r
