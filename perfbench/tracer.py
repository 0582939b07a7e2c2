"""Span recorder for the traced run.

Wraps the public functions of each ottosim module from outside the package:
every module attribute bound to a traced function (``cycle.labelled_spectrum``
as well as ``substances.labelled_spectrum``) is replaced by one wrapper, so
calls made inside the package are seen too. Nothing under ``src/`` changes;
``uninstall`` puts the original objects back.

Each wrapper times its span and subtracts the time covered by the spans it
caused, giving self time. Spans are folded into per-name counters in memory
as they end; nothing is written until the run reports.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("core", "substances", "measurements", "channels", "cycle", "sweeps",
          "cli")

# (module, attribute) -> span name. Every `sweep*` function of ottosim.sweeps
# is added under the single span name "sweeps.sweep" (row assembly).
TARGETS = {
    ("core", "hermitian_eigensystem"): "core.hermitian_eigensystem",
    ("core", "boltzmann_populations"): "core.boltzmann_populations",
    ("core", "gibbs_state"): "core.gibbs_state",
    ("core", "energy_expectation"): "core.energy_expectation",
    ("core", "populations_in_basis"): "core.populations_in_basis",
    ("substances", "labelled_spectrum"): "substances.labelled_spectrum",
    ("substances", "labelled_basis"): "substances.labelled_basis",
    ("substances", "detect_level_crossing"): "substances.detect_level_crossing",
    ("substances", "build_hamiltonian"): "substances.build_hamiltonian",
    ("channels", "kraus_channel"): "channels.kraus_channel",
    ("channels", "apply_channel"): "channels.apply_channel",
    ("channels", "transfer_matrix"): "channels.transfer_matrix",
    ("channels", "projective_channel"): "channels.projective_channel",
    ("channels", "damping_channel"): "channels.damping_channel",
    ("channels", "random_unital_channel"): "channels.random_unital_channel",
    ("channels", "energy_change"): "channels.energy_change",
    ("measurements", "su3_projective_channel"):
        "measurements.su3_projective_channel",
    ("measurements", "local_spin_channel"): "measurements.local_spin_channel",
    ("cycle", "run_cycle"): "cycle.run_cycle",
    ("sweeps", "theorem1_suite"): "sweeps.theorem1_suite",
    ("sweeps", "write_csv"): "sweeps.write_csv",
    ("sweeps", "format_value"): "sweeps.format_value",
    ("cli", "main"): "cli.main",
}
# Constructor validation: DensityMatrix.__init__ calls this class attribute.
CLASS_TARGETS = {("core", "DensityMatrix", "__post_init__"): "core.DensityMatrix"}
SWEEP_SPAN = "sweeps.sweep"

SPAN_NAMES = tuple(sorted(set(TARGETS.values()) | set(CLASS_TARGETS.values())
                          | {SWEEP_SPAN}))

# Extra counters, kept where the work happens.
MEASUREMENT_CYCLES = "cycle.run_cycle.measurement_calls"
TRANSFER_OUTSIDE_CYCLE = "channels.transfer_matrix.outside_cycle_calls"


def _module(name: str):
    return sys.modules.get(f"ottosim.{name}")


class Tracer:
    """Installs span wrappers; counts calls and self time per span name."""

    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counters = {MEASUREMENT_CYCLES: 0, TRANSFER_OUTSIDE_CYCLE: 0}
        self._stack = []          # [child_ns, name] per open span
        self._patched = []        # (owner, attribute, original)

    def reset(self):
        for table in (self.calls, self.self_ns, self.counters):
            for key in table:
                table[key] = 0

    def snapshot(self) -> dict:
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        out.update(self.counters)
        return out

    def install(self):
        import ottosim
        import ottosim.cli  # not imported by the package itself
        modules = [ottosim] + [_module(layer) for layer in LAYERS]
        wrapped = {}
        for (layer, attr), name in TARGETS.items():
            fn = getattr(_module(layer), attr, None)
            if fn is not None:
                wrapped[id(fn)] = (fn, self._wrap(fn, name))
        sweeps = _module("sweeps")
        for attr, fn in vars(sweeps).items():
            if attr.startswith("sweep") and callable(fn) \
                    and getattr(fn, "__module__", None) == sweeps.__name__:
                wrapped[id(fn)] = (fn, self._wrap(fn, SWEEP_SPAN))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for (layer, cls, attr), name in CLASS_TARGETS.items():
            owner = getattr(_module(layer), cls, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is not None:
                self._patch(owner, attr, self._wrap(fn, name))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        stack = self._stack
        calls, self_ns, counters = self.calls, self.self_ns, self.counters
        clock = time.perf_counter_ns
        tally = self._tally_for(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tally is not None:
                tally(args)
            frame = [0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
        return span

    def _tally_for(self, name):
        counters, stack = self.counters, self._stack
        if name == "cycle.run_cycle":
            def tally(args):
                cfg = args[0] if args else None
                if type(getattr(cfg, "protocol", None)).__name__ == "Measurement":
                    counters[MEASUREMENT_CYCLES] += 1
            return tally
        if name == "channels.transfer_matrix":
            def tally(args):
                if not any(f[1] == "cycle.run_cycle" for f in stack):
                    counters[TRANSFER_OUTSIDE_CYCLE] += 1
            return tally
        return None
