"""Layer tracing for the fockscan benchmark, applied from outside the package.

`Tracer.install` replaces each public function of the package's layer
modules with a recording wrapper.  A function object is replaced in *every*
``fockscan`` module namespace that holds it, because modules import names
from each other (``lindblad`` binds ``sandwich``, ``protocol`` binds
``propagate_cycle``, ``cli`` binds ``snr_sweep``).  Lazy imports such as
``from .drive import mean_displacement`` inside a function read the module
attribute at call time, so they reach the wrapper too.

Coarse functions are recorded as spans (name, start, end, parent), so each
span's self time is its duration minus what its children took.  Hot
per-step functions (tensor contractions, Fock-space helpers, the drive
amplitude, the closed-form scan rate) would produce millions of spans; they
get an aggregated call count and total time instead.

The tracer only wraps what exists.  A function that a refactor removes or
renames is simply not recorded, and `layer_metrics` leaves out every metric
that needs it instead of failing.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import namedtuple

PACKAGE = "fockscan"

# Package modules that do work; `errors` only defines exceptions.
LAYERS = ("cli", "config", "fock", "linalg", "tensorops", "gates", "drive",
          "lindblad", "protocol", "sensitivity")

# Every public function of these modules is a span ...
SPAN_LAYERS = {"config", "protocol", "lindblad"}
# ... and so are these; any other public function is counted in aggregate.
SPAN_FUNCTIONS = {"cli.main", "drive.mc_population", "sensitivity.reach_band",
                  "sensitivity.exclusion_epsilon", "gates.verify_ed"}
# Only the entry point of `cli` is wrapped; the subcommands are its self time.
CLI_FUNCTIONS = {"main"}
# Spans whose argument tuples are kept, to count distinct calls.
KEYED = {"lindblad.calibrate_bs_multiplier"}
# Integer fields copied from a span's return value (propagation and reach
# steps, Monte Carlo trajectories).
RESULT_FIELDS = ("n_steps", "n_traj")


class Span:
    __slots__ = ("parent", "name", "start", "end", "inner", "key", "fields")

    def __init__(self, parent: int, name: str):
        self.parent = parent
        self.name = name
        self.start = self.end = self.inner = 0.0
        self.key = None
        self.fields = None

    def as_list(self):
        return [getattr(self, f) for f in self.__slots__]


SpanRecord = namedtuple("SpanRecord", Span.__slots__)


class Tracer:
    """Records spans and counters for one process; `dump` returns them as JSON data."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stats: dict[str, list] = {}    # function -> [calls, seconds], every call
        self.layers: dict[str, list] = {}   # layer -> [calls, seconds], outermost entry only
        self.modes = {"1mode": 0, "multimode": 0}  # every tensorops call, by space
        self._open: list[int] = []          # indices of open spans
        self._depth: dict[str, int] = {}
        self._counting = 0                  # depth of aggregated calls
        self._patched: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap the public functions of every layer module that is imported."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        wrappers = {}
        for layer in LAYERS:
            mod = modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            self.layers[layer] = [0, 0.0]
            self._depth[layer] = 0
            for attr, obj in list(vars(mod).items()):
                if not _defined_function(obj, mod, attr):
                    continue
                if layer == "cli" and attr not in CLI_FUNCTIONS:
                    continue
                name = f"{layer}.{attr}"
                self.stats[name] = [0, 0.0]
                if layer in SPAN_LAYERS or name in SPAN_FUNCTIONS:
                    wrapper = self._span_wrapper(name, layer, obj)
                else:
                    wrapper = self._count_wrapper(name, layer, obj)
                wrappers[id(obj)] = (obj, wrapper)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, layer, fn):
        clock, spans, stat, opened = time.perf_counter, self.spans, self.stats[name], self._open
        depth, layer_stat, keyed = self._depth, self.layers[layer], name in KEYED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(opened[-1] if opened else -1, name)
            if keyed:
                span.key = repr((args, sorted(kwargs.items())))
            opened.append(len(spans))
            spans.append(span)
            depth[layer] += 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                elapsed = span.end - span.start
                opened.pop()
                depth[layer] -= 1
                stat[0] += 1
                stat[1] += elapsed
                if depth[layer] == 0:
                    layer_stat[0] += 1
                    layer_stat[1] += elapsed
                if opened and not self._counting:
                    spans[opened[-1]].inner += elapsed
            fields = {f: v for f in RESULT_FIELDS
                      if isinstance(v := getattr(result, f, None), int)}
            if fields:
                span.fields = fields
            return result

        return wrapper

    def _count_wrapper(self, name, layer, fn):
        clock, spans, stat, opened = time.perf_counter, self.spans, self.stats[name], self._open
        depth, layer_stat, modes = self._depth, self.layers[layer], self.modes
        by_space = layer == "tensorops"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = depth[layer] == 0
            depth[layer] += 1
            self._counting += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self._counting -= 1
                depth[layer] -= 1
                stat[0] += 1
                stat[1] += elapsed
                if outer:
                    layer_stat[0] += 1
                    layer_stat[1] += elapsed
                if by_space:
                    space = kwargs.get("space", args[-1] if args else None)
                    n_modes = getattr(space, "n_modes", None)
                    if n_modes is not None:
                        modes["1mode" if n_modes == 1 else "multimode"] += 1
                if opened and not self._counting:
                    spans[opened[-1]].inner += elapsed

        return wrapper

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "spans": [s.as_list() for s in self.spans],
            "stats": self.stats,
            "layers": self.layers,
            "modes": self.modes,
        }


def _defined_function(obj, mod, attr: str) -> bool:
    """A public function (plain or lru-cached) defined in `mod` itself."""
    if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
        return False
    return getattr(obj, "__module__", None) == mod.__name__


# ---------------------------------------------------------------------------
# Per-layer metrics from one or more process dumps
# ---------------------------------------------------------------------------

# metric -> (function, "calls" | "s"): read straight from the counters.
DIRECT = {
    "lindblad.swap_fidelity.calls": ("lindblad.swap_fidelity", "calls"),
    "lindblad.lossy_gate.calls": ("lindblad.lossy_ed_apply", "calls"),
    "lindblad.lossy_gate.s": ("lindblad.lossy_ed_apply", "s"),
    "lindblad.lossy_window.calls": ("lindblad.effective_lossy_window", "calls"),
    "lindblad.lossy_window.s": ("lindblad.effective_lossy_window", "s"),
    "drive.mean_displacement.calls": ("drive.mean_displacement", "calls"),
    "drive.mean_displacement.s": ("drive.mean_displacement", "s"),
    "drive.mc.s": ("drive.mc_population", "s"),
    "sensitivity.reach.s": ("sensitivity.reach_band", "s"),
    "sensitivity.scan_rate.calls": ("sensitivity.scan_rate", "calls"),
    "sensitivity.exclusion.s": ("sensitivity.exclusion_epsilon", "s"),
    "gates.pair_unitary.calls": ("gates.pair_unitary", "calls"),
    "gates.verify_ed.s": ("gates.verify_ed", "s"),
    "linalg.expm.calls": ("linalg.expm", "calls"),
    "linalg.expm.s": ("linalg.expm", "s"),
    "config.load_s": ("config.load_config", "s"),
    "protocol.sweep_calls": ("protocol.snr_sweep", "calls"),
}

# One propagation backend per prefix.
PROPAGATORS = {
    "lindblad.eff": "lindblad.effective_propagate_cycle",
    "lindblad.full": "lindblad.propagate_cycle",
}

CALIBRATE = "lindblad.calibrate_bs_multiplier"

# Every metric `layer_metrics` can report, with its unit.
UNITS = {
    "lindblad.calibrate.calls": "count",
    "lindblad.calibrate.distinct": "count",
    "lindblad.calibrate.useful_ratio": "ratio",
    "lindblad.calibrate.s": "s",
    "lindblad.swap_fidelity.calls": "count",
    "lindblad.lossy_gate.calls": "count",
    "lindblad.lossy_gate.s": "s",
    "lindblad.lossy_window.calls": "count",
    "lindblad.lossy_window.s": "s",
    "lindblad.eff.calls": "count",
    "lindblad.eff.steps": "count",
    "lindblad.eff.s": "s",
    "lindblad.eff.step_us": "us",
    "lindblad.full.calls": "count",
    "lindblad.full.steps": "count",
    "lindblad.full.s": "s",
    "lindblad.full.step_us": "us",
    "tensorops.calls.1mode": "count",
    "tensorops.calls.multimode": "count",
    "tensorops.s": "s",
    "fock.calls": "count",
    "fock.s": "s",
    "drive.mean_displacement.calls": "count",
    "drive.mean_displacement.s": "s",
    "drive.mc.s": "s",
    "drive.mc.traj_per_s": "1/s",
    "sensitivity.reach.s": "s",
    "sensitivity.reach.steps": "count",
    "sensitivity.scan_rate.calls": "count",
    "sensitivity.exclusion.s": "s",
    "gates.pair_unitary.calls": "count",
    "gates.verify_ed.s": "s",
    "linalg.expm.calls": "count",
    "linalg.expm.s": "s",
    "config.load_s": "s",
    "cli.self_s": "s",
    "protocol.sweep_calls": "count",
    "protocol.self_s": "s",
}


def layer_metrics(dumps: list[dict]) -> dict:
    """Per-layer metrics summed over the dumps of one workload's processes.

    Counts are exact.  A metric whose function or layer was not found is
    absent from the result; a ratio over zero calls is reported as 0 (or 1
    for `useful_ratio`, since no call was wasted).
    """
    stats: dict[str, list] = {}
    layers: dict[str, list] = {}
    modes = {"1mode": 0, "multimode": 0}
    spans = []
    for dump in dumps:
        for table, merged in ((dump["stats"], stats), (dump["layers"], layers)):
            for name, (calls, secs) in table.items():
                acc = merged.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += secs
        for key in modes:
            modes[key] += dump["modes"][key]
        spans.extend(SpanRecord(*s) for s in dump["spans"])

    out: dict[str, float] = {}
    for metric, (fn, what) in DIRECT.items():
        if fn in stats:
            out[metric] = stats[fn][0] if what == "calls" else stats[fn][1]

    def field_sum(fn, field):
        return sum((s.fields or {}).get(field, 0) for s in spans if s.name == fn)

    if CALIBRATE in stats:
        calls, secs = stats[CALIBRATE]
        distinct = len({s.key for s in spans if s.name == CALIBRATE})
        out["lindblad.calibrate.calls"] = calls
        out["lindblad.calibrate.distinct"] = distinct
        out["lindblad.calibrate.useful_ratio"] = distinct / calls if calls else 1.0
        out["lindblad.calibrate.s"] = secs
    for prefix, fn in PROPAGATORS.items():
        if fn in stats:
            calls, secs = stats[fn]
            steps = field_sum(fn, "n_steps")
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.steps"] = steps
            out[f"{prefix}.s"] = secs
            out[f"{prefix}.step_us"] = 1e6 * secs / steps if steps else 0.0
    if "sensitivity.reach_band" in stats:
        out["sensitivity.reach.steps"] = field_sum("sensitivity.reach_band", "n_steps")
    if "drive.mc_population" in stats:
        secs = stats["drive.mc_population"][1]
        traj = field_sum("drive.mc_population", "n_traj")
        out["drive.mc.traj_per_s"] = traj / secs if secs else 0.0
    if "tensorops" in layers:
        out["tensorops.calls.1mode"] = modes["1mode"]
        out["tensorops.calls.multimode"] = modes["multimode"]
        out["tensorops.s"] = layers["tensorops"][1]
    if "fock" in layers:
        out["fock.calls"], out["fock.s"] = layers["fock"]
    if "cli.main" in stats:
        out["cli.self_s"] = sum((_self_time(s) for s in spans if s.name == "cli.main"), 0.0)
    if "protocol" in layers:
        out["protocol.self_s"] = sum((_self_time(s) for s in spans
                                      if s.name.startswith("protocol.")), 0.0)
    return out


def _self_time(span: SpanRecord) -> float:
    """Duration minus the time of child spans and counted calls made inside it."""
    return span.end - span.start - span.inner
