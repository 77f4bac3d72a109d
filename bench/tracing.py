"""Call spans around pipedelay's public functions, for the traced run.

`Tracer.install()` wraps every public function and every public method of
every class defined in a pipedelay module, and replaces each binding of the
original in every pipedelay module (modules that did `from .dist import
max_combine` hold their own binding, which would otherwise go uncounted).
`uninstall()` puts every original back. Spans stay in memory as
[name, start, end, parent index, info]; `layer_metrics` turns them into the
per-layer metrics.
"""

import importlib
import statistics
import time
import types

import pipedelay

LAYERS = ("scenario", "presets", "dist", "camera", "detector", "queueing",
          "analysis", "sim", "cli")

_STAGE_DISTS = tuple(f"detector.StageProfile.{s}_delay_dist"
                     for s in ("fetch", "infer", "disp"))
_LOADS = ("scenario.load_scenario", "scenario.parse_scenario")
_CLI_COMMANDS = {"analyze": "cli.analyze_ms", "simulate": "cli.simulate_trace_ms",
                 "validate": "cli.validate_ms", "sweep": "cli.sweep_ms"}


def _sim_info(args, out):
    return (len(out.cycle_times), out.frames_captured, out.frames_fetched,
            out.drops, len(out.trace) if out.trace is not None else 0)


# Extra facts a span records: `pre` sees the arguments before the call,
# `post` the arguments and the return value after it.
_PRE = {
    "dist.DelayDist.convolve": lambda args: len(args[0]) * len(args[1]),
    "dist.max_combine": lambda args: sum(len(d) for d in args[0]),
    "cli.main": lambda args: args[0][0] if args and args[0] else None,
}
_POST = {
    "sim.run": _sim_info,
    "analysis.validate_against_analysis":
        lambda args, out: sum(c.n_checked for c in out.checks),
}


class Tracer:
    def __init__(self):
        # Spans of every install() so far, with parents as indices into it.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._modules = [pipedelay]
        for layer in LAYERS:
            try:
                self._modules.append(importlib.import_module(f"pipedelay.{layer}"))
            except ModuleNotFoundError:
                pass            # a module merged away reports zero calls

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        pre, post = _PRE.get(name), _POST.get(name)

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    pre(args) if pre else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if post:
                span[4] = post(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self._modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif isinstance(obj, type):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap_methods(self, prefix, cls) -> None:
        for attr, desc in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(desc, types.FunctionType):
                new = self._wrap(f"{prefix}.{attr}", desc)
            elif isinstance(desc, (classmethod, staticmethod)):
                new = type(desc)(self._wrap(f"{prefix}.{attr}", desc.__func__))
            else:
                continue
            self._undo.append((cls, attr, desc))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _sum(values, idx) -> float:
    return float(sum(values[i] for i in idx))


def _p50_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer counts and times. Self time is a span's duration minus the
    durations of its child spans; spans nest strictly, one thread."""
    dur = [end - start for _, start, end, _, _ in spans]
    self_t = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def in_layer(layer):
        return [i for i, s in enumerate(spans) if s[0].split(".", 1)[0] == layer]

    m = {}
    loads = [i for i in named(*_LOADS)
             if spans[i][3] < 0 or spans[spans[i][3]][0] not in _LOADS]
    m["scenario.calls"] = len(in_layer("scenario"))
    m["scenario.load_ms_p50"] = _p50_ms([dur[i] for i in loads])

    for key, name in (("convolve", "dist.DelayDist.convolve"),
                      ("max_combine", "dist.max_combine")):
        idx = named(name)
        m[f"dist.{key}_calls"] = len(idx)
        m[f"dist.{key}_s"] = _sum(dur, idx)
        m[f"dist.{key}_points"] = sum(spans[i][4] for i in idx)

    m["detector.stage_dist_calls"] = len(named(*_STAGE_DISTS))
    idx = named("detector.service_distribution")
    m["detector.service_distribution_calls"] = len(idx)
    m["detector.service_distribution_s"] = _sum(dur, idx)
    m["detector.delay_bounds_s"] = _sum(dur, named("detector.detector_delay_bounds"))

    for layer in ("camera", "queueing"):
        idx = in_layer(layer)
        m[f"{layer}.calls"] = len(idx)
        m[f"{layer}.s"] = _sum(self_t, idx)

    idx = named("analysis.analyze")
    m["analysis.analyze_calls"] = len(idx)
    m["analysis.analyze_ms_p50"] = _p50_ms([dur[i] for i in idx])
    m["analysis.analyze_self_s"] = _sum(self_t, idx)
    idx = named("analysis.validate_against_analysis")
    m["analysis.validate_ms_p50"] = _p50_ms([dur[i] for i in idx])
    m["analysis.values_checked"] = sum(spans[i][4] for i in idx)

    idx = named("sim.run")
    run_s = _sum(dur, idx)
    cycles, frames, fetched, drops, events = (
        sum(spans[i][4][k] for i in idx) for k in range(5))
    m["sim.run_calls"] = len(idx)
    m["sim.run_s"] = run_s
    m["sim.run_ms_p50"] = _p50_ms([dur[i] for i in idx])
    m["sim.self_s"] = _sum(self_t, in_layer("sim"))
    m["sim.cycles"] = cycles
    m["sim.frames"] = frames
    m["sim.frames_fetched"] = fetched
    m["sim.drops"] = drops
    m["sim.frames_per_cycle"] = frames / cycles if cycles else 0.0
    m["sim.ns_per_cycle"] = 1e9 * run_s / cycles if cycles else 0.0
    m["sim.ns_per_frame"] = 1e9 * run_s / frames if frames else 0.0
    m["sim.trace_events"] = events

    mains = named("cli.main")
    for command, key in _CLI_COMMANDS.items():
        m[key] = _p50_ms([dur[i] for i in mains if spans[i][4] == command])
    m["cli.self_s"] = _sum(self_t, in_layer("cli"))
    return m


def run_cycles(spans) -> int:
    """Simulated detector cycles over every sim.run span."""
    return sum(s[4][0] for s in spans if s[0] == "sim.run")
