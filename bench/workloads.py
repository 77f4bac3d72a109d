"""The benchmark's workloads: how each builds its ops from a seed and checks them.

An op is one closed-loop call into pipedelay. `call` is the only part that
is timed; `check` turns its raw output into an `Outcome` (a digest of every
output byte, a pass/fail verdict and the simulated cycle count) outside the
timed region.

Every pipedelay function is reached through its module attribute at call
time (`analysis.analyze`, not a name bound at import), so the tracing
wrappers that `tracing.Tracer` installs see every call.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from pipedelay import analysis, camera, cli, detector, dist, scenario, sim

# Ops of the soundness gate in tests/test_acceptance.py: each scenario runs
# for 1e4 capture intervals with 50 objects. The gate has 1000 scenarios; a
# pass here takes its first GATE_SCENARIOS, so that every op repeats a few
# times within a run.
GATE_SCENARIOS = 500
GATE_CYCLES = 1e4
GATE_OBJECTS = 50
GATE_SEED = 123

HOUR_MS = 3_600_000.0
JITTER_MS = 3.0


@dataclass
class Outcome:
    digest: str
    ok: bool
    cycles: int | None          # None when the op hides its SimResults (CLI)
    stdout_bytes: int = 0
    file_bytes: int = 0


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


# -- digests ------------------------------------------------------------------


def _feed(h, obj) -> None:
    """Hash every byte of a result: arrays bit for bit, floats by repr."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for x in obj:
            _feed(h, x)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for k in sorted(obj):
            _feed(h, k)
            _feed(h, obj[k])
    else:
        h.update(repr(obj).encode())
    h.update(b";")


def digest_of(*objs) -> str:
    h = hashlib.sha256()
    for obj in objs:
        _feed(h, obj)
    return h.hexdigest()


# -- library ops: analyze -> run -> validate -----------------------------------


def _pipeline_op(label, cam, usb, profile, variant, cfg) -> Op:
    def call():
        bounds = analysis.analyze(cam, usb, profile, variant)
        result = sim.run(cfg)
        report = analysis.validate_against_analysis(result, bounds)
        return bounds, result, report

    def check(out) -> Outcome:
        bounds, result, report = out
        return Outcome(digest_of(bounds, result, report), report.ok,
                       len(result.cycle_times))

    return Op(label, call, check)


# -- gate_corpus ---------------------------------------------------------------

RESOLUTIONS = ((160, 120), (320, 240), (640, 480), (352, 288))


def _rand_dist(rng, lo, hi):
    n = int(rng.integers(1, 9))
    vals = np.unique(np.round(rng.uniform(lo, hi, n), 3))
    probs = rng.dirichlet(np.ones(len(vals)))
    return dist.DelayDist(vals, probs)


def gate_scenario(rng, i):
    """One scenario of the soundness gate; the same draws as `_random_scenario`
    in tests/test_acceptance.py, which `gate_selfcheck` holds it to."""
    while True:
        fps = float(rng.uniform(5.0, 60.0))
        m = int(rng.choice((8, 16, 32)))
        b = int(rng.integers(512, 4096))
        w, h = RESOLUTIONS[int(rng.integers(0, len(RESOLUTIONS)))]
        bits = int(rng.choice((8, 12, 16, 24)))
        usb = camera.UsbLinkConfig(bytes_per_microframe=b, urb_microframes=m)
        if 1000.0 / fps > usb.urb_period_ms:
            break
    floor = 0.0
    if rng.integers(0, 3) == 2:
        floor = round(float(rng.uniform(0.0, 0.7 * 1000.0 / fps)), 3)
    cam = camera.CameraConfig(frame_rate=fps, width=w, height=h,
                              bits_per_pixel=bits, min_capture_delay=floor)
    profile = detector.StageProfile(
        fetch_exec=_rand_dist(rng, 0.5, 12.0),
        infer_cpu=_rand_dist(rng, 0.5, 10.0),
        infer_gpu=_rand_dist(rng, 5.0, 160.0),
        disp_exec=_rand_dist(rng, 0.5, 12.0),
        disp_block=_rand_dist(rng, 0.0, 8.0) if rng.random() < 0.5 else dist.ZERO_DELAY,
        infer_inflation=_rand_dist(rng, 0.0, 30.0),
    )
    k = i % 4
    if k == 0:
        variant = detector.Vanilla(int(rng.integers(1, 9)))
    elif k == 1:
        variant = detector.OnDemand()
    elif k == 2:
        s0 = detector.service_distribution(profile, detector.OnDemand())
        if rng.random() < 0.5:
            theta = detector.compute_theta_fetch(
                s0.min, profile.fetch_delay_dist(True).max,
                detector.blocking_bounds(cam, usb)[1])
        else:
            theta = round(float(rng.uniform(0.0, s0.min)), 3)
        variant = detector.ZeroSlack(theta)
    else:
        variant = detector.ContentionFree()
    return cam, usb, profile, variant


def gate_corpus(seed: int, n: int):
    """The gate's first n scenarios and simulation seeds, drawn in the gate's
    order: each scenario, then its simulation seed, from one generator."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        scen = gate_scenario(rng, i)
        out.append((scen, int(rng.integers(2 ** 32))))
    return out


def _gate_ops(seed, n) -> list[Op]:
    ops = []
    for i, ((cam, usb, profile, variant), sim_seed) in enumerate(gate_corpus(seed, n)):
        cfg = sim.SimConfig(camera=cam, usb=usb, profile=profile, variant=variant,
                            duration_ms=GATE_CYCLES * cam.cycle_ms,
                            seed=sim_seed, n_objects=GATE_OBJECTS)
        ops.append(_pipeline_op(f"gate[{i}].{variant.name}", cam, usb, profile,
                                variant, cfg))
    return ops


def _same_dist(a, b) -> bool:
    return np.array_equal(a.values, b.values) and np.array_equal(a.probs, b.probs)


def gate_selfcheck(root: str, n: int = 20) -> bool:
    """True when `gate_corpus` reproduces the gate's first n scenarios at its
    seed. Imports tests/test_acceptance.py read-only."""
    import importlib.util

    path = os.path.join(root, "tests", "test_acceptance.py")
    spec = importlib.util.spec_from_file_location("_bench_gate_source", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    rng = np.random.default_rng(GATE_SEED)
    for i, ((cam, usb, profile, variant), sim_seed) in enumerate(gate_corpus(GATE_SEED, n)):
        g_cam, g_usb, g_profile, g_variant = gate._random_scenario(rng, i)
        g_seed = int(rng.integers(2 ** 32))
        stages = [f.name for f in dataclasses.fields(profile)]
        if (cam, usb, variant, sim_seed) != (g_cam, g_usb, g_variant, g_seed):
            return False
        if not all(_same_dist(getattr(profile, s), getattr(g_profile, s)) for s in stages):
            return False
    return True


# -- preset_hours --------------------------------------------------------------


def _preset_ops(seed) -> list[Op]:
    runs = []
    for name in ("default", "case1", "case2", "case3"):
        s = replace(scenario.load_scenario(name), duration_ms=HOUR_MS)
        runs += [(name, s, v) for v in s.variants]
    sim_seeds = np.random.default_rng(seed).integers(2 ** 32, size=len(runs))
    return [
        _pipeline_op(f"{name}.{v.name}", s.camera, s.usb, s.profile, v,
                     s.sim_config(v, seed=int(sim_seed)))
        for (name, s, v), sim_seed in zip(runs, sim_seeds)
    ]


def jitter_violations(seed) -> dict:
    """Violations per check of one simulated hour of each `default` variant
    with capture jitter, the known soundness defect (ROADMAP direction 4).

    These runs fail their validation, so they are not timed ops (a timed op
    must pass); run.py reports their counts next to the metrics, where a fix
    of the defect shows as zeros.
    """
    s = replace(scenario.load_scenario("default"), duration_ms=HOUR_MS,
                capture_jitter_ms=JITTER_MS)
    sim_seeds = np.random.default_rng(seed + 1).integers(2 ** 32, size=len(s.variants))
    out = {}
    for v, sim_seed in zip(s.variants, sim_seeds):
        bounds = analysis.analyze(s.camera, s.usb, s.profile, v)
        result = sim.run(s.sim_config(v, seed=int(sim_seed)))
        report = analysis.validate_against_analysis(result, bounds)
        out[v.name] = {c.name: c.n_violations for c in report.checks if c.n_violations}
    return out


# -- cli_trace -----------------------------------------------------------------


def _cli_op(argv: list[str]) -> Op:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(out) -> Outcome:
        code, text = out
        files = {}
        for line in text.splitlines():
            if line.startswith("wrote "):
                path = line[len("wrote "):]
                with open(path, "rb") as fh:
                    files[path] = fh.read()
        ok = code == 0
        if argv[0] == "validate":
            ok = ok and text.rstrip().endswith("result: PASS")
        raw = text.encode()
        return Outcome(digest_of(code, raw, files), ok, None, len(raw),
                       sum(len(b) for b in files.values()))

    return Op(" ".join(argv), call, check)


def _cli_ops(seed, workdir) -> list[Op]:
    # A path relative to the checkout root keeps the printed "wrote ..." lines,
    # and so the digests, the same in every checkout.
    out_dir = os.path.relpath(os.path.join(workdir, "cli_out"))
    sim_seed = str(int(np.random.default_rng(seed).integers(2 ** 31)))
    return [_cli_op(argv) for argv in (
        ["analyze", "default"],
        ["simulate", "default", "--trace", "--out", out_dir, "--seed", sim_seed],
        ["validate", "default", "--seed", sim_seed],
        ["sweep", "default", "--param", "queue_size", "--values", "0..4",
         "--seed", sim_seed],
    )]


BUILDERS = {
    "gate_corpus": lambda seed, workdir: _gate_ops(seed, GATE_SCENARIOS),
    "preset_hours": lambda seed, workdir: _preset_ops(seed),
    "cli_trace": lambda seed, workdir: _cli_ops(seed, workdir),
}


def build_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The ops of one pass over a workload, made from the workload seed."""
    return BUILDERS[workload](seed, workdir)
