"""One benchmark process: set a workload up, then time or trace its ops.

Started by run.py, which sets the thread-pool caps and PYTHONPATH. The last
line of stdout is one JSON object for run.py.

Timed run (--trace 0): whole passes over the workload's ops, in a closed
loop, for up to --seconds, with a calibration loop between ops that
takes the host's speed out of the op times (see `timed`). Only the
pipedelay calls are timed; the output checks run with the clock stopped.
Traced run (--trace 1): a warm-up pass, then every op
once untraced and once traced; the per-layer metrics come from the spans of
the traced set-up and ops.
"""

import os
import time

# One CPU for the whole run, so the process never migrates: the
# highest-numbered one it may use, away from CPU 0, which takes the
# machine's interrupts and housekeeping.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

_t_import = time.perf_counter()
import pipedelay  # noqa: E402
import pipedelay.cli  # noqa: E402,F401
_import_s = time.perf_counter() - _t_import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# Every op runs at least this often, so its median has repeats to pick from,
# and a run has at least MIN_SAMPLES op times, so that ten lie beyond p90.
MIN_PASSES = 3
MIN_SAMPLES = 100
CALIBRATION_ITERS = 1000
CALIBRATION_BLOCKS = 6
HUNT_SHARE = 0.05
# Calibration loops a set-up-only process times after its set-up.
SETUP_CALIBRATIONS = 9
# Ops re-run after the timed section: output repeat check and, for the CLI,
# the simulated cycles each op hides.
RECHECK_OPS = 8

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, "bench", "_work")


class Runner:
    """Runs ops, checks each against the first output of the same op, and
    keeps the counts the result needs."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def run(self, i):
        """Run op i once; return (seconds, Outcome or None if it raised)."""
        op = self.ops[i]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = op.call()
        except Exception:
            elapsed = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.correct = False
            return elapsed, None
        elapsed = time.perf_counter() - t0
        out = op.check(raw)
        if not out.ok:
            self.failed += 1
            self.correct = False
            print(f"check failed: {op.label}", file=sys.stderr)
        if self.first.setdefault(i, out.digest) != out.digest:
            self.correct = False
            print(f"output changed on repeat: {op.label}", file=sys.stderr)
        return elapsed, out

    def digest(self) -> str:
        return workloads.digest_of([self.first.get(i) for i in range(len(self.ops))])


def calibration_loop() -> float:
    """A fixed pure-Python loop of about 0.2 ms: float arithmetic, dict
    stores and list appends and pops, the operations pipedelay's simulator
    loop is made of. Its time tracks how fast the host runs this interpreter
    right now; it never calls pipedelay."""
    table = {}
    acc = 0.0
    window = []
    for i in range(CALIBRATION_ITERS):
        acc += (i * 1.5) % 7.0
        table[i & 255] = acc
        window.append(acc)
        if len(window) > 64:
            window.pop(0)
    return acc


def calibration_s() -> tuple[float, float]:
    """CALIBRATION_BLOCKS calibration loops back to back: their total time
    and the fastest one's time."""
    clock = time.perf_counter
    fastest = float("inf")
    t_start = t0 = clock()
    for _ in range(CALIBRATION_BLOCKS):
        calibration_loop()
        t1 = clock()
        fastest = min(fastest, t1 - t0)
        t0 = t1
    return t0 - t_start, fastest


def timed(runner, seconds, profile_path):
    """Whole passes over the ops while the next pass, if it takes as long
    as the last one, ends within `seconds`, and until MIN_PASSES passes are
    done and there are MIN_SAMPLES op times.

    A shared host runs this process at a speed that changes by up to 2x
    over seconds and minutes (other tenants on the same cores), and a pure
    CPU loop slows with the ops (by somewhat more). So calibration loops run
    between every two ops, and each op time is divided by the mean of the
    two calibration times around it: a host-speed-free ratio. A ratio times
    the calibration time at the fastest host speed seen in the run (its
    fastest short loop, times CALIBRATION_BLOCKS: short loops catch brief
    fast spells that a whole calibration misses) is the op's time at that
    speed; those times are the latencies.
    Each op's cost is the median of its scaled times over the passes, and
    the throughputs are one pass at those costs. Unscaled figures go to
    bench-info.
    """
    profiler = None
    if profile_path:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    n = len(runner.ops)
    ratios = [[] for _ in range(n)]
    raw = [[] for _ in range(n)]
    cycles = [0] * n
    cals = [calibration_s()[0]]
    fastest = float("inf")
    hunt_s = 0.0
    passes = 0
    pass_s = 0.0
    start = time.perf_counter()
    while (passes < MIN_PASSES or passes * n < MIN_SAMPLES
           or time.perf_counter() - start + pass_s <= seconds):
        pass_start = time.perf_counter()
        for i in range(n):
            dt, out = runner.run(i)
            cal, fast = calibration_s()
            cals.append(cal)
            fastest = min(fastest, fast)
            ratios[i].append(dt / (0.5 * (cals[-2] + cals[-1])))
            # More calibration loops, HUNT_SHARE of the op's time, only to
            # look for fast spells: runs of long ops then see as many as
            # runs of short ones.
            hunt_s += HUNT_SHARE * dt
            while hunt_s > cal:
                t0 = time.perf_counter()
                fastest = min(fastest, calibration_s()[1])
                hunt_s -= time.perf_counter() - t0
            raw[i].append(dt)
            cycles[i] = out.cycles if out else 0
        passes += 1
        pass_s = time.perf_counter() - pass_start
    if profiler:
        profiler.disable()
        _dump_profile(profiler, profile_path)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Ops that hide their SimResults (CLI calls) get their cycle count from a
    # traced re-run; the same re-run checks that outputs repeat.
    attempted, failed = runner.attempted, runner.failed
    for i in range(min(n, RECHECK_OPS)):
        tracer = tracing.Tracer()
        with tracer:
            runner.run(i)
        if cycles[i] is None:
            cycles[i] = tracing.run_cycles(tracer.spans)
    runner.attempted, runner.failed = attempted, failed

    cal_ref = CALIBRATION_BLOCKS * fastest
    samples = [r * cal_ref for rs in ratios for r in rs]
    cost = [statistics.median(rs) * cal_ref for rs in ratios]
    raw_cost = [statistics.median(ts) for ts in raw]
    metrics = {
        "ops_per_s": n / sum(cost),
        "op_ms_p50": 1e3 * statistics.median(samples),
        "op_ms_p90": 1e3 * statistics.quantiles(samples, n=10, method="inclusive")[8],
        "sim_cycles_per_s": sum(cycles) / sum(cost),
        "success_rate": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    unscaled = {
        "ops_per_s": n / sum(raw_cost),
        "op_ms_p50": 1e3 * statistics.median(t for ts in raw for t in ts),
        "calibration_ms_ref": 1e3 * cal_ref,
        "calibration_ms_min": 1e3 * min(cals),
        "calibration_ms_p50": 1e3 * statistics.median(cals),
        "passes": passes,
    }
    return metrics, unscaled, cal_ref


def _dump_profile(profiler, path):
    import pstats
    profiler.dump_stats(path)
    pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(30)


def traced(runner, tracer):
    """A warm-up pass, then each op untraced and traced back to back, in
    alternating order, so that neither drift of the machine nor a warm second
    run leans on the overhead; `tracer` already holds the spans of the set-up."""
    for i in range(len(runner.ops)):
        runner.run(i)
    untraced_s = traced_s = 0.0
    outcomes = []
    for i in range(len(runner.ops)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer:
                    dt, out = runner.run(i)
                traced_s += dt
                outcomes.append(out)
            else:
                untraced_s += runner.run(i)[0]
    m = tracing.layer_metrics(tracer.spans)
    m["cli.stdout_bytes"] = sum(o.stdout_bytes for o in outcomes if o)
    m["cli.file_bytes"] = sum(o.file_bytes for o in outcomes if o)
    m["pipedelay.import_s"] = _import_s
    m["bench.trace_overhead_frac"] = traced_s / untraced_s
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--profile", default=None)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src", "pipedelay")
    if os.path.dirname(os.path.abspath(pipedelay.__file__)) != src:
        print(f"error: imported pipedelay from {pipedelay.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        ops = workloads.build_ops(args.workload, args.seed, WORKDIR)
    setup_s = time.monotonic() - args.spawned_at
    # The host's speed just after set-up, which run.py scales setup_s by.
    setup_cal = statistics.median(calibration_s()[0] for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_cal_s": setup_cal}))
        return 0

    runner = Runner(ops)
    extra = {}
    if args.trace:
        metrics = traced(runner, tracer)
    else:
        metrics, extra["unscaled"], extra["cal_ref_s"] = timed(
            runner, args.seconds, args.profile)
        metrics["setup_s"] = setup_s
        extra["setup_cal_s"] = setup_cal
        if args.workload == "preset_hours":
            extra["known_defect"] = workloads.jitter_violations(args.seed)
    if args.workload == "gate_corpus" and not workloads.gate_selfcheck(ROOT):
        runner.correct = False
        print("gate_corpus no longer reproduces tests/test_acceptance.py", file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
        "digest": runner.digest(),
        "digest_ops": len(ops),
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
