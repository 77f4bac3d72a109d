"""pipedelay benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload gate_corpus --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  gate_corpus   analyze -> run -> validate on the soundness gate's scenarios
  preset_hours  the same on every shipped preset variant, one simulated hour
                or more each
  cli_trace     in-process `pipedelay analyze|simulate --trace|validate|sweep`

--trace 0 prints the end-to-end metrics. A run makes whole passes over the
workload's ops for up to --seconds (at least three passes and 100 op times).
Every time is scaled to the
fastest host speed seen in the run, measured by a fixed calibration loop
between ops (worker.timed says why). op_ms_p50/p90 are percentiles of all
scaled op times; ops_per_s and sim_cycles_per_s are one pass's ops and
simulated detector cycles per second of per-op median times. --trace 1 runs
the traced pass and prints the per-layer metrics.

Every op's output is checked (validation report, CLI exit code and PASS
line, identical bytes on every repeat); a failed check counts in `failed`
and turns `correct` false.

The last stdout line is the JSON result; the line before it, starting with
"bench-info", carries the output digest, error rate, the unscaled times,
the known capture-jitter defect's violation counts (preset_hours), source
LOC and the machine. --profile FILE dumps a cProfile of the timed section to
FILE and its top entries to stderr; a run without it is not affected.

Each workload runs in one single-threaded worker process (numpy/BLAS pools
capped at 1). setup_s is the median over SETUP_SAMPLES fresh processes of
the time from process start to the first timed op, each scaled by the
calibration loop's time just after its set-up, like the op times.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ("gate_corpus", "preset_hours", "cli_trace")
SETUP_SAMPLES = 7
# Each run must end within 180 s; this leaves room for set-up.
WORKER_TIMEOUT_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "pipedelay")
MODULES = ("analysis", "camera", "cli", "detector", "dist", "presets",
           "queueing", "scenario", "sim")

THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({k: "1" for k in THREAD_CAPS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion; return its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _loc(path: str) -> int:
    """Source lines that are neither blank nor only a comment."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.strip().startswith("#"))


def source_loc() -> dict:
    """LOC per module (0 once a module is gone) and of the whole package."""
    loc = {}
    for m in MODULES:
        path = os.path.join(SRC, f"{m}.py")
        loc[f"{m}.loc"] = _loc(path) if os.path.isfile(path) else 0
    loc["pipedelay.loc"] = sum(_loc(p) for p in glob.glob(os.path.join(SRC, "*.py")))
    return loc


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown"
    with open(head_path, encoding="utf-8") as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", default=None, metavar="FILE",
                    help="write a cProfile dump of the timed section to FILE")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no pipedelay sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(common + ["--setup-only"], deadline))
        extra = ["--profile", os.path.abspath(args.profile)] if args.profile else []
        result = _worker(common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)] + extra, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    loc = source_loc()
    if args.trace:
        metrics.update(loc)
    else:
        setups.append({"setup_s": metrics["setup_s"], "setup_cal_s": result["setup_cal_s"]})
        metrics["setup_s"] = statistics.median(
            s["setup_s"] * result["cal_ref_s"] / s["setup_cal_s"] for s in setups)
    units = _units("per_layer" if args.trace else "end_to_end")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": result["digest"],
        "digest_ops": result["digest_ops"],
        "error_rate": result["failed"] / result["attempted"],
        "unscaled": result.get("unscaled"),
        "setup_s_unscaled": statistics.median(s["setup_s"] for s in setups) if setups else None,
        "known_defect": result.get("known_defect"),
        "loc": loc,
        **machine(),
    }
    print("bench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
