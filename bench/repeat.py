"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py [--workloads gate_corpus,cli_trace] [--seeds 1-10]
        [--seconds 10] [--traced-seeds 1] [--out FILE]

For every workload and metric it prints the median over the timed runs and
the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Traced runs
(--traced-seeds) add the per-layer metrics. --out writes every run and the
summaries as JSON, one point of the benchmark trajectory (BENCH_*.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    if not text:
        return []
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2].split(" ", 1)[1]),
            "result": json.loads(lines[-1]),
            "elapsed_s": time.monotonic() - t0}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = 0.0
        if len(values) > 1 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
        out[name] = {"median": med, "spread": spread, "unit": first["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--traced-seeds", default="")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = report["workloads"][workload] = {}
        for trace, seeds in ((0, _seeds(args.seeds)), (1, _seeds(args.traced_seeds))):
            if not seeds:
                continue
            runs = []
            for seed in seeds:
                run = run_once(workload, seed, args.seconds, trace)
                res, info = run["result"], run["info"]
                print(f"{workload} seed {seed} trace {trace}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"digest={info['digest'][:16]} elapsed={run['elapsed_s']:.1f}s",
                      flush=True)
                runs.append(run)
            summary = summarise(runs)
            for name, s in summary.items():
                print(f"  {name:38s} {s['median']:14.6g} {s['unit']:12s} "
                      f"spread {s['spread']:.4f}", flush=True)
            entry["traced" if trace else "timed"] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
