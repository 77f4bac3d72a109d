"""Command-line front end.

Four commands, all driven by a scenario file or shipped preset name:

    pipedelay analyze  <scenario>   closed-form delay bounds per variant
    pipedelay simulate <scenario>   seeded simulation summaries + histograms
    pipedelay validate <scenario>   simulation checked against the bounds
    pipedelay sweep    <scenario> --param queue_size --values 0..4

Outputs are pure functions of (scenario file, flags, seed): no
timestamps, no machine state, stable ordering. Exit codes: 0 success,
1 validation failure, 2 usage or scenario errors, 141 stdout closed by
its reader (as `pipedelay ... | head` does).
"""

import argparse
from functools import cache
import math
import os
import sys

import numpy as np

from .analysis import analyze, validate_against_analysis
from .scenario import Scenario, ScenarioError, load_scenario
from .sim import run


def _fmt(x) -> str:
    if isinstance(x, float):
        return "nan" if np.isnan(x) else f"{x:.3f}"
    return str(x)


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def _table(headers, rows) -> str:
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return _text(lines)


def _csv(headers, rows) -> str:
    def cell(c):
        return f"{c:.6f}" if isinstance(c, float) else str(c)
    return _text([",".join(headers)] + [",".join(cell(c) for c in row) for row in rows])


def _trace_tsv(trace) -> bytes:
    """A run's trace as TSV bytes, header first: one `%` format over the
    events' int cells, with one row format per event kind, its name baked in."""
    rows = np.array([b"%%d\t%s\t%%d\t%%d\n" % k.encode() for k in trace.KINDS],
                    dtype=object)
    cells = np.column_stack((trace.time_ns, trace.frame, trace.detail)).ravel().tolist()
    return (b"time_ns\tevent_type\tframe_id\tdetail\n"
            + b"".join(rows[trace.kind].tolist()) % tuple(cells))


def _hist_csv(values) -> bytes:
    """The non-NaN values' counts in 1 ms floored bins as CSV bytes, one
    `bin_start_ms,count` row per non-empty bin."""
    values = np.asarray(values, dtype=float)
    bins, counts = np.unique(np.floor(values[~np.isnan(values)]).astype(np.int64),
                             return_counts=True)
    cells = np.column_stack((bins, counts)).ravel().tolist()
    return b"bin_start_ms,count\n" + b"%.6f,%d\n" * len(bins) % tuple(cells)


def _emit(headers, rows, fmt: str) -> None:
    print(_csv(headers, rows) if fmt == "csv" else _table(headers, rows), end="")


def _write(out_dir: str, files: dict[str, bytes]) -> None:
    """Write each file's bytes under `out_dir`, which is made if missing."""
    paths = [os.path.join(out_dir, filename) for filename in files]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, data in zip(paths, files.values()):
            with open(path, "wb") as fh:
                fh.write(data)
    except OSError as exc:
        raise OSError(f"--out: {exc}") from None
    for path in paths:
        print(f"wrote {path}")


def _bounds_rows(scenario: Scenario):
    rows = []
    notes = []
    for variant in scenario.variants:
        b = analyze(scenario.camera, scenario.usb, scenario.profile, variant)
        for component, lo, hi in (
            ("transfer", b.camera.d_tran_min, b.camera.d_tran_max_exclusive),
            ("camera", b.camera.d_camera_min, b.camera.d_camera_max_exclusive),
            ("queue", b.queue.d_queue_min, b.queue.d_queue_max),
            ("detector", b.detector.d_detector_min, b.detector.d_detector_max),
            ("total", b.total_min, b.total_max),
        ):
            rows.append((b.variant_name, b.regime.name, component, lo, hi))
        notes.extend(f"{b.variant_name}: {w}" for w in b.warnings)
    return rows, notes


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    rows, notes = _bounds_rows(scenario)
    headers = ("variant", "regime", "component", "min_ms", "max_ms")
    _emit(headers, rows, args.format)
    for note in notes:
        print(f"note: {note}")
    if args.out:
        _write(args.out, {"analysis.csv": _csv(headers, rows).encode()})
    return 0


def _summary_row(r):
    mean_e2e, p99_e2e = r.e2e_mean_p99()
    return (
        r.variant_name, r.frames_captured, r.frames_fetched, r.drops,
        len(r.detected_e2e()), r.objects_missed, mean_e2e, p99_e2e, r.mean_cycle_ms(),
    )


_SUMMARY_HEADERS = (
    "variant", "captured", "fetched", "drops", "detected", "missed",
    "mean_e2e_ms", "p99_e2e_ms", "mean_cycle_ms",
)


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    shared = {}
    results = [run(scenario.sim_config(v, seed=args.seed, trace=args.trace), shared)
               for v in scenario.variants]
    rows = [_summary_row(r) for r in results]
    _emit(_SUMMARY_HEADERS, rows, args.format)
    for r in results:
        for w in r.warnings:
            print(f"note: {r.variant_name}: {w}")
    if args.out:
        files = {"summary.csv": _csv(_SUMMARY_HEADERS, rows).encode()}
        for r in results:
            files[f"hist_e2e_{r.variant_name}.csv"] = _hist_csv(r.detected_e2e())
            files[f"hist_cycle_{r.variant_name}.csv"] = _hist_csv(r.cycle_times)
        if args.trace:
            files.update((f"trace_{r.variant_name}.tsv", _trace_tsv(r.trace))
                         for r in results)
        _write(args.out, files)
    elif args.trace:
        for r in results:
            print(f"trace[{r.variant_name}]:")
            print(_trace_tsv(r.trace).decode(), end="")
    return 0


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    rows = []
    notes = []
    not_run = []
    failed = False
    shared = {}
    for variant in scenario.variants:
        bounds = analyze(scenario.camera, scenario.usb, scenario.profile, variant)
        result = run(scenario.sim_config(variant, seed=args.seed), shared)
        report = validate_against_analysis(result, bounds,
                                           shrink_ms=args.shrink_bounds)
        for c in report.checks:
            status = "FAIL" if not c.ok else "ok" if c.n_checked else "n/a"
            rows.append((bounds.variant_name, c.name, c.n_checked,
                         c.n_violations, c.lo, c.hi, c.observed_min,
                         c.observed_max, status))
            if not c.n_checked:
                not_run.append(f"{bounds.variant_name}/{c.name}")
        failed = failed or not report.ok
        notes.extend(f"{bounds.variant_name}: {w}"
                     for w in (*bounds.warnings, *report.notes, *result.warnings))
    headers = ("variant", "check", "n", "violations", "bound_min", "bound_max",
               "observed_min", "observed_max", "status")
    _emit(headers, rows, args.format)
    for note in notes:
        print(f"note: {note}")
    if args.out:
        _write(args.out, {"validation.csv": _csv(headers, rows).encode()})
    if failed:
        print("result: FAIL")
    elif not_run:
        print(f"result: INCOMPLETE, not run: {', '.join(not_run)}")
    else:
        print("result: PASS")
    return 1 if failed else 0


def _parse_values(text: str, parser: argparse.ArgumentParser) -> list[str]:
    """The `--values` tokens as written; the scenario grammar reads them."""
    if ".." in text:
        try:
            lo, hi = text.split("..", 1)
            values = [str(v) for v in range(int(lo), int(hi) + 1)]
        except ValueError:
            parser.error(f"--values: expected 'a..b' or comma list, got {text!r}")
    else:
        values = [v.strip() for v in text.split(",") if v.strip()]
    if not values:
        parser.error(f"--values: no value in {text!r}")
    return values


# A sweep point is the scenario with one key edited and resolved like a
# file: param -> (section, key, the variant the point runs or None for the
# scenario's first, where the resolved point keeps the value).
_SWEEP = {
    "queue_size": ("queue", "size", "vanilla", lambda s: s.queue_size),
    "theta": ("zero_slack", "theta", "zero_slack", lambda s: s.theta),
    "frame_rate": ("camera", "frame_rate", None, lambda s: s.camera.frame_rate),
    "nn_resolution": ("profile", "preset", None, lambda s: _resolution(s.profile_preset)),
}


def _resolution(preset: str) -> int:
    suffix = preset.rsplit("-", 1)[1]
    if not suffix.isdecimal():
        raise ScenarioError(f"[profile] preset: {preset!r} has no resolution suffix")
    return int(suffix)


def cmd_sweep(args, parser) -> int:
    base = load_scenario(args.scenario)
    section, key, variant, value_of = _SWEEP[args.param]
    prefix = ""
    if args.param == "nn_resolution":
        # The value replaces the resolution suffix of the profile preset.
        if base.profile_preset is None:
            raise ScenarioError(
                "nn_resolution sweep needs a profile preset with a resolution suffix")
        prefix = base.profile_preset.rsplit("-", 1)[0] + "-"
    variants = variant or base.variants[0].name
    points = []
    for token in _parse_values(args.values, parser):
        edits = {(section, key): prefix + token, ("scenario", "variants"): variants}
        try:
            point = load_scenario(args.scenario, edits)
            points.append((value_of(point), point))
        except ScenarioError as exc:
            raise ScenarioError(f"--values: {args.param} {token}: {exc}") from None
    rows, notes = [], []
    shared = {}
    for value, point in sorted(points, key=lambda p: p[0]):
        r = run(point.sim_config(point.variants[0], seed=args.seed), shared)
        rows.append((args.param, value, r.e2e_mean_p99()[0], r.mean_cycle_ms()))
        notes.extend(f"{args.param} {_fmt(value)}: {w}" for w in r.warnings)
    headers = ("param", "value", "mean_e2e_ms", "mean_cycle_ms")
    _emit(headers, rows, args.format)
    for note in notes:
        print(f"note: {note}")
    if args.out:
        _write(args.out, {"sweep.csv": _csv(headers, rows).encode()})
    return 0


def _non_negative(conv):
    """argparse type: a finite number >= 0 read by `conv`."""
    def parse(text: str):
        try:
            value = conv(text)
        except ValueError:
            kind = "integer" if conv is int else "number"
            raise argparse.ArgumentTypeError(f"invalid {kind} {text!r}") from None
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
        return value
    return parse


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: every call parses with it."""
    parser = argparse.ArgumentParser(
        prog="pipedelay",
        description="Delay bounds and simulation for a camera->queue->detector pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario",
                       help="scenario file path or shipped preset name")
        p.add_argument("--seed", type=_non_negative(int), default=None,
                       help="override the scenario seed")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="directory for CSV and trace outputs")
        p.add_argument("--format", choices=("table", "csv"), default="table",
                       help="stdout format (default: table)")

    p = sub.add_parser("analyze", help="print closed-form delay bounds")
    common(p)
    p = sub.add_parser("simulate", help="run the seeded simulation")
    common(p)
    p.add_argument("--trace", action="store_true",
                   help="emit the per-event schedule")
    p = sub.add_parser("validate", help="check simulation against bounds")
    common(p)
    p.add_argument("--shrink-bounds", type=_non_negative(float), default=0.0, metavar="MS",
                   help="narrow every bound by MS before checking (self-test)")
    p = sub.add_parser("sweep", help="simulate across one parameter")
    common(p)
    p.add_argument("--param", required=True,
                   choices=("queue_size", "theta", "frame_rate", "nn_resolution"))
    p.add_argument("--values", required=True,
                   help="comma list '0,1,2' or integer range '0..4'")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            code = cmd_analyze(args)
        elif args.command == "simulate":
            code = cmd_simulate(args)
        elif args.command == "validate":
            code = cmd_validate(args)
        else:
            code = cmd_sweep(args, parser)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout. Stop quietly with the status of a process
        # killed by SIGPIPE; stdout goes to devnull so that the interpreter's
        # flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
