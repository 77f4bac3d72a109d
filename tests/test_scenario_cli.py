"""Scenario file parsing and the command-line interface."""

import contextlib
import errno
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace

import pytest
import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import pipedelay
import pipedelay.scenario

from pipedelay import cli
from pipedelay.analysis import analyze
from pipedelay.camera import CameraConfig, UsbLinkConfig
from pipedelay.detector import ContentionFree, OnDemand, Vanilla, ZeroSlack
from pipedelay.queueing import QueueRegime
from pipedelay.presets import SCENARIO_PRESETS
from pipedelay.scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    parse_scenario,
)
from pipedelay.sim import Trace, run

MICRO_INLINE = """\
[scenario]
name = micro
variants = vanilla

[camera]
frame_rate = 100
width = 700
height = 1
bits_per_pixel = 16

[usb]
bytes_per_microframe = 100
urb_microframes = 8

[queue]
size = 1

[profile.fetch_exec]
const = 2

[profile.infer_cpu]
const = 8

[profile.infer_gpu]
const = 0

[profile.disp_exec]
const = 1

[profile.infer_inflation]
const = 0

[sim]
duration_ms = 100
seed = 7
objects = 2
"""


def _grammar_example() -> str:
    """The example scenario file of the `pipedelay.scenario` docstring."""
    doc = pipedelay.scenario.__doc__
    example = doc[doc.index("    [scenario]"):doc.index("Stage sections")]
    return "\n".join(line[4:] for line in example.splitlines())


class TestParsing:
    def test_inline_scenario(self):
        s = parse_scenario(MICRO_INLINE)
        assert s.name == "micro"
        assert s.camera.frame_rate == 100.0
        assert s.camera.width == 700
        assert s.usb.urb_microframes == 8
        assert s.queue_size == 1
        assert s.variants == (Vanilla(1),)
        assert s.theta is None
        assert s.duration_ms == 100.0
        assert s.seed == 7
        assert s.profile.fetch_exec.points() == [(2.0, 1.0)]
        assert s.profile_preset is None
        # Keys left out take the config dataclass defaults; keys set win.
        assert s.camera.min_capture_delay == 0.0
        assert (s.usb.microframe_ms, s.usb.protocol_overhead_microframes) == (0.125, 2)
        s = parse_scenario(MICRO_INLINE.replace(
            "bits_per_pixel = 16\n", "bits_per_pixel = 16\nmin_capture_delay = 1.5\n"
        ).replace(
            "urb_microframes = 8\n",
            "urb_microframes = 8\nmicroframe_ms = 0.25\nprotocol_overhead_microframes = 3\n"))
        assert s.camera.min_capture_delay == 1.5
        assert (s.usb.microframe_ms, s.usb.protocol_overhead_microframes) == (0.25, 3)

    def test_queue_size_and_theta_come_from_the_variants(self):
        s = parse_scenario(_grammar_example())
        assert (s.queue_size, s.theta) == (4, s.variants[2].theta)
        assert replace(s, variants=(Vanilla(2),)).queue_size == 2
        assert replace(s, variants=(ZeroSlack(7.5),)).theta == 7.5
        s = replace(s, variants=(OnDemand(), ContentionFree()))
        assert s.queue_size is None and s.theta is None

    def test_edits_set_keys_before_resolution(self):
        s = parse_scenario(MICRO_INLINE, edits={
            ("queue", "size"): "3", ("scenario", "variants"): "vanilla, zero_slack",
            ("zero_slack", "theta"): "2.5"})
        assert s.variants == (Vanilla(3), ZeroSlack(2.5))
        assert s.camera == parse_scenario(MICRO_INLINE).camera
        with pytest.raises(ScenarioError, match=r"^\[queue\] size: invalid integer '0.5'$"):
            parse_scenario(MICRO_INLINE, edits={("queue", "size"): "0.5"})

    def test_grammar_example_parses(self):
        s = parse_scenario(_grammar_example())
        assert s.name == "demo"
        assert s.camera.frame_rate == 30.0
        assert s.queue_size == 4
        assert s.profile_preset == "xavier-yolov3-608"

    def test_camera_preset_with_override(self):
        s = parse_scenario(
            "[scenario]\nvariants = on_demand\n"
            "[camera]\npreset = c930e-640x480-30\nwidth = 320\n"
            "[profile]\npreset = xavier-yolov3-608\n"
        )
        assert s.camera.width == 320          # explicit field wins
        assert s.camera.height == 480         # rest from the preset
        assert s.usb.bytes_per_microframe == 2688
        assert s.variants == (OnDemand(),)
        assert s.profile_preset == "xavier-yolov3-608"

    def test_variant_list_order_and_theta_auto(self):
        s = parse_scenario(
            "[scenario]\nvariants = vanilla, zero_slack, contention_free\n"
            "[camera]\npreset = c930e-640x480-30\n"
            "[queue]\nsize = 3\n"
            "[profile]\npreset = xavier-yolov3-608\n"
        )
        assert isinstance(s.variants[0], Vanilla) and s.variants[0].queue_size == 3
        assert isinstance(s.variants[1], ZeroSlack)
        assert isinstance(s.variants[2], ContentionFree)
        assert s.theta == pytest.approx(78.79, abs=0.01)

    def test_explicit_theta(self):
        s = parse_scenario(
            "[scenario]\nvariants = zero_slack\n"
            "[camera]\npreset = c930e-640x480-30\n"
            "[zero_slack]\ntheta = 40\n"
            "[profile]\npreset = xavier-yolov3-608\n"
        )
        assert s.variants == (ZeroSlack(40.0),)

    def test_csv_stage_ingestion(self, tmp_path):
        (tmp_path / "fetch.csv").write_text("5.2\n5.9\n6.4\n")
        text = MICRO_INLINE.replace(
            "[profile.fetch_exec]\nconst = 2",
            "[profile.fetch_exec]\ncsv = fetch.csv",
        )
        s = parse_scenario(text, base_dir=str(tmp_path))
        assert s.profile.fetch_exec.points() == [
            (5.0, pytest.approx(2 / 3)),
            (6.0, pytest.approx(1 / 3)),
        ]

    def test_sim_config_overrides(self):
        s = parse_scenario(MICRO_INLINE)
        cfg = s.sim_config(s.variants[0])
        assert cfg.seed == 7 and not cfg.trace
        cfg = s.sim_config(s.variants[0], seed=99, trace=True)
        assert cfg.seed == 99 and cfg.trace


class TestParseDiagnostics:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("[bogus]\nx = 1\n", "[bogus]: unknown section"),
            ("[camera]\nzoom = 2\n", "[camera] zoom: unknown key"),
            (
                "[scenario]\nvariants = vanilla\n[camera]\nframe_rate = fast\n",
                "[camera] frame_rate: invalid number 'fast'",
            ),
            (
                "[scenario]\nvariants = vanilla\n[camera]\npreset = nikon\n",
                "unknown preset 'nikon'",
            ),
            (
                "[scenario]\nvariants = warp\n[camera]\npreset = c930e-640x480-30\n"
                "[profile]\npreset = xavier-yolov3-608\n",
                "unknown variant 'warp'",
            ),
            (
                "[scenario]\nvariants = vanilla\n[camera]\npreset = c930e-640x480-30\n",
                "[profile]: missing stages",
            ),
            (
                "[scenario]\nvariants = vanilla\n"
                "[camera]\nframe_rate = 30\n"
                "[profile]\npreset = xavier-yolov3-608\n",
                "[camera]: missing width, height, bits_per_pixel",
            ),
            (
                "[scenario]\nvariants = vanilla\n[camera]\npreset = c930e-640x480-30\n"
                "[profile]\npreset = xavier-yolov3-608\n"
                "[profile.fetch_exec]\nconst = 5\ndist = 5:1.0\n",
                "need exactly one of dist=, csv=, const=",
            ),
            (
                "[scenario]\nvariants = vanilla\n[camera]\npreset = c930e-640x480-30\n"
                "[profile]\npreset = xavier-yolov3-608\n"
                "[profile.fetch_exec]\ndist = 5;1.0\n",
                "expected 'value:probability' pairs",
            ),
            (
                "[profile.warp_core]\nconst = 5\n",
                "[profile.warp_core]: unknown stage",
            ),
        ],
    )
    def test_error_names_the_culprit(self, text, fragment):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert fragment in str(err.value)

    def test_missing_csv_names_path(self, tmp_path):
        text = MICRO_INLINE.replace(
            "[profile.fetch_exec]\nconst = 2",
            "[profile.fetch_exec]\ncsv = absent.csv",
        )
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, base_dir=str(tmp_path))
        assert "absent.csv" in str(err.value)

    def test_unknown_scenario_lists_presets(self):
        with pytest.raises(ScenarioError) as err:
            load_scenario("no-such-scenario")
        msg = str(err.value)
        assert "no-such-scenario" in msg and "default" in msg


class TestShippedPresets:
    def test_all_presets_parse(self):
        for name in ("default", "case1", "case2", "case3"):
            s = load_scenario(name)
            assert isinstance(s, Scenario)
            assert s.duration_ms > 0

    def test_default_runs_all_variants(self):
        s = load_scenario("default")
        names = [v.name for v in s.variants]
        assert names == ["vanilla", "on_demand", "zero_slack", "contention_free"]
        assert s.queue_size == 4
        assert s.theta == pytest.approx(78.79, abs=0.01)

    def test_case_presets_hit_their_regimes(self):
        expected = {
            "case1": QueueRegime.ARRIVAL_LIMITED,
            "case2": QueueRegime.SERVICE_LIMITED,
            "case3": QueueRegime.MIXED,
        }
        for name, regime in expected.items():
            s = load_scenario(name)
            b = analyze(s.camera, s.usb, s.profile, Vanilla(s.queue_size))
            assert b.regime is regime, name
        b = analyze(*_cfg("case2"))
        assert b.saturation_certified


def _cfg(name):
    s = load_scenario(name)
    return s.camera, s.usb, s.profile, Vanilla(s.queue_size)


FAST_SCENARIO = """\
[scenario]
variants = vanilla

[camera]
preset = c930e-640x480-30

[queue]
size = 2

[profile]
preset = xavier-yolov3-608

[sim]
duration_ms = 4000
seed = 9
objects = 30
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_SCENARIO)
    return str(path)


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestCliAnalyze:
    def test_table_output(self, scenario_file, capsys):
        assert run_cli(["analyze", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "variant" in out and "vanilla" in out
        assert "total" in out and "SERVICE_LIMITED" in out

    def test_csv_output(self, scenario_file, capsys):
        assert run_cli(["analyze", scenario_file, "--format", "csv"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "variant,regime,component,min_ms,max_ms"

    def test_writes_csv_file(self, scenario_file, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert run_cli(["analyze", scenario_file, "--out", out_dir]) == 0
        assert os.path.isfile(os.path.join(out_dir, "analysis.csv"))

    def test_unknown_scenario_exits_2(self, capsys):
        assert run_cli(["analyze", "no-such-scenario"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no-such-scenario" in err


class TestCliSimulate:
    def test_summary_and_histograms(self, scenario_file, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert run_cli(["simulate", scenario_file, "--out", out_dir]) == 0
        for fname in ("summary.csv", "hist_e2e_vanilla.csv", "hist_cycle_vanilla.csv"):
            assert os.path.isfile(os.path.join(out_dir, fname)), fname
        with open(os.path.join(out_dir, "summary.csv")) as fh:
            header = fh.readline().strip()
        assert header.startswith("variant,captured,fetched,drops,detected")
        with open(os.path.join(out_dir, "hist_e2e_vanilla.csv")) as fh:
            assert fh.readline().strip() == "bin_start_ms,count"

    def test_trace_file_schema(self, scenario_file, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert run_cli(["simulate", scenario_file, "--trace", "--out", out_dir]) == 0
        path = os.path.join(out_dir, "trace_vanilla.tsv")
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "time_ns\tevent_type\tframe_id\tdetail"
        assert len(lines) > 100
        kinds = {ln.split("\t")[1] for ln in lines[1:]}
        assert "capture" in kinds and "retrieve" in kinds

    def test_reruns_are_byte_identical(self, scenario_file, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            out_dir = str(tmp_path / sub)
            assert run_cli(["simulate", scenario_file, "--trace",
                            "--out", out_dir]) == 0
            blob = {}
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    blob[fname] = fh.read()
            outs.append(blob)
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, scenario_file, capsys):
        assert run_cli(["simulate", scenario_file, "--format", "csv"]) == 0
        base = capsys.readouterr().out
        assert run_cli(["simulate", scenario_file, "--format", "csv",
                        "--seed", "123"]) == 0
        assert capsys.readouterr().out != base


class TestCliValidate:
    def test_healthy_model_passes(self, scenario_file, capsys):
        assert run_cli(["validate", scenario_file]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        assert "queue.upper" in out

    def test_shrunk_bounds_fail_with_exit_1(self, scenario_file, capsys):
        assert run_cli(["validate", scenario_file, "--shrink-bounds", "10"]) == 1
        out = capsys.readouterr().out
        assert "result: FAIL" in out and "FAIL" in out


class TestCliSimulatorWarnings:
    # A release delay past the end of the run: no frame is ever fetched.
    IDLE = FAST_SCENARIO.replace(
        "variants = vanilla", "variants = zero_slack\n\n[zero_slack]\ntheta = 5000"
    ).replace("duration_ms = 4000", "duration_ms = 300")

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_warning_is_a_note(self, command, tmp_path, capsys):
        path = tmp_path / "idle.ini"
        path.write_text(self.IDLE)
        assert run_cli([command, str(path)]) == 0
        out = capsys.readouterr().out
        assert "note: zero_slack: no frame was ever retrieved; run too short" in out

    def test_sweep_notes_each_point_that_warns(self, tmp_path, capsys):
        path = tmp_path / "idle.ini"
        path.write_text(self.IDLE)
        assert run_cli(["sweep", str(path), "--param", "theta", "--values", "0,5000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].split()[:2] == ["theta", "0.000"]
        assert lines[3].split() == ["theta", "5000.000", "nan", "nan"]
        assert lines[4:] == ["note: theta 5000.000: no frame was ever retrieved; run too short"]

    def test_checks_on_nothing_do_not_pass(self, tmp_path, capsys):
        path = tmp_path / "idle.ini"
        path.write_text(self.IDLE)
        assert run_cli(["validate", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        status = {ln.split(",")[1]: ln.split(",")[-1] for ln in lines[1:] if "," in ln}
        assert status["transfer"] == "ok"
        assert status["end_to_end"] == "n/a"
        assert "result: PASS" not in lines
        assert lines[-1].startswith("result: INCOMPLETE, not run: zero_slack/camera, ")
        assert "zero_slack/end_to_end" in lines[-1]


# Scenarios of the trace output test: a shipped preset, a run of one captured
# frame (the micro camera at 10 ms, the simulator tests' "single" run) and a
# run that retrieves no frame, whose trace holds only captures and skips.
_TRACE_SCENARIOS = {
    "default": None,
    "single": MICRO_INLINE.replace(
        "variants = vanilla", "variants = vanilla, on_demand, contention_free"
    ).replace("duration_ms = 100", "duration_ms = 10"),
    "idle": TestCliSimulatorWarnings.IDLE,
}


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


class TestTraceOutput:
    """The bytes `simulate --trace` writes and prints, pinned at a fixed seed."""

    SEED = 11
    # sha256 (first 16 hex digits) of every file `--out DIR` writes, of the
    # stdout with `--out DIR` (DIR spelled as such) and of the stdout without.
    # Recorded at commit 160c21d.
    GOLDEN = {
        "default": {
            "<stdout>": "203cb49bb093fb7f",
            "<stdout --out>": "d9d1852fdb785eba",
            "summary.csv": "8db5c6c9a140b46e",
            "hist_cycle_contention_free.csv": "98cccc858f15a1d6",
            "hist_cycle_on_demand.csv": "1dbda1467854181d",
            "hist_cycle_vanilla.csv": "79cb4ef91afbf346",
            "hist_cycle_zero_slack.csv": "a99498c9fa8efd11",
            "hist_e2e_contention_free.csv": "e152252cdc924471",
            "hist_e2e_on_demand.csv": "2e491a5a0d6fd440",
            "hist_e2e_vanilla.csv": "54f9b7ffe118f93f",
            "hist_e2e_zero_slack.csv": "b16158712499a395",
            "trace_contention_free.tsv": "2eb157ecd8002d4d",
            "trace_on_demand.tsv": "f436751d076c4b20",
            "trace_vanilla.tsv": "ce34542164e7fdab",
            "trace_zero_slack.tsv": "c1ce3f1b76938c37",
        },
        "single": {
            "<stdout>": "2fcb439b3b898142",
            "<stdout --out>": "01355feeb8e5693d",
            "summary.csv": "f238eb627757d1d0",
            "hist_cycle_contention_free.csv": "87c49d59c83bd2bc",
            "hist_cycle_on_demand.csv": "523e1d9529e2f80b",
            "hist_cycle_vanilla.csv": "523e1d9529e2f80b",
            "hist_e2e_contention_free.csv": "af3ad6020b2d4dd4",
            "hist_e2e_on_demand.csv": "af3ad6020b2d4dd4",
            "hist_e2e_vanilla.csv": "af3ad6020b2d4dd4",
            "trace_contention_free.tsv": "312af584a9bf69f2",
            "trace_on_demand.tsv": "312af584a9bf69f2",
            "trace_vanilla.tsv": "9d38403ccfa2f42e",
        },
        "idle": {
            "<stdout>": "b77c895b9ebc067e",
            "<stdout --out>": "0f3e0c20d26fb769",
            "summary.csv": "c241cf932cc9cbcd",
            "hist_cycle_zero_slack.csv": "af3ad6020b2d4dd4",
            "hist_e2e_zero_slack.csv": "af3ad6020b2d4dd4",
            "trace_zero_slack.tsv": "af051f9a6d72d549",
        },
    }

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trace")
        outs = {}
        for name, text in _TRACE_SCENARIOS.items():
            scenario = name
            if text is not None:
                scenario = str(tmp / f"{name}.ini")
                (tmp / f"{name}.ini").write_text(text)
            out_dir = str(tmp / f"{name}_out")
            argv = ["simulate", scenario, "--trace", "--seed", str(self.SEED)]
            blobs = {}
            for key, extra in (("<stdout>", []), ("<stdout --out>", ["--out", out_dir])):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert cli.main(argv + extra) == 0
                blobs[key] = buf.getvalue().replace(out_dir, "DIR").encode()
            for fname in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    blobs[fname] = fh.read()
            outs[name] = (load_scenario(scenario), blobs)
        return outs

    @pytest.mark.parametrize("name", sorted(_TRACE_SCENARIOS))
    def test_bytes_match_recorded_digests(self, name, outputs):
        _, blobs = outputs[name]
        assert {k: _digest(v) for k, v in blobs.items()} == self.GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(_TRACE_SCENARIOS))
    def test_tsv_parses_back_to_the_trace(self, name, outputs):
        scenario, blobs = outputs[name]
        for variant in scenario.variants:
            lines = blobs[f"trace_{variant.name}.tsv"].decode().split("\n")
            assert lines[0] == "time_ns\tevent_type\tframe_id\tdetail"
            assert lines[-1] == ""
            events = [(int(t), kind, int(frame), int(detail)) for t, kind, frame, detail
                      in (line.split("\t") for line in lines[1:-1])]
            r = run(scenario.sim_config(variant, seed=self.SEED, trace=True))
            assert events == list(r.trace)

    def test_traces_cover_every_event_kind(self, outputs):
        kinds = {}
        for name, (_, blobs) in outputs.items():
            kinds[name] = {line.split(b"\t")[1] for fname, blob in blobs.items()
                           if fname.startswith("trace_")
                           for line in blob.splitlines()[1:]}
        assert set().union(*kinds.values()) == {
            b"capture", b"accept", b"drop", b"skip", b"retrieve"}
        assert kinds["idle"] == {b"capture", b"skip"}


def _reference_tsv(trace) -> bytes:
    """The trace TSV formatted event by event from the trace's tuples."""
    return ("time_ns\tevent_type\tframe_id\tdetail\n"
            + "".join(f"{t}\t{k}\t{f}\t{d}\n" for t, k, f, d in trace)).encode()


def _reference_histogram(values, bin_ms: float = 1.0):
    """Floor-binned counts as (bin_start_ms, count) rows."""
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    if len(values) == 0:
        return []
    idx = np.floor(values / bin_ms).astype(np.int64)
    starts, counts = np.unique(idx, return_counts=True)
    return [(float(s * bin_ms), int(c)) for s, c in zip(starts, counts)]


def _trace(events) -> Trace:
    columns = list(zip(*events)) or [(), (), (), ()]
    return Trace(*(np.array(c, dtype=t) for c, t in
                   zip(columns, (np.int64, np.int8, np.int64, np.int64))))


_EVENTS = st.lists(st.tuples(st.integers(0, 2 ** 62 - 1),
                             st.integers(0, len(Trace.KINDS) - 1),
                             st.integers(0, 2 ** 63 - 1), st.integers(0, 2 ** 63 - 1)),
                   max_size=40)
_BIN_VALUES = st.lists(st.floats(-2.0 ** 62, 2.0 ** 62) | st.just(float("nan")),
                       max_size=40)


class TestOutFormatters:
    """The trace and histogram files `simulate --out` writes, against per-row
    references."""

    @settings(max_examples=200, deadline=None)
    @given(events=_EVENTS)
    @example(events=[])
    @example(events=[(0, 1, 0, 0)])
    @example(events=[(2 ** 62 - 1, 3, 2 ** 63 - 1, 9)])
    @example(events=[(k, k, 10 ** 18 + k, 4 - k) for k in range(len(Trace.KINDS))])
    def test_trace_matches_the_per_event_reference(self, events):
        trace = _trace(events)
        assert cli._trace_tsv(trace) == _reference_tsv(trace)

    @settings(max_examples=200, deadline=None)
    @given(values=_BIN_VALUES)
    @example(values=[])
    @example(values=[float("nan")] * 3)
    @example(values=[0.0, -0.0, 1.0, 0.9999999999999999, 2.0, 2.0, -1.0, 1e-300])
    @example(values=[1e15 + 0.5, 2.0 ** 53 + 1, 2.0 ** 62, 123456789.987654])
    def test_histogram_matches_the_reference(self, values):
        expected = cli._csv(("bin_start_ms", "count"), _reference_histogram(values))
        assert cli._hist_csv(values) == expected.encode()


class TestCliSweep:
    def test_queue_size_sweep_is_monotone(self, scenario_file, capsys):
        assert run_cli(["sweep", scenario_file, "--param", "queue_size",
                        "--values", "1..3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "param,value,mean_e2e_ms,mean_cycle_ms"
        rows = [ln.split(",") for ln in lines[1:4]]
        assert [r[1] for r in rows] == ["1", "2", "3"]
        means = [float(r[2]) for r in rows]
        assert means[0] < means[1] < means[2]

    def test_bad_values_exit_2(self, scenario_file, capsys):
        assert run_cli(["sweep", scenario_file, "--param", "queue_size",
                        "--values", "x..y"]) == 2

    def test_nn_resolution_requires_preset_suffix(self, tmp_path, capsys):
        path = tmp_path / "inline.ini"
        path.write_text(MICRO_INLINE)
        assert run_cli(["sweep", str(path), "--param", "nn_resolution",
                        "--values", "416,608"]) == 2
        assert "profile preset" in capsys.readouterr().err


class TestCliSweepPoints:
    # A sweep point is the file with the swept key edited: theta = auto
    # follows the swept camera or profile, and stage sections stay.
    BASE = FAST_SCENARIO.replace("variants = vanilla",
                                 "variants = zero_slack, vanilla\n\n[zero_slack]\ntheta = auto")
    STAGE = "\n[profile.disp_exec]\nconst = 30\n"

    @pytest.mark.parametrize("param, values, old, new, extra, variant", [
        ("nn_resolution", "416", "xavier-yolov3-608", "xavier-yolov3-{}", "", "zero_slack"),
        ("frame_rate", "20", "preset = c930e-640x480-30",
         "preset = c930e-640x480-30\nframe_rate = {}", "", "zero_slack"),
        ("nn_resolution", "416", "xavier-yolov3-608", "xavier-yolov3-{}", STAGE, "zero_slack"),
        # The points of these two share the camera timeline and the stage
        # draws (see `sim.run`).
        ("queue_size", "0,1,3", "size = 2", "size = {}", "", "vanilla"),
        ("theta", "0,10,25", "theta = auto", "theta = {}", "", "zero_slack"),
    ], ids=["nn_resolution", "frame_rate", "nn_resolution_keeps_stage_sections",
            "queue_size", "theta"])
    def test_sweep_row_is_the_edited_file(self, param, values, old, new, extra, variant,
                                          tmp_path, capsys):
        base = self.BASE + extra
        (tmp_path / "base.ini").write_text(base)
        assert run_cli(["sweep", str(tmp_path / "base.ini"), "--param", param,
                        "--values", values, "--format", "csv"]) == 0
        swept = capsys.readouterr().out.splitlines()[1:]
        assert len(swept) == len(values.split(","))
        for value, line in zip(values.split(","), swept):
            edited = base.replace(old, new.format(value)).replace("zero_slack, vanilla", variant)
            (tmp_path / "edited.ini").write_text(edited)
            assert run_cli(["simulate", str(tmp_path / "edited.ini"), "--format", "csv"]) == 0
            row = capsys.readouterr().out.splitlines()[1].split(",")
            assert row[0] == variant
            assert line.split(",")[2:] == [row[6], row[8]]   # mean_e2e_ms, mean_cycle_ms


class TestCliUsageErrors:
    def test_no_command_exits_2(self, capsys):
        assert run_cli([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert run_cli(["frobnicate", "default"]) == 2

    def test_bad_format_exits_2(self, scenario_file, capsys):
        assert run_cli(["analyze", scenario_file, "--format", "xml"]) == 2


# Scenario files with one bad value, as edits of FAST_SCENARIO.
_BAD_SCENARIOS = {
    "negative_seed": ("seed = 9", "seed = -1"),
    "fast_camera": ("preset = c930e-640x480-30",
                    "preset = c930e-640x480-30\nframe_rate = 9000"),
    "wide_jitter": ("objects = 30", "objects = 30\ncapture_jitter_ms = 20"),
    "negative_jitter": ("objects = 30", "objects = 30\ncapture_jitter_ms = -1"),
    "nan_jitter": ("objects = 30", "objects = 30\ncapture_jitter_ms = nan"),
    "nan_duration": ("duration_ms = 4000", "duration_ms = nan"),
    "inf_duration": ("duration_ms = 4000", "duration_ms = inf"),
    "nan_theta": ("variants = vanilla",
                  "variants = zero_slack\n\n[zero_slack]\ntheta = nan"),
    "inf_theta": ("variants = vanilla",
                  "variants = zero_slack\n\n[zero_slack]\ntheta = inf"),
    "nan_const": ("preset = xavier-yolov3-608",
                  "preset = xavier-yolov3-608\n\n[profile.fetch_exec]\nconst = nan"),
    "negative_const": ("preset = xavier-yolov3-608",
                       "preset = xavier-yolov3-608\n\n[profile.fetch_exec]\nconst = -1"),
    "nan_capture_floor": ("preset = c930e-640x480-30",
                          "preset = c930e-640x480-30\nmin_capture_delay = nan"),
    "repeated_variant": ("variants = vanilla", "variants = vanilla, on_demand, vanilla"),
    "fetch_1e12_queue_4": ("size = 2\n\n[profile]\npreset = xavier-yolov3-608",
                           "size = 4\n\n[profile]\npreset = xavier-yolov3-608\n\n"
                           "[profile.fetch_exec]\nconst = 1e12"),
    "fetch_1e15_contention_free": ("variants = vanilla", "variants = contention_free\n\n"
                                   "[profile.fetch_exec]\nconst = 1e15"),
    "fetch_1e308": ("preset = xavier-yolov3-608",
                    "preset = xavier-yolov3-608\n\n[profile.fetch_exec]\nconst = 1e308"),
    "negative_overhead": ("preset = c930e-640x480-30", "preset = c930e-640x480-30\n\n"
                          "[usb]\nprotocol_overhead_microframes = -1"),
    "zero_width": ("preset = c930e-640x480-30", "preset = c930e-640x480-30\nwidth = 0"),
    "negative_queue_on_demand": ("variants = vanilla\n\n[camera]\npreset = c930e-640x480-30\n\n"
                                 "[queue]\nsize = 2",
                                 "variants = on_demand\n\n[camera]\npreset = c930e-640x480-30\n\n"
                                 "[queue]\nsize = -1"),
    "negative_objects": ("objects = 30", "objects = -1"),
    "negative_duration": ("duration_ms = 4000", "duration_ms = -5"),
    "negative_theta": ("variants = vanilla",
                       "variants = zero_slack\n\n[zero_slack]\ntheta = -1"),
    "huge_overhead": ("preset = c930e-640x480-30", "preset = c930e-640x480-30\n\n"
                      "[usb]\nprotocol_overhead_microframes = 1000000000000000000"),
    "huge_width": ("preset = c930e-640x480-30",
                   "preset = c930e-640x480-30\nwidth = 1000000000000000"),
    # A microframe the ns clock cannot count: 0.6 ns, and 0.1 ns, which rounds to 0.
    "sub_ns_microframe": ("preset = c930e-640x480-30", "preset = c930e-640x480-30\n\n"
                          "[usb]\nmicroframe_ms = 0.0000006"),
    "tenth_ns_microframe": ("preset = c930e-640x480-30", "preset = c930e-640x480-30\n\n"
                            "[usb]\nmicroframe_ms = 1e-07"),
    # Integers too large for a float, alone or as a product; the zero_slack
    # variant computes its auto theta from the transfer.
    "width_1e400": ("variants = vanilla\n\n[camera]\npreset = c930e-640x480-30",
                    "variants = vanilla, zero_slack\n\n[camera]\npreset = c930e-640x480-30\n"
                    f"width = 1{'0' * 400}"),
    "area_1e400": ("variants = vanilla\n\n[camera]\npreset = c930e-640x480-30",
                   "variants = vanilla, zero_slack\n\n[camera]\npreset = c930e-640x480-30\n"
                   f"width = 1{'0' * 200}\nheight = 1{'0' * 200}"),
    "urb_1e400": ("preset = c930e-640x480-30", "preset = c930e-640x480-30\n\n"
                  f"[usb]\nurb_microframes = 1{'0' * 400}"),
    "overhead_1e400": ("preset = c930e-640x480-30", "preset = c930e-640x480-30\n\n"
                       f"[usb]\nprotocol_overhead_microframes = 1{'0' * 400}"),
    # A capture interval past a float's range, a queue size a float cannot
    # hold and more objects than an array can.
    "frame_rate_1e-310": ("preset = c930e-640x480-30",
                          "preset = c930e-640x480-30\nframe_rate = 1e-310"),
    "queue_1e400": ("size = 2", f"size = 1{'0' * 400}"),
    "objects_1e20": ("objects = 30", "objects = 100000000000000000000"),
    "csv_not_a_number": ("preset = xavier-yolov3-608",
                         "preset = xavier-yolov3-608\n\n[profile.fetch_exec]\ncsv = abc.csv"),
    "csv_not_utf8": ("preset = xavier-yolov3-608",
                     "preset = xavier-yolov3-608\n\n[profile.fetch_exec]\ncsv = latin1.csv"),
    "csv_long_field": ("preset = xavier-yolov3-608",
                       "preset = xavier-yolov3-608\n\n[profile.fetch_exec]\ncsv = long.csv"),
    # A bin width is read only with samples to bin.
    "stray_bin_ms": ("preset = xavier-yolov3-608", "preset = xavier-yolov3-608\n\n"
                     "[profile.fetch_exec]\ndist = 5:1\nbin_ms = abc"),
    "const_bin_ms": ("preset = xavier-yolov3-608", "preset = xavier-yolov3-608\n\n"
                     "[profile.fetch_exec]\nconst = 5\nbin_ms = 1"),
}

# Stage sample files and a scenario file that are not what they should be.
_BAD_FILES = {
    "abc.csv": b"5\nabc\n",
    "latin1.csv": b"5\n\xff\n",
    "long.csv": b"5\n" + b"1" * 200_000 + b"\n",   # beyond the csv module's field limit
    "not_utf8.ini": b"[scenario]\nname = \xff\n" + FAST_SCENARIO.encode()[len("[scenario]\n"):],
    # 2 ns captures with 0.8 ns of jitter, within 0.4 C, but 1 ns on the
    # clock's grid: two captures could swap.
    "grid_jitter.ini": b"""\
[scenario]
variants = vanilla

[camera]
frame_rate = 500000000
width = 8
height = 8
bits_per_pixel = 8

[usb]
bytes_per_microframe = 512
urb_microframes = 1
microframe_ms = 0.000001

[profile]
preset = xavier-yolov3-608

[sim]
duration_ms = 0.001
capture_jitter_ms = 0.0000008
""",
}


@pytest.fixture
def bad_scenarios(tmp_path):
    for name, (old, new) in _BAD_SCENARIOS.items():
        assert old in FAST_SCENARIO
        (tmp_path / f"{name}.ini").write_text(FAST_SCENARIO.replace(old, new))
    for name, content in _BAD_FILES.items():
        (tmp_path / name).write_bytes(content)
    return tmp_path


class TestCliBadValues:
    @pytest.mark.parametrize("argv, culprit", [
        (["validate", "default", "--seed", "-1"], "--seed"),
        (["validate", "{tmp}/negative_seed.ini"], "[sim] seed"),
        (["sweep", "default", "--param", "theta", "--values", "-5"], "--values"),
        (["sweep", "default", "--param", "queue_size", "--values", "-1"], "--values"),
        (["sweep", "default", "--param", "queue_size", "--values", "0.5"], "--values"),
        (["sweep", "default", "--param", "frame_rate", "--values", "0"], "--values"),
        (["sweep", "default", "--param", "frame_rate", "--values", "-5"], "--values"),
        (["sweep", "default", "--param", "frame_rate", "--values", "1000"], "--values"),
        (["analyze", "{tmp}/fast_camera.ini"], "[camera] frame_rate"),
        (["simulate", "{tmp}/wide_jitter.ini"], "[sim] capture_jitter_ms"),
        (["simulate", "{tmp}/negative_jitter.ini"], "[sim] capture_jitter_ms"),
        (["sweep", "default", "--param", "theta", "--values", "nan"], "--values"),
        (["sweep", "default", "--param", "theta", "--values", "inf"], "--values"),
        (["sweep", "default", "--param", "queue_size", "--values", "nan"], "--values"),
        (["sweep", "default", "--param", "queue_size", "--values", "inf"], "--values"),
        (["simulate", "{tmp}/nan_duration.ini"], "[sim] duration_ms"),
        (["simulate", "{tmp}/inf_duration.ini"], "[sim] duration_ms"),
        (["analyze", "{tmp}/nan_theta.ini"], "[zero_slack] theta"),
        (["analyze", "{tmp}/inf_theta.ini"], "[zero_slack] theta"),
        (["analyze", "{tmp}/nan_const.ini"], "[profile.fetch_exec] const"),
        (["analyze", "{tmp}/negative_const.ini"], "[profile.fetch_exec] const"),
        (["analyze", "{tmp}/nan_capture_floor.ini"], "[camera] min_capture_delay"),
        (["validate", "{tmp}/nan_jitter.ini"], "[sim] capture_jitter_ms"),
        (["validate", "default", "--shrink-bounds", "-50"], "--shrink-bounds"),
        (["validate", "default", "--shrink-bounds", "nan"], "--shrink-bounds"),
        (["validate", "default", "--shrink-bounds", "inf"], "--shrink-bounds"),
        (["sweep", "default", "--param", "queue_size", "--values", "5..1"], "--values"),
        (["sweep", "default", "--param", "queue_size", "--values", ","], "--values"),
        (["sweep", "default", "--param", "nn_resolution", "--values", "608.9"], "--values"),
        (["sweep", "default", "--param", "queue_size", "--values", "0.5"],
         "--values: queue_size 0.5: [queue] size"),
        (["sweep", "default", "--param", "nn_resolution", "--values", "calibrated"],
         "--values: nn_resolution calibrated: [profile] preset"),
        (["simulate", "{tmp}/repeated_variant.ini", "--out", "{tmp}/out"],
         "[scenario] variants: 'vanilla' is listed more than once"),
        (["analyze", "{tmp}/csv_not_a_number.ini"],
         "[profile.fetch_exec] csv: {tmp}/abc.csv:2: not a number: 'abc'"),
        (["analyze", "{tmp}/csv_not_utf8.ini"],
         "[profile.fetch_exec] csv: {tmp}/latin1.csv: not UTF-8 text"),
        (["analyze", "{tmp}/csv_long_field.ini"],
         "[profile.fetch_exec] csv: {tmp}/long.csv: field larger than field limit"),
        (["validate", "{tmp}/not_utf8.ini"], "{tmp}/not_utf8.ini: not UTF-8 text"),
        (["analyze", "{tmp}/stray_bin_ms.ini"], "[profile.fetch_exec] bin_ms: only with csv="),
        (["validate", "{tmp}/stray_bin_ms.ini"], "[profile.fetch_exec] bin_ms: only with csv="),
        (["simulate", "{tmp}/const_bin_ms.ini"], "[profile.fetch_exec] bin_ms: only with csv="),
        (["simulate", "{tmp}/fetch_1e12_queue_4.ini"], "[profile.fetch_exec]"),
        (["validate", "{tmp}/fetch_1e15_contention_free.ini"], "[profile.fetch_exec]"),
        (["analyze", "{tmp}/fetch_1e308.ini"], "[profile.fetch_exec]"),
        (["analyze", "{tmp}/negative_overhead.ini"], "[usb] protocol_overhead_microframes:"),
        (["analyze", "{tmp}/zero_width.ini"], "[camera] width:"),
        (["analyze", "{tmp}/negative_queue_on_demand.ini"], "[queue] size: must be >= 0"),
        (["simulate", "{tmp}/negative_objects.ini"], "[sim] objects: must be >= 0"),
        (["simulate", "{tmp}/negative_duration.ini"], "[sim] duration_ms: must be positive"),
        (["analyze", "{tmp}/negative_theta.ini"], "[zero_slack] theta: must be >= 0"),
        (["analyze", "{tmp}/huge_overhead.ini"], "[camera]/[usb] frame transfer: 1.25e+17 ms"),
        (["analyze", "{tmp}/huge_width.ini"], "[camera]/[usb] frame transfer: 4.46429e+13 ms"),
        (["validate", "{tmp}/sub_ns_microframe.ini"], "[usb] microframe_ms:"),
        (["analyze", "{tmp}/sub_ns_microframe.ini"], "[usb] microframe_ms:"),
        (["simulate", "{tmp}/tenth_ns_microframe.ini"], "[usb] microframe_ms:"),
        (["simulate", "{tmp}/grid_jitter.ini"], "[sim] capture_jitter_ms:"),
        (["analyze", "{tmp}/width_1e400.ini"], "[camera]/[usb] frame transfer:"),
        (["simulate", "{tmp}/width_1e400.ini"], "[camera]/[usb] frame transfer:"),
        (["analyze", "{tmp}/area_1e400.ini"], "[camera]/[usb] frame transfer:"),
        (["simulate", "{tmp}/area_1e400.ini"], "[camera]/[usb] frame transfer:"),
        (["analyze", "{tmp}/urb_1e400.ini"], "[usb] urb_microframes:"),
        (["simulate", "{tmp}/overhead_1e400.ini"], "[camera]/[usb] frame transfer:"),
        (["analyze", "{tmp}/frame_rate_1e-310.ini"], "[camera] frame_rate:"),
        (["validate", "{tmp}/frame_rate_1e-310.ini"], "[camera] frame_rate:"),
        (["simulate", "{tmp}/frame_rate_1e-310.ini"], "[camera] frame_rate:"),
        (["analyze", "{tmp}/queue_1e400.ini"], "[queue] size:"),
        (["validate", "{tmp}/queue_1e400.ini"], "[queue] size:"),
        (["simulate", "{tmp}/objects_1e20.ini"], "[sim] objects:"),
        (["validate", "{tmp}/objects_1e20.ini"], "[sim] objects:"),
    ])
    def test_exits_2_naming_the_culprit(self, argv, culprit, bad_scenarios, capsys):
        # In process: any exception other than argparse's exit fails the test.
        argv = [a.replace("{tmp}", str(bad_scenarios)) for a in argv]
        assert run_cli(argv) == 2
        assert culprit.replace("{tmp}", str(bad_scenarios)) in capsys.readouterr().err

    # A queue size that a float holds but int64 cannot still runs: the
    # simulator runs a FIFO larger than the run's frame count as one of that
    # many buffers, and the trace of such a run holds no drop.
    @pytest.mark.parametrize("command", ["simulate", "validate", "simulate --trace"])
    @pytest.mark.parametrize("size", ["9223372036854775807", "100000000000000000000"])
    def test_fifo_beyond_int64_runs(self, command, size, tmp_path, capsys):
        path = tmp_path / "huge_queue.ini"
        path.write_text(FAST_SCENARIO.replace("size = 2", f"size = {size}"))
        command, *flags = command.split()
        assert run_cli([command, str(path), *flags]) == 0

    # Every field the camera and link configs check is reported by its key,
    # so no check of theirs can bypass the scenario parser's key table.
    @pytest.mark.parametrize("section, field", [
        *(("camera", f.name) for f in fields(CameraConfig)),
        *(("usb", f.name) for f in fields(UsbLinkConfig)),
    ])
    def test_every_camera_and_usb_field_is_named_by_its_key(self, section, field,
                                                             tmp_path, capsys):
        text = FAST_SCENARIO + ("" if section == "camera" else "\n[usb]\n")
        path = tmp_path / "bad.ini"
        path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{field} = -1\n"))
        assert run_cli(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: [{section}] {field}: ")


    # An `--out` directory that cannot be made is reported by the flag.
    @pytest.mark.parametrize("command", ["analyze", "simulate"])
    @pytest.mark.parametrize("out, code", [("file", errno.EEXIST),
                                           ("file/sub", errno.ENOTDIR)])
    def test_out_errors_name_the_flag(self, command, out, code, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert run_cli([command, "default", "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --out: [Errno {code}] {os.strerror(code)}: ")


class TestCliModule:
    ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pipedelay.__file__)))

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["validate", "{tmp}/negative_seed.ini"], 2, "stderr", "error: [sim] seed"),
        (["analyze", "default", "--format", "csv"], 0, "stdout", "vanilla,SERVICE_LIMITED,"),
    ])
    def test_python_m_entry_point(self, argv, code, stream, text, bad_scenarios):
        argv = [a.replace("{tmp}", str(bad_scenarios)) for a in argv]
        proc = subprocess.run([sys.executable, "-m", "pipedelay.cli", *argv],
                              capture_output=True, text=True, env=self.ENV, timeout=60)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert text in getattr(proc, stream)

    def test_closed_stdout_exits_141_quietly(self):
        # As `pipedelay simulate default --trace | head -1` does.
        proc = subprocess.Popen([sys.executable, "-m", "pipedelay.cli", "simulate", "default",
                                 "--trace"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.ENV)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        finally:
            proc.kill()
        assert first.startswith(b"variant ")
        assert (proc.returncode, err) == (141, b"")


class TestCliParserReuse:
    def test_interleaved_calls_match_separate_ones(self, scenario_file, capsys):
        """One process builds the parser once. Calls that interleave the
        subcommands, csv and table output, seed overrides and usage errors
        print the bytes and exit with the codes of calls that each build
        their own parser."""
        argvs = [
            ["analyze", scenario_file, "--format", "csv"],
            ["simulate", scenario_file, "--seed", "3", "--format", "csv"],
            ["simulate", scenario_file],
            ["validate", scenario_file, "--shrink-bounds", "10"],
            ["analyze", scenario_file],
            ["sweep", scenario_file, "--param", "queue_size", "--values", "x"],
            ["validate", scenario_file, "--format", "csv"],
            ["simulate", scenario_file, "--shrink-bounds", "1"],
            ["sweep", scenario_file, "--param", "queue_size", "--values", "0..2", "--seed", "5"],
            ["sweep", scenario_file, "--param", "queue_size", "--values", "0..2"],
        ]

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            return code, out.getvalue(), err.getvalue()

        separate = []
        for argv in argvs:
            cli._build_parser.cache_clear()
            separate.append(call(argv))
        assert {code for code, _, _ in separate} == {0, 1, 2}
        cli._build_parser.cache_clear()
        interleaved = [call(argv) for argv in argvs + argvs[::-1]]
        assert interleaved == separate + separate[::-1]
        assert cli._build_parser.cache_info().misses == 1


# -- fuzzing --------------------------------------------------------------------

_TOKENS = ("nan", "-1", "", "1e9", "0..", "0", "2", "inf", "0..2", "1,2", "x", "1e-07")


def _scenario_files(tmp: str, data) -> list[str]:
    """Scenario file arguments: a preset and the grammar example, both cut
    to at most 5 s, the example with one value replaced by a token (any
    token but 1e9 ms for the duration), and a path that does not exist."""
    duration = f"duration_ms = {data.draw(st.sampled_from([100, 1000, 5000]))}"
    preset = data.draw(st.sampled_from(sorted(SCENARIO_PRESETS)))
    example = _grammar_example().replace("duration_ms = 120000", duration)
    lines = example.splitlines()
    keyed = [i for i, line in enumerate(lines) if " = " in line and not line.startswith(";")]
    i = data.draw(st.sampled_from(keyed))
    key = lines[i].split(" = ")[0]
    tokens = [t for t in _TOKENS if not (key == "duration_ms" and t == "1e9")]
    lines[i] = f"{key} = {data.draw(st.sampled_from(tokens))}"
    texts = {
        "preset.ini": SCENARIO_PRESETS[preset].replace("duration_ms = 120000", duration),
        "example.ini": example,
        "edited.ini": "\n".join(lines) + "\n",
    }
    for name, text in texts.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return [os.path.join(tmp, name) for name in texts] + [os.path.join(tmp, "missing.ini")]


class TestCliFuzz:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_is_0_1_or_2(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            command = data.draw(st.sampled_from(["analyze", "simulate", "validate", "sweep"]))
            scenarios = _scenario_files(tmp, data)
            if command == "analyze":   # the only command fast on a 120 s preset
                scenarios += sorted(SCENARIO_PRESETS)
            argv = [command, data.draw(st.sampled_from(scenarios))]
            token = st.sampled_from(_TOKENS)
            flags = {
                "--seed": token | st.just("7"),
                "--out": st.sampled_from([os.path.join(tmp, "out"), ""]),
                "--format": st.sampled_from(["table", "csv", "xml"]),
            }
            if command == "simulate":
                flags["--trace"] = st.none()
            if command == "validate":
                flags["--shrink-bounds"] = token
            if command == "sweep":
                argv += ["--param", data.draw(st.sampled_from(
                    ["queue_size", "theta", "frame_rate", "nn_resolution"]))]
                argv += ["--values", data.draw(token | st.just("416,608"))]
            for flag, values in flags.items():
                if data.draw(st.booleans()):
                    value = data.draw(values)
                    argv += [flag] if value is None else [flag, value]
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except SystemExit as exc:   # argparse usage errors
                assert exc.code == 2, argv
            else:
                assert code in (0, 1, 2), argv


# A short scenario whose fetch stage is read from a sample file.
_CSV_SCENARIO = """\
[scenario]
variants = vanilla, zero_slack

[camera]
preset = c930e-640x480-30

[profile]
preset = xavier-yolov3-608

[profile.fetch_exec]
csv = samples.csv

[sim]
duration_ms = 500
objects = 20
"""


class TestCliFileFuzz:
    """Random bytes, or random text lines put among the real ones, in the
    scenario file or in its stage sample file."""

    @staticmethod
    def _contents(data, base: str) -> bytes:
        if data.draw(st.booleans()):
            return data.draw(st.binary(max_size=200))
        lines = base.splitlines()
        for _ in range(data.draw(st.integers(1, 4))):
            lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.text(max_size=20)))
        return ("\n".join(lines) + "\n").encode()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_is_0_1_or_2(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            texts = {"scenario.ini": _CSV_SCENARIO, "samples.csv": "5\n6\n7.5\n"}
            fuzzed = data.draw(st.sampled_from(sorted(texts)))
            files = {name: text.encode() for name, text in texts.items()}
            files[fuzzed] = self._contents(data, texts[fuzzed])
            for name, content in files.items():
                with open(os.path.join(tmp, name), "wb") as fh:
                    fh.write(content)
            command = data.draw(st.sampled_from(["analyze", "simulate", "validate"]))
            argv = [command, os.path.join(tmp, "scenario.ini")]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code in (0, 1, 2), (argv, files[fuzzed])
