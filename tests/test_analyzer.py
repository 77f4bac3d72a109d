"""End-to-end bound composition and simulation-vs-analysis validation."""

import dataclasses

import numpy as np
import pytest

from pipedelay import detector, dist
from pipedelay.analysis import analyze, validate_against_analysis
from pipedelay.camera import CameraConfig, UsbLinkConfig
from pipedelay.detector import OnDemand, StageProfile, Vanilla, ZeroSlack
from pipedelay.dist import DelayDist, ZERO_DELAY
from pipedelay.presets import SCENARIO_PRESETS
from pipedelay.queueing import QueueRegime
from pipedelay.scenario import load_scenario
from pipedelay.sim import SimConfig, run

MICRO_CAM = CameraConfig(frame_rate=100.0, width=700, height=1, bits_per_pixel=16)
MICRO_USB = UsbLinkConfig(bytes_per_microframe=100, urb_microframes=8)
MICRO_PROFILE = StageProfile(
    fetch_exec=DelayDist.constant(2.0),
    infer_cpu=DelayDist.constant(8.0),
    infer_gpu=ZERO_DELAY,
    disp_exec=DelayDist.constant(1.0),
    infer_inflation=ZERO_DELAY,
)

VGA30 = CameraConfig(frame_rate=30.0, width=640, height=480, bits_per_pixel=16)
USB_VGA30 = UsbLinkConfig(bytes_per_microframe=2688, urb_microframes=32)
HEAVY_PROFILE = StageProfile(
    fetch_exec=DelayDist.constant(5.0),
    infer_cpu=DelayDist.constant(5.0),
    infer_gpu=DelayDist.from_points([(120, 0.5), (130, 0.5)]),
    disp_exec=DelayDist.constant(6.0),
    infer_inflation=DelayDist.constant(28.0),
)


@pytest.fixture(scope="module")
def micro_bounds():
    return analyze(MICRO_CAM, MICRO_USB, MICRO_PROFILE, Vanilla(1))


@pytest.fixture(scope="module")
def heavy_bounds():
    return analyze(VGA30, USB_VGA30, HEAVY_PROFILE, Vanilla(4))


@pytest.fixture(scope="module")
def heavy_report(heavy_bounds):
    r = run(
        SimConfig(
            camera=VGA30, usb=USB_VGA30, profile=HEAVY_PROFILE,
            variant=Vanilla(4), duration_ms=30000.0, seed=3, n_objects=80,
        )
    )
    return validate_against_analysis(r, heavy_bounds)


class TestMicroScenarioBounds:
    """The 100 fps hand-traceable pipeline, every bound computed by hand."""

    @pytest.fixture
    def bounds(self, micro_bounds):
        return micro_bounds

    def test_regime_and_inputs(self, bounds):
        assert bounds.regime is QueueRegime.ARRIVAL_LIMITED
        assert bounds.arrivals.points() == [(10.0, 1.0)]
        assert (bounds.service_min, bounds.service_max) == (8.0, 8.0)
        assert not bounds.saturation_certified

    def test_component_bounds(self, bounds):
        assert bounds.camera.d_tran_min == pytest.approx(2.0)
        assert bounds.camera.d_tran_max_exclusive == pytest.approx(3.0)
        assert bounds.camera.d_camera_min == pytest.approx(2.0)
        assert bounds.camera.d_camera_max_exclusive == pytest.approx(23.0)
        assert (bounds.queue.d_queue_min, bounds.queue.d_queue_max) == (0.0, 0.0)
        # A drained queue can hand over a frame mid-cycle, so the detector
        # window is widened: [fetch + s_min + disp, 2*s_max + disp].
        assert bounds.detector.d_detector_min == pytest.approx(11.0)
        assert bounds.detector.d_detector_max == pytest.approx(31.0)

    def test_total_is_componentwise_sum(self, bounds):
        assert bounds.total_min == pytest.approx(13.0)
        assert bounds.total_max == pytest.approx(54.0)
        assert bounds.total_min == pytest.approx(
            bounds.camera.d_camera_min
            + bounds.queue.d_queue_min
            + bounds.detector.d_detector_min
        )
        assert bounds.total_max == pytest.approx(
            bounds.camera.d_camera_max_exclusive
            + bounds.queue.d_queue_max
            + bounds.detector.d_detector_max
        )

    def test_simulated_delays_inside_bounds(self, bounds):
        r = run(
            SimConfig(
                camera=MICRO_CAM, usb=MICRO_USB, profile=MICRO_PROFILE,
                variant=Vanilla(1), duration_ms=100.0, seed=7,
                object_times_ms=(0.0, 34.0),
            )
        )
        e2e = r.detected_e2e()
        assert np.all(e2e >= bounds.total_min) and np.all(e2e <= bounds.total_max)
        report = validate_against_analysis(r, bounds)
        assert report.ok, [c for c in report.checks if not c.ok]


class TestCertifiedSaturation:
    """30 fps camera against a ~160 ms detector: the queue pins at full."""

    @pytest.fixture
    def bounds(self, heavy_bounds):
        return heavy_bounds

    def test_regime_certified(self, bounds):
        assert bounds.regime is QueueRegime.SERVICE_LIMITED
        assert bounds.saturation_certified
        assert bounds.warnings == ()

    def test_frozen_component_values(self, bounds):
        # Nominal service {153, 163}; queue uses the blocking-widened max.
        assert bounds.detector.d_detector_min == pytest.approx(312.0)
        assert bounds.detector.d_detector_max == pytest.approx(332.0)
        assert bounds.queue.d_queue_max == pytest.approx(627.125)
        assert bounds.queue.d_queue_min == pytest.approx(543.125)
        assert bounds.camera.d_camera_min == pytest.approx(28.875)
        # Capture window: ceil((163 + 4) / 33.33) = 6 frame times.
        assert bounds.camera.d_camera_max_exclusive == pytest.approx(232.875)
        assert bounds.total_min == pytest.approx(884.0)
        assert bounds.total_max == pytest.approx(1192.0)

    @pytest.fixture
    def report(self, heavy_report):
        return heavy_report

    def test_simulation_within_bounds(self, report):
        assert report.ok, [c for c in report.checks if not c.ok]
        names = {c.name for c in report.checks}
        assert {"transfer", "camera", "queue.upper", "queue.lower",
                "detector", "end_to_end"} <= names
        for c in report.checks:
            assert c.n_checked > 0, c.name

    def test_shrunk_bounds_must_fail(self, bounds):
        # Self-test knob: narrowing the intervals by more than the transfer
        # window width has to produce violations in a healthy model.
        r = run(
            SimConfig(
                camera=VGA30, usb=USB_VGA30, profile=HEAVY_PROFILE,
                variant=Vanilla(4), duration_ms=10000.0, seed=3, n_objects=40,
            )
        )
        report = validate_against_analysis(r, bounds, shrink_ms=10.0)
        assert not report.ok
        assert report.total_violations > 0

    @pytest.mark.parametrize("kwargs", [
        {"shrink_ms": -50.0}, {"shrink_ms": float("nan")}, {"shrink_ms": float("inf")},
    ])
    def test_widening_shrink_or_tolerance_is_rejected(self, bounds, kwargs):
        # A negative shrink widens every interval and NaN makes every
        # comparison false; either could turn a FAIL into a PASS.
        r = run(
            SimConfig(
                camera=VGA30, usb=USB_VGA30, profile=HEAVY_PROFILE,
                variant=Vanilla(4), duration_ms=1000.0, seed=3, n_objects=5,
            )
        )
        with pytest.raises(ValueError, match="finite and >= 0"):
            validate_against_analysis(r, bounds, **kwargs)


def _plain(obj):
    """Dataclass fields as nested dicts, distributions as point lists."""
    if isinstance(obj, DelayDist):
        return obj.points()
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    return obj


def _system(name):
    if name == "micro":
        return MICRO_CAM, MICRO_USB, MICRO_PROFILE
    s = load_scenario(name)
    return s.camera, s.usb, s.profile


class TestQueuelessEquivalence:
    @pytest.mark.parametrize("system", ["micro", *sorted(SCENARIO_PRESETS)])
    def test_zero_size_queue_matches_on_demand(self, system):
        a = analyze(*_system(system), Vanilla(0))
        b = analyze(*_system(system), OnDemand())
        assert a.variant_name == "vanilla"
        assert b.variant_name == "on_demand"
        fields_a, fields_b = _plain(a), _plain(b)
        del fields_a["variant_name"], fields_b["variant_name"]
        assert fields_a == fields_b
        assert (a.queue.d_queue_min, a.queue.d_queue_max) == (0.0, 0.0)

    def test_on_demand_micro_bounds(self):
        b = analyze(MICRO_CAM, MICRO_USB, MICRO_PROFILE, OnDemand())
        # 2*8 + 1 - b_fetch_max 13 and 2*15 + 1 - b_fetch_min 1.
        assert b.detector.d_detector_min == pytest.approx(4.0)
        assert b.detector.d_detector_max == pytest.approx(30.0)
        assert b.total_min == pytest.approx(6.0)
        assert b.total_max == pytest.approx(53.0)


class TestExtremesOnly:
    @pytest.mark.parametrize("name", sorted(SCENARIO_PRESETS))
    def test_analyze_builds_no_distribution(self, name, monkeypatch):
        # The bounds read stage extremes only; neither a convolution nor a
        # max-combination may run inside analyze.
        scenario = load_scenario(name)

        def forbidden(*args, **kwargs):
            raise AssertionError("analyze built a distribution")

        monkeypatch.setattr(DelayDist, "convolve", forbidden)
        monkeypatch.setattr(dist, "max_combine", forbidden)
        monkeypatch.setattr(detector, "max_combine", forbidden)
        for variant in (*scenario.variants, Vanilla(0)):
            analyze(scenario.camera, scenario.usb, scenario.profile, variant)


class TestWarnings:
    def test_uncertified_queue_is_flagged(self):
        b = analyze(MICRO_CAM, MICRO_USB, MICRO_PROFILE, Vanilla(1))
        assert any("saturation not certified" in w for w in b.warnings)

    def test_dominating_release_delay_is_flagged(self):
        b = analyze(VGA30, USB_VGA30, HEAVY_PROFILE, ZeroSlack(500.0))
        assert any("fetch branch dominate" in w for w in b.warnings)

    def test_clamped_detector_bound_is_flagged(self):
        tiny = StageProfile(
            fetch_exec=DelayDist.constant(1.0),
            infer_cpu=DelayDist.constant(1.0),
            infer_gpu=ZERO_DELAY,
            disp_exec=DelayDist.constant(1.0),
            infer_inflation=ZERO_DELAY,
        )
        b = analyze(VGA30, USB_VGA30, tiny, OnDemand())
        assert b.detector.clamped
        assert any("clamped" in w for w in b.warnings)

