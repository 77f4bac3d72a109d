"""Event-level checks of the discrete-event simulator.

The central fixture is a hand-traceable micro pipeline: 100 fps capture,
1 ms buffering period, exactly 2 ms transfer, constant stage times
(fetch 2, infer 8, display 1) and a single-slot queue. Every retrieval
then happens on frame arrival and the whole schedule can be written down
by hand. The camera timeline carries one random grid phase per seed, a
constant offset recoverable from the first delivery, so the assertions
are phrased relative to it.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from pipedelay.camera import CameraConfig, UsbLinkConfig
from pipedelay.detector import (
    ContentionFree,
    OnDemand,
    StageProfile,
    Vanilla,
    ZeroSlack,
    blocking_bounds,
)
from pipedelay.dist import DelayDist, ZERO_DELAY
from pipedelay.scenario import load_scenario
from pipedelay.sim import SimConfig, SimResult, run

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


def micro_config(**overrides):
    kw = dict(
        camera=MICRO_CAM,
        usb=MICRO_USB,
        profile=MICRO_PROFILE,
        variant=Vanilla(1),
        duration_ms=100.0,
        seed=7,
        object_times_ms=(0.0, 34.0),
    )
    kw.update(overrides)
    return SimConfig(**kw)


def heavy_config(**overrides):
    """Saturating load: 30 fps arrivals against a slow constant detector."""
    profile = StageProfile(
        fetch_exec=DelayDist.constant(5.0),
        infer_cpu=DelayDist.constant(5.0),
        infer_gpu=DelayDist.from_points([(120, 0.5), (130, 0.5)]),
        disp_exec=DelayDist.constant(6.0),
        infer_inflation=DelayDist.constant(28.0),
    )
    kw = dict(
        camera=VGA30,
        usb=USB_VGA30,
        profile=profile,
        variant=Vanilla(4),
        duration_ms=20000.0,
        seed=11,
        n_objects=100,
    )
    kw.update(overrides)
    return SimConfig(**kw)


@pytest.fixture(scope="module")
def micro_result():
    return run(micro_config())


@pytest.fixture(scope="module", params=["vanilla", "on_demand"])
def loop_result(request):
    variant = Vanilla(4) if request.param == "vanilla" else OnDemand()
    return run(heavy_config(variant=variant))


class TestMicroHandTrace:
    """Full schedule of the 10-frame micro run, written out by hand.

    With the grid phase called phi: frame k is captured at 10k, delivered
    at 10k + 2 + phi, and every retrieval is starved (cycle k of length
    10 starts at 10(k-1) + 4 + phi and waits 8 ms for the next frame).
    Frame 0 is displayed in the cycle starting at 14 + phi, so an object
    appearing at t=0 reaches the screen 15 + phi ms later.
    """

    @pytest.fixture
    def result(self, micro_result):
        return micro_result

    @pytest.fixture
    def phi(self, result):
        return float(result.delivery_ms[0]) - 2.0

    def test_grid_phase_in_buffering_period(self, phi):
        assert 0.0 <= phi < 1.0

    def test_camera_timeline(self, result, phi):
        assert result.frames_captured == 10
        assert np.allclose(result.capture_ms, 10.0 * np.arange(10))
        assert np.allclose(result.delivery_ms, 10.0 * np.arange(10) + 2.0 + phi)
        # Transfer takes exactly 16 microframes; delivery rounds up to the
        # next buffering-period boundary.
        tran = result.delivery_ms - result.capture_ms
        assert np.all(tran >= 2.0) and np.all(tran < 3.0)

    def test_every_frame_retrieved_on_arrival(self, result, phi):
        assert list(result.fetched_frames) == list(range(10))
        assert result.drops == 0
        assert np.allclose(result.dequeue_ms, result.delivery_ms)
        assert np.allclose(result.queue_delays, 0.0)
        # Starved retrievals: the fetch thread was already waiting.
        assert np.all(result.b_fetch_ms > 0.0)
        assert np.allclose(result.b_fetch_ms[1:], 8.0)
        assert result.b_fetch_ms[0] == pytest.approx(2.0 + phi, abs=1e-6)
        assert np.all(result.admit_ahead == 0)

    def test_cycle_schedule(self, result, phi):
        # Cycle 0 only fetches; cycles 1..9 are paced by the 10 ms wait
        # for the next arrival; the last two drain the pipeline.
        starts = result.cycle_start_ms
        lens = result.cycle_times
        assert len(lens) == 12
        assert starts[0] == 0.0
        assert lens[0] == pytest.approx(4.0 + phi, abs=1e-6)
        assert np.allclose(starts[1:11], 10.0 * np.arange(10) + 4.0 + phi)
        assert np.allclose(lens[1:10], 10.0)
        assert lens[10] == pytest.approx(8.0)
        assert lens[11] == pytest.approx(1.0)
        assert list(result.cycle_steady_mask) == [False, False] + [True] * 8 + [False, False]
        assert result.mean_cycle_ms() == pytest.approx(10.0)

    def test_detector_delays(self, result):
        # Retrieval to display spans the infer cycle plus one display slot:
        # 8 (wait out own fetch cycle) + ... = 13 ms in steady state, 11 for
        # the last frame whose infer cycle has no fetch to pace it.
        assert np.allclose(result.detector_delays[:9], 13.0)
        assert result.detector_delays[9] == pytest.approx(11.0)
        assert list(result.steady_frame_mask) == (
            [False, False] + [True] * 7 + [False]
        )

    def test_object_end_to_end(self, result, phi):
        # Object at t=0 rides frame 0 (captured the same instant) and is
        # displayed at 15 + phi; object at t=34 rides frame 4 (captured at
        # 40) and is displayed at 55 + phi.
        assert result.objects_missed == 0
        assert list(result.object_frame) == [0, 4]
        assert result.e2e_delays[0] == pytest.approx(15.0 + phi, abs=1e-6)
        assert result.e2e_delays[1] == pytest.approx(55.0 + phi - 34.0, abs=1e-6)
        assert result.camera_delays[0] == pytest.approx(2.0 + phi, abs=1e-6)

    def test_occupancy_never_exceeds_queue(self, result):
        assert result.occupancy_depth.max() == 1
        assert result.occupancy_depth.min() == 0
        assert result.first_full_ms is not None


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        a = run(heavy_config())
        b = run(heavy_config())
        assert np.array_equal(a.e2e_delays, b.e2e_delays, equal_nan=True)
        assert np.array_equal(a.cycle_times, b.cycle_times)
        assert np.array_equal(a.queue_delays, b.queue_delays)
        assert np.array_equal(a.delivery_ms, b.delivery_ms)
        assert a.drops == b.drops

    def test_different_seed_changes_stream(self):
        a = run(heavy_config(seed=11))
        b = run(heavy_config(seed=12))
        assert not np.array_equal(a.cycle_times, b.cycle_times)

    def test_trace_flag_does_not_change_results(self):
        a = run(heavy_config())
        b = run(heavy_config(trace=True))
        assert np.array_equal(a.e2e_delays, b.e2e_delays, equal_nan=True)
        assert np.array_equal(a.cycle_times, b.cycle_times)
        assert b.trace is not None and len(b.trace)


class TestConservationAndCausality:
    @pytest.fixture
    def result(self, loop_result):
        return loop_result

    def test_every_capture_is_fetched_or_dropped(self, result):
        assert result.frames_captured == result.frames_fetched + result.drops

    def test_event_order_per_frame(self, result):
        f = result.fetched_frames
        assert np.all(result.capture_ms[f] < result.delivery_ms[f])
        assert np.all(result.decision_ms[f] <= result.delivery_ms[f])
        assert np.all(result.delivery_ms[f] <= result.dequeue_ms + 1e-9)
        assert np.all(result.dequeue_ms < result.display_end_ms)

    def test_delays_nonnegative(self, result):
        assert np.all(result.queue_delays >= 0)
        assert np.all(result.detector_delays > 0)
        assert np.all(result.b_fetch_ms >= 0)
        detected = result.detected_e2e()
        assert len(detected) and np.all(detected > 0)

    def test_retrieval_order_is_capture_order(self, result):
        assert np.all(np.diff(result.fetched_frames) > 0)


class TestQueueBehaviour:
    def test_saturated_queue_reaches_capacity_and_drops(self):
        r = run(heavy_config())
        assert r.first_full_ms is not None
        assert r.occupancy_depth.max() == 4
        assert r.drops > 0

    def test_occupancy_bounded_by_queue_size(self):
        for q in (1, 2, 3):
            r = run(heavy_config(variant=Vanilla(q), duration_ms=5000.0))
            assert r.occupancy_depth.max() <= q

    def test_arrival_intervals_two_point(self):
        r = run(heavy_config(duration_ms=60000.0))
        intervals = r.arrival_intervals
        assert set(np.round(intervals, 6)) <= {32.0, 36.0}
        assert intervals.mean() == pytest.approx(100.0 / 3.0, abs=0.05)

    def test_queue_size_zero_behaves_like_on_demand(self):
        a = run(heavy_config(variant=Vanilla(0)))
        b = run(heavy_config(variant=OnDemand()))
        assert np.array_equal(a.cycle_times, b.cycle_times)
        assert np.array_equal(a.e2e_delays, b.e2e_delays, equal_nan=True)
        assert a.variant_name == "vanilla"


class TestQueuelessVariants:
    def test_on_demand_has_no_queue_wait(self):
        r = run(heavy_config(variant=OnDemand()))
        assert np.allclose(r.queue_delays, 0.0)
        assert len(r.occupancy_depth) == 0

    def test_on_demand_blocking_within_bounds(self):
        r = run(heavy_config(variant=OnDemand()))
        b_lo, b_hi = blocking_bounds(VGA30, USB_VGA30)
        steady = r.steady_frame_mask
        assert np.all(r.b_fetch_ms[steady] <= b_hi + 1e-6)
        assert np.all(r.b_fetch_ms >= 0.0)

    def test_oversized_release_delay_slows_cycles(self):
        base = run(heavy_config(variant=OnDemand()))
        slowed = run(heavy_config(variant=ZeroSlack(250.0)))
        assert slowed.mean_cycle_ms() > base.mean_cycle_ms() * 1.2

    def test_contention_free_cycle_structure(self):
        r = run(heavy_config(variant=ContentionFree(), duration_ms=10000.0))
        # Serialized loop: max(fetch, display) then uncontended inference.
        # With b_fetch folded in, every steady cycle waits for the next
        # frame, so cycles track the arrival process plus inference.
        assert np.all(r.queue_delays == 0.0)
        # Every cycle is at least max(fetch, display) + shortest inference:
        # display 6 plus 5 + 120 uncontended.
        steady = r.cycle_times[r.cycle_steady_mask]
        assert steady.min() >= 6.0 + 125.0 - 1e-6


class TestTraceStream:
    def test_trace_schema_and_coverage(self):
        r = run(micro_config(trace=True))
        assert r.trace is not None
        times = [ev[0] for ev in r.trace]
        assert times == sorted(times)
        kinds = {ev[1] for ev in r.trace}
        assert kinds == {"capture", "accept", "retrieve"}
        captures = [ev for ev in r.trace if ev[1] == "capture"]
        retrieves = [ev for ev in r.trace if ev[1] == "retrieve"]
        assert len(captures) == 10
        assert sorted(ev[2] for ev in retrieves) == list(range(10))
        for ev in r.trace:
            assert len(ev) == 4
            assert isinstance(ev[0], int)

    def test_skip_events_for_queueless_drops(self):
        r = run(heavy_config(variant=OnDemand(), trace=True, duration_ms=3000.0))
        skips = [ev for ev in r.trace if ev[1] == "skip"]
        assert len(skips) == r.drops > 0


class TestConfigValidation:
    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            micro_config(duration_ms=0.0)

    def test_rejects_excessive_jitter(self):
        with pytest.raises(ValueError):
            micro_config(capture_jitter_ms=5.0)

    def test_rejects_objects_outside_run(self):
        with pytest.raises(ValueError):
            run(micro_config(object_times_ms=(150.0,)))

    def test_capture_jitter_preserves_order(self):
        r = run(micro_config(capture_jitter_ms=1.0, object_times_ms=None))
        assert np.all(np.diff(r.capture_ms) > 0)


# -- bit identity --------------------------------------------------------------


def _feed(h, obj) -> None:
    """Hash every SimResult field: arrays by dtype, shape and bytes, the
    trace event by event, everything else by repr."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, list):
        h.update(f"[{len(obj)}".encode())
        for x in obj:
            h.update(repr(x).encode())
    elif isinstance(obj, dict):
        h.update(repr(sorted(obj.items())).encode())
    else:
        h.update(repr(obj).encode())
    h.update(b";")


def result_digest(r: SimResult) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(r):
        h.update(f.name.encode())
        _feed(h, getattr(r, f.name))
    return h.hexdigest()[:16]


def _preset_config(name):
    def build(**overrides):
        s = load_scenario(name)
        kw = dict(camera=s.camera, usb=s.usb, profile=s.profile,
                  variant=s.variants[0], duration_ms=30000.0, seed=s.seed,
                  n_objects=100)
        kw.update(overrides)
        return SimConfig(**kw)
    return build


_DIGEST_CONFIGS = {
    "micro": (micro_config, 2.5),
    "heavy": (heavy_config, 30.0),
    "case1": (_preset_config("case1"), 10.0),
    "case2": (_preset_config("case2"), 30.0),
    "case3": (_preset_config("case3"), 15.0),
}
_DIGEST_VARIANTS = {
    "vanilla4": lambda theta: Vanilla(4),
    "vanilla1": lambda theta: Vanilla(1),
    "vanilla0": lambda theta: Vanilla(0),
    "on_demand": lambda theta: OnDemand(),
    "zero_slack": lambda theta: ZeroSlack(theta),
    "contention_free": lambda theta: ContentionFree(),
}

# Digests of the four runs (trace off/on x capture jitter 0/3 ms) of each
# config and variant. They pin every SimResult field and trace event bit for
# bit, so a simulator refactor that is meant to keep results must keep them;
# a change that moves results on purpose records new ones and says why.
RECORDED_DIGESTS = {
    "micro/vanilla4": [
        "f78f2c7ff6fb038b", "e0244c2ebcc7c85b",
        "0fbc2c7aab1d2071", "e813a1cfc1e16a67",
    ],
    "micro/vanilla1": [
        "ec905fdaf217b777", "c130ba1848778b97",
        "27dd1808d136b1b6", "01bca1926e4e198f",
    ],
    "micro/vanilla0": [
        "7120ef89aa4d75a1", "12f6f4337367e9e9",
        "6941ba56e3233bcf", "593f8894511f6640",
    ],
    "micro/on_demand": [
        "93babfbc08e89751", "6b7a58bcc4aada80",
        "b2cd11dc9e273b11", "9e7f0d1b0e571ba0",
    ],
    "micro/zero_slack": [
        "32e3ef57bdcecf87", "3a2de490177f35d3",
        "859f110a3c2ab385", "52e8a7ac0c4af7be",
    ],
    "micro/contention_free": [
        "0de0827b6d0962f8", "bc91537ce0f554c1",
        "a7b83d8cd4a14e34", "8fcea4336ed5be1f",
    ],
    "heavy/vanilla4": [
        "63e1ee406f326657", "6d65377c05cb93b4",
        "2fa2cc62e2498920", "2fcc128d17049a03",
    ],
    "heavy/vanilla1": [
        "0b3d351b529f756f", "5efb40001cfebb7c",
        "0c66390b6dd52903", "83194433faa27b87",
    ],
    "heavy/vanilla0": [
        "8d44f70b8ca6a5fd", "2610cc8d285dfa4a",
        "f64a337f63689a3d", "8c333b6fb4f4871a",
    ],
    "heavy/on_demand": [
        "5db58ba26f129040", "c8f86b157885ce7b",
        "dd1279b10de950c3", "d9e2cdfbe48488d3",
    ],
    "heavy/zero_slack": [
        "3cb6083c197a60ef", "995a5815b829b98a",
        "d776771dab2cf42f", "c3d5fecf15796826",
    ],
    "heavy/contention_free": [
        "f7574f1477f47ba6", "3d8114376ceadbe8",
        "05ba4dececf4cd1e", "e3493fe34ed555cc",
    ],
    "case1/vanilla4": [
        "26d49ff3b07fe781", "3133bdebe973542b",
        "17b2ad2ddfc0960a", "83718e9c0699dbd1",
    ],
    "case1/vanilla1": [
        "762477272b6bfa30", "67e4c8417d0c9073",
        "a6e519d87c6053ff", "9a56cfa118ac9722",
    ],
    "case1/vanilla0": [
        "b027892f5ea56a36", "02d7fb80c4063adc",
        "64e5ac3d510f3c2b", "15dc60ef94e4c9cd",
    ],
    "case1/on_demand": [
        "e73a31a95a44ecff", "43dd41a89e3b487b",
        "4471172d32df7a68", "dc33f8e81f47785e",
    ],
    "case1/zero_slack": [
        "bda3702f0150dee9", "0df5dcc27ce11732",
        "b00a8b8edd9d9abb", "94e4db96a82474dd",
    ],
    "case1/contention_free": [
        "9e18ec6a1670b636", "8a2ae353301691bf",
        "0f7d629473628285", "52bc533f9f9695ec",
    ],
    "case2/vanilla4": [
        "35e4c6e9a55beca7", "2922a67688b7817f",
        "60bc6adf11025944", "7e667579b70956bc",
    ],
    "case2/vanilla1": [
        "7534a42913c7c6f7", "e4b59b29f53f79eb",
        "789869e8c7202dcf", "a668115831fc69b0",
    ],
    "case2/vanilla0": [
        "fb8ac37b4ece2820", "91aa2e4527c9ad68",
        "2424375c8f9d8436", "74fcb3efe7526c6b",
    ],
    "case2/on_demand": [
        "8b6389c7842bca32", "1ebc70f458e7f612",
        "cad7f54f9c7b8778", "e9950a24649ee0af",
    ],
    "case2/zero_slack": [
        "3a7db4978bedcadc", "7350fcfdd07f2de8",
        "429e0ad6d678eb5d", "cfe23a554a9691cd",
    ],
    "case2/contention_free": [
        "2b37d27b5a654916", "72d37d2064008130",
        "34bfff12d800df55", "a3a88facf30e0f22",
    ],
    "case3/vanilla4": [
        "d7b56c5a5f6229c9", "b9553df9670753ed",
        "430c363fc17f4e10", "0e6de7e0a787ceb7",
    ],
    "case3/vanilla1": [
        "9f0a0776abc487b9", "61d7ed7a9f04315a",
        "406870b7a72dbdf1", "d51194a551efd6fe",
    ],
    "case3/vanilla0": [
        "b120ea73507d425f", "d7f708ae5880361d",
        "0f10eb0851cb5be9", "daef3f6f145bafdb",
    ],
    "case3/on_demand": [
        "4708f8e5b63a5775", "e08959c09cb7bc9f",
        "605bcf42efca8894", "8fd90cfed1e03a5a",
    ],
    "case3/zero_slack": [
        "da3da9d9bcd32b4d", "f5e492b8d3ffab6f",
        "4bc605ac103d8943", "b1c21392a3508d6b",
    ],
    "case3/contention_free": [
        "0e7ef0593871e9a9", "3042f0df48174606",
        "4cfefd0a2a441a5f", "96e6bd0f6e0eae8b",
    ],
}


class TestBitIdentity:
    @pytest.mark.parametrize("key", sorted(RECORDED_DIGESTS))
    def test_results_match_recorded_digests(self, key):
        cfg_name, var_name = key.split("/")
        build, theta = _DIGEST_CONFIGS[cfg_name]
        variant = _DIGEST_VARIANTS[var_name](theta)
        parts = [
            result_digest(run(build(variant=variant, trace=trace,
                                    capture_jitter_ms=jitter)))
            for trace in (False, True) for jitter in (0.0, 3.0)
        ]
        assert parts == RECORDED_DIGESTS[key]
