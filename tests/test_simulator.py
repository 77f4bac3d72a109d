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
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from pipedelay.sim import _FIRST_CHUNK, _MS, SimConfig, SimResult, _stream, run
from test_acceptance import _random_scenario

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

# 10 ms captures against a 4 ms buffering period: with 3.9 ms of capture
# jitter two frames can start their transfer in one buffering period and so
# share a queuing decision instant (and, when their transfers also end in
# one period, a delivery instant).
SHARED_CAM = CameraConfig(frame_rate=100.0, width=160, height=120, bits_per_pixel=16)
SHARED_USB = UsbLinkConfig(bytes_per_microframe=3072, urb_microframes=32)
SHARED_PROFILE = StageProfile(
    fetch_exec=DelayDist.constant(2.0),
    infer_cpu=DelayDist.from_points([(3.0, 0.5), (14.0, 0.5)]),
    infer_gpu=ZERO_DELAY,
    disp_exec=DelayDist.constant(1.0),
    infer_inflation=DelayDist.constant(1.0),
)
# Zero-length stages: a cycle whose head is already queued lasts 0 ns, so
# several retrievals can fall on one instant.
ZERO_PROFILE = StageProfile(
    fetch_exec=ZERO_DELAY,
    infer_cpu=ZERO_DELAY,
    infer_gpu=ZERO_DELAY,
    disp_exec=ZERO_DELAY,
    infer_inflation=ZERO_DELAY,
)


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


def shared_config(**overrides):
    kw = dict(
        camera=SHARED_CAM,
        usb=SHARED_USB,
        profile=SHARED_PROFILE,
        variant=Vanilla(1),
        duration_ms=20000.0,
        seed=5,
        n_objects=100,
        capture_jitter_ms=3.9,
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


class TestDrawSchedule:
    """The stage streams draw in growing chunks; what they yield must not
    depend on the chunk sizes, and a run draws little more than it reads."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([63, 64, 65, 4032, 4096, 9000]),
           points=st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 9)),
                           min_size=1, max_size=6, unique_by=lambda p: p[0]))
    def test_stream_is_one_draw_of_every_value(self, seed, n, points):
        total = sum(w for _, w in points)
        dist = DelayDist.from_points((v / 7, w / total) for v, w in points)
        got = list(islice(_stream(dist, np.random.default_rng(seed)), n))
        want = np.rint(dist.sample_array(np.random.default_rng(seed), n) * _MS)
        assert got == want.astype(np.int64).tolist()

    @pytest.mark.parametrize("duration_ms", [2000.0, 30000.0])
    @pytest.mark.parametrize("variant", load_scenario("default").variants,
                             ids=lambda v: v.name)
    def test_run_draws_about_what_it_reads(self, variant, duration_ms, monkeypatch):
        drawn = []
        sample_array = DelayDist.sample_array

        def counting(self, rng, n):
            drawn.append(n)
            return sample_array(self, rng, n)

        monkeypatch.setattr(DelayDist, "sample_array", counting)
        s = load_scenario("default")
        r = run(dataclasses.replace(s.sim_config(variant), duration_ms=duration_ms))
        # Each cycle reads at most three stages, and a stream draws at most
        # twice what it has read plus its first chunk.
        assert 0 < sum(drawn) < 6 * len(r.cycle_times) + 6 * _FIRST_CHUNK


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

    @pytest.mark.parametrize("field, value", [("fetch_exec", 1e12), ("infer_gpu", 1e308)])
    def test_rejects_stage_delays_past_the_clock(self, field, value):
        profile = dataclasses.replace(MICRO_PROFILE, **{field: DelayDist.constant(value)})
        with pytest.raises(ValueError, match=f"profile.{field}: "):
            micro_config(profile=profile)

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
    # name: (config builder, zero-slack theta, capture jitters in ms)
    "micro": (micro_config, 2.5, (0.0, 3.0)),
    "heavy": (heavy_config, 30.0, (0.0, 3.0)),
    "case1": (_preset_config("case1"), 10.0, (0.0, 3.0)),
    "case2": (_preset_config("case2"), 30.0, (0.0, 3.0)),
    "case3": (_preset_config("case3"), 15.0, (0.0, 3.0)),
    "shared": (shared_config, 0.0, (3.9,)),
    "zero": (lambda **kw: shared_config(profile=ZERO_PROFILE, **kw), 0.0, (3.9,)),
    # A release delay past the end of the run: no frame is ever fetched.
    "idle": (lambda **kw: micro_config(duration_ms=300.0, **kw), 5000.0, (0.0,)),
    # A run of one captured frame, which is fetched.
    "single": (lambda **kw: micro_config(duration_ms=10.0, object_times_ms=(0.0,), **kw),
               2.5, (0.0,)),
}
_DIGEST_VARIANTS = {
    "vanilla4": lambda theta: Vanilla(4),
    "vanilla1": lambda theta: Vanilla(1),
    "vanilla0": lambda theta: Vanilla(0),
    "on_demand": lambda theta: OnDemand(),
    "zero_slack": lambda theta: ZeroSlack(theta),
    "contention_free": lambda theta: ContentionFree(),
}

# Digests of the runs (trace off/on x the config's capture jitters) of each
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
    # Edge cases of the bookkeeping derived after the cycle loop: shared
    # decision and retrieval instants, no fetch, a single fetch. Recorded at
    # commit 48cd535; each is the untraced and the traced run.
    "shared/vanilla1": ["a33f3b4a9ea0b9de", "bfc0dc10e5f918b7"],
    "shared/vanilla4": ["e8fc4471b75826ff", "ea765951797d529d"],
    "shared/vanilla0": ["d55e2337ce88ac0d", "d6bb0a44e61c60fd"],
    "shared/on_demand": ["8aebcee1e7b450a6", "e617224833d9f392"],
    "zero/vanilla4": ["63f12da9d6369301", "7699c8d436a39159"],
    "zero/vanilla1": ["9d2ffa56b109df75", "0da2ffc96ef75e50"],
    "zero/on_demand": ["10d54f7d6997bcb7", "474e80bb63cd91a1"],
    "zero/contention_free": ["c6e01dbab06e70db", "5d8121949d49599a"],
    "idle/zero_slack": ["0a9bd3dd1dfb7a6f", "395456f1e8be3577"],
    "single/vanilla1": ["994b785f7c855f64", "2848eeb8cc7e8c5d"],
    "single/on_demand": ["67a0c3b0f45a1149", "aad089fe0677a67c"],
    "single/contention_free": ["f470be9fb3d727b6", "87ca8d01a131ec79"],
}


class TestBitIdentity:
    @pytest.mark.parametrize("key", sorted(RECORDED_DIGESTS))
    def test_results_match_recorded_digests(self, key):
        cfg_name, var_name = key.split("/")
        build, theta, jitters = _DIGEST_CONFIGS[cfg_name]
        variant = _DIGEST_VARIANTS[var_name](theta)
        parts = [
            result_digest(run(build(variant=variant, trace=trace,
                                    capture_jitter_ms=jitter)))
            for trace in (False, True) for jitter in jitters
        ]
        assert parts == RECORDED_DIGESTS[key]


# -- bookkeeping against the event trace -----------------------------------------


def _gate_runs(n_scenarios=6):
    """Traced runs of gate scenarios, with capture jitter, under the drawn
    variant and the queue sizes and shapes the gate draws less often."""
    rng = np.random.default_rng(2024)
    for i in range(n_scenarios):
        cam, usb, profile, variant = _random_scenario(rng, i)
        for v in (variant, Vanilla(1), Vanilla(3), Vanilla(0), OnDemand(), ContentionFree()):
            yield v, run(SimConfig(
                camera=cam, usb=usb, profile=profile, variant=v,
                duration_ms=400 * cam.cycle_ms, seed=i, n_objects=50,
                capture_jitter_ms=0.2 * cam.cycle_ms, trace=True))


class TestBookkeepingMatchesTrace:
    @pytest.fixture(scope="class")
    def runs(self):
        return list(_gate_runs())

    def test_queue_replay(self, runs):
        """Replaying accepts and retrievals in trace order gives back the
        occupancy points, the admission depths and the first full instant."""
        queued = [(v.queue_size, r) for v, r in runs if v.queue_size]
        assert len(queued) >= 12
        for q, r in queued:
            depth = 0
            times, depths, ahead = [], [], []
            for t, kind, _, detail in r.trace:
                if kind == "accept":
                    ahead.append(depth)
                    depth += 1
                elif kind == "retrieve":
                    depth -= 1
                else:
                    continue
                assert detail == depth
                times.append(t)
                depths.append(depth)
            full = [t for t, d in zip(times, depths) if d == q]
            assert np.array_equal(np.asarray(times, dtype=np.int64) / 1_000_000, r.occupancy_ms)
            assert np.array_equal(np.asarray(depths, dtype=np.int64), r.occupancy_depth)
            assert np.array_equal(np.asarray(ahead, dtype=np.int64), r.admit_ahead)
            assert r.first_full_ms == (full[0] / 1_000_000 if full else None)

    def test_every_frame_fetched_or_dropped_once(self, runs):
        assert {v.name for v, _ in runs} == {"vanilla", "on_demand", "zero_slack",
                                             "contention_free"}
        for v, r in runs:
            assert r.drops == r.frames_captured - r.frames_fetched
            # Each of the run's 50 objects is detected or missed.
            assert len(r.detected_e2e()) + r.objects_missed == 50
            # Each frame meets one admission outcome; a queueless fetch takes
            # the frame straight to retrieval.
            outcomes = ("accept", "drop") if v.queue_size else ("retrieve", "skip")
            frames = sorted(ev[2] for ev in r.trace if ev[1] in outcomes)
            assert frames == list(range(r.frames_captured))
            retrieved = [ev for ev in r.trace if ev[1] == "retrieve"]
            assert [ev[2] for ev in retrieved] == r.fetched_frames.tolist()
            assert np.array_equal(
                np.asarray([ev[0] for ev in retrieved], dtype=np.int64) / 1_000_000,
                r.dequeue_ms)
