"""Event-level checks of the discrete-event simulator.

The central fixture is a hand-traceable micro pipeline: 100 fps capture,
1 ms buffering period, exactly 2 ms transfer, constant stage times
(fetch 2, infer 8, display 1) and a single-slot queue. Every retrieval
then happens on frame arrival and the whole schedule can be written down
by hand. The camera timeline carries one random grid phase per seed, a
constant offset recoverable from the first delivery, so the assertions
are phrased relative to it.
"""

from bisect import bisect_left, bisect_right
import dataclasses
import hashlib
import tracemalloc
from collections import Counter, deque
from itertools import combinations, count, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from pipedelay import sim
from pipedelay.scenario import load_scenario
from pipedelay.sim import (_FIRST_CHUNK, _MS, SimConfig, SimResult, _chunks, _delayed,
                           _simulate, _stage_dists, run)
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
        lens = result.cycle_times
        starts = np.cumsum(lens) - lens
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
        # The FIFO is deepest right after an accept.
        assert result.admit_ahead.max() + 1 == 1
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
        # The first 8 chunks hold 12,224 values.
        got = np.concatenate(list(islice(_chunks(dist, np.random.default_rng(seed)), 8)))
        want = np.rint(dist.sample_array(np.random.default_rng(seed), n) * _MS)
        assert got[:n].tolist() == want.astype(np.int64).tolist()

    @pytest.mark.parametrize("head", [[], [5], [0, 7]])
    def test_delayed_stream_puts_head_in_front(self, head):
        dist = DelayDist.from_points([(1.0, 0.25), (2.5, 0.75)])
        plain = list(islice(_chunks(dist, np.random.default_rng(3)), 4))
        delayed = list(islice(_delayed(_chunks(dist, np.random.default_rng(3)),
                                       np.asarray(head, dtype=np.int64)), 4))
        assert [len(c) for c in delayed] == [len(c) for c in plain]
        n = sum(len(c) for c in plain)
        assert np.concatenate(delayed).tolist() == (head + np.concatenate(plain).tolist())[:n]

    @pytest.mark.parametrize("duration_ms", [2000.0, 30000.0])
    @pytest.mark.parametrize("variant", load_scenario("default").variants,
                             ids=lambda v: v.name)
    def test_run_draws_about_what_it_reads(self, variant, duration_ms, monkeypatch):
        drawn = []
        sample_index = DelayDist.sample_index

        def counting(self, rng, n):
            drawn.append(n)
            return sample_index(self, rng, n)

        monkeypatch.setattr(DelayDist, "sample_index", counting)
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
        assert r.admit_ahead.max() + 1 == 4
        assert r.drops > 0

    def test_occupancy_bounded_by_queue_size(self):
        for q in (1, 2, 3):
            r = run(heavy_config(variant=Vanilla(q), duration_ms=5000.0))
            assert r.admit_ahead.max() + 1 <= q

    def test_arrival_intervals_two_point(self):
        r = run(heavy_config(duration_ms=60000.0))
        intervals = r.arrival_intervals
        assert set(np.round(intervals, 6)) <= {32.0, 36.0}
        assert intervals.mean() == pytest.approx(100.0 / 3.0, abs=0.05)

    def test_fifo_beyond_int64_runs_as_one_of_every_frame(self):
        """A FIFO never holds more frames than the run captures, so one of
        more buffers, even more than int64 counts, runs as one of that many."""
        n = run(heavy_config()).frames_captured
        digests = [result_digest(run(heavy_config(variant=Vanilla(q))))
                   for q in (n, 2**63 - 1, 10**20)]
        assert digests[1:] == digests[:1] * 2

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
        assert np.all(r.admit_ahead == 0)
        assert r.first_full_ms is None

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

    # Rejected at construction, with the failing field first, so that a
    # SimConfig that constructs can run.
    @pytest.mark.parametrize("overrides, field", [
        (dict(seed=-1), "seed"),
        (dict(usb=dataclasses.replace(MICRO_USB, urb_microframes=80)), "camera.frame_rate"),
        (dict(usb=dataclasses.replace(MICRO_USB, urb_microframes=100)), "camera.frame_rate"),
        (dict(usb=dataclasses.replace(MICRO_USB, microframe_ms=6e-7)), "usb.microframe_ms"),
    ], ids=["negative_seed", "interval_at_buffering_period", "interval_below_buffering_period",
            "microframe_not_whole_ns"])
    def test_rejects_at_construction_naming_the_field(self, overrides, field):
        with pytest.raises(ValueError, match=rf"^{field}: "):
            micro_config(**overrides)

    def test_rejects_objects_outside_run(self):
        for times in ((150.0,), (34.0, -1.0)):
            with pytest.raises(ValueError, match="^object_times_ms: "):
                micro_config(object_times_ms=times)

    @pytest.mark.parametrize("field, value", [("fetch_exec", 1e12), ("infer_gpu", 1e308)])
    def test_rejects_stage_delays_past_the_clock(self, field, value):
        profile = dataclasses.replace(MICRO_PROFILE, **{field: DelayDist.constant(value)})
        with pytest.raises(ValueError, match=f"profile.{field}: "):
            micro_config(profile=profile)

    @pytest.mark.parametrize("variant", [Vanilla(1), OnDemand(), ContentionFree()])
    def test_stage_near_the_clock_runs(self, variant):
        # A 5e11 ms fetch fits the clock on a one-frame run, but a draw chunk
        # of such cycles sums past int64: the stretch's reach must not wrap.
        profile = dataclasses.replace(MICRO_PROFILE, fetch_exec=DelayDist.constant(5e11))
        r = run(micro_config(profile=profile, variant=variant, duration_ms=1.0,
                             object_times_ms=None))
        assert r.frames_fetched == r.frames_captured == 1

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
    elif isinstance(obj, (list, sim.Trace)):
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
# a change that moves results on purpose records new ones and says why. All
# were recorded again at commit 5315850 without the field per_stage_busy,
# deleted after it, and at commit 4a5c8b7 without display_end_ms,
# cycle_start_ms, occupancy_ms, occupancy_depth and object_times, deleted
# after it; the other fields were unchanged since each was recorded.
RECORDED_DIGESTS = {
    "micro/vanilla4": [
        "d7302b359cb2e9d4", "cd5be6c3435e908d",
        "f2138f230dd6afb0", "990fcf6f09cb2cc4",
    ],
    "micro/vanilla1": [
        "6e62d4afae41fbb9", "dcfaab90d7568a37",
        "ffa966fa1bec26c3", "d84a225f462b9d1c",
    ],
    "micro/vanilla0": [
        "d7302b359cb2e9d4", "cd5be6c3435e908d",
        "be741975d7f61b76", "ebc26e387bc26b9e",
    ],
    "micro/on_demand": [
        "3187dcb313cbb68a", "1353097d3bfdbeb2",
        "aeece07a0db98b75", "b779a588efe448d2",
    ],
    "micro/zero_slack": [
        "be87344ada145059", "6747e32ff5fcb91c",
        "687ebbc73af12787", "fdb3c8a9c3f00ce5",
    ],
    "micro/contention_free": [
        "82b0e1e9c69d3e0d", "74cf68ec632847bf",
        "509b36cf88060e88", "899b5b9829b98ca3",
    ],
    "heavy/vanilla4": [
        "4c122d3a48bc9bf3", "87f115256f22283d",
        "1310cf0cf49d9f24", "0ed6a62620f81013",
    ],
    "heavy/vanilla1": [
        "c84cf7e55371aa11", "d06029fc98035167",
        "11be066a6cb4f430", "ce2a3cb1b4c3642d",
    ],
    "heavy/vanilla0": [
        "2971b89099f63911", "b5fe16453c1538c0",
        "f92d696a578abf1f", "54a83f029b3482fd",
    ],
    "heavy/on_demand": [
        "88424111dda7d896", "75b0c4b81e268615",
        "e2131fd30f5d84d4", "6d429a1ef58c219b",
    ],
    "heavy/zero_slack": [
        "58f766e6da4f7635", "3f9426c402d758d8",
        "1da97994f1c2000d", "0bcecbd31a658e39",
    ],
    "heavy/contention_free": [
        "23e418021a8bc7a8", "09ee42b3ac153f7f",
        "8d0de72964b29c9a", "2338eed1774146a2",
    ],
    "case1/vanilla4": [
        "7d0c342ff25ca823", "f27cc307cb07afce",
        "d50c07ab473be6b8", "56ecd727f41b114f",
    ],
    "case1/vanilla1": [
        "a934302e73c86bd1", "632b0be3a02ca241",
        "99a24eaef57caba4", "102ff30cca58a433",
    ],
    "case1/vanilla0": [
        "7d0c342ff25ca823", "99af859934f8acf4",
        "129d2bacf467851e", "a63795ffb1b7ffa0",
    ],
    "case1/on_demand": [
        "1c98f1521bc47920", "8622cc2a3c2bc525",
        "2ec1ceb83dc924d4", "5ea25a7f150df4cc",
    ],
    "case1/zero_slack": [
        "8779548efc7ac9bc", "be18ae597065bd5c",
        "0a60314ffca3335a", "50e9c03071fe0966",
    ],
    "case1/contention_free": [
        "885bb8c83ad300bc", "792a2e7c4cf13339",
        "f3ce89921acfd69f", "cb490212e57f316c",
    ],
    "case2/vanilla4": [
        "9c9bb9d703350731", "3663c25fdd9ef074",
        "497b1c8acb505b83", "e5437908bd431af8",
    ],
    "case2/vanilla1": [
        "72d882740f74d564", "0a4082dba6db7a5d",
        "409a201e040955f0", "6e53457413534d8c",
    ],
    "case2/vanilla0": [
        "5ecb4ea282e6ac8c", "adee7d9672dd81e6",
        "98130c7118704370", "940ed572ef868b3a",
    ],
    "case2/on_demand": [
        "473d3741b02508f6", "d727cf4e11038b2c",
        "3eb9e37016c0f582", "19aa14fcf762cba9",
    ],
    "case2/zero_slack": [
        "e95a4bd97e908930", "b109bc6752f56786",
        "d690148b9cb62c6d", "b1365b2c21671973",
    ],
    "case2/contention_free": [
        "acb3dbd7c1d348db", "28a1fcb81db878fc",
        "9c2367164db87164", "a5191dab999406b4",
    ],
    "case3/vanilla4": [
        "b7a613fa64cae180", "9ff1ade54c24782a",
        "10db976047c8820e", "c63b6981bebccf49",
    ],
    "case3/vanilla1": [
        "5903b19037738902", "c9579a852c39a7df",
        "2dd17491ddb88e1c", "e6bc29d09b6942e2",
    ],
    "case3/vanilla0": [
        "41f370255234cd88", "52c12d7fc65c2a4a",
        "b2d0fc4d3ae03af2", "19958265bbeb6a57",
    ],
    "case3/on_demand": [
        "09f64550efa1acdd", "bf9c9a20c1ba0caf",
        "1ecc8d3dc7a79b41", "9b094de738d6534e",
    ],
    "case3/zero_slack": [
        "8aca165f17177052", "8615cd4f2ff4413d",
        "36996c4470d9b365", "b6a1304c63e26c7c",
    ],
    "case3/contention_free": [
        "45bddf65bebdf6ab", "ea04e6d68398e153",
        "daa411ea883fa746", "b89545a6b54a7d4c",
    ],
    # Edge cases of the bookkeeping derived after the cycle loop: shared
    # decision and retrieval instants, no fetch, a single fetch. First
    # recorded at commit 48cd535; each is the untraced and the traced run.
    "shared/vanilla1": ["5cb34b12eead15ac", "cd27d04f2b3e236d"],
    "shared/vanilla4": ["9f84fc4463d5234a", "c84e60daee00a814"],
    "shared/vanilla0": ["0aaba9f1770aa723", "86dfb8f1fdf77afb"],
    "shared/on_demand": ["eb6f48d09d7db42b", "a805788856e58724"],
    "zero/vanilla4": ["4d3542829cecbbc1", "3387d889ebfb3984"],
    "zero/vanilla1": ["cd02e2331accb6e0", "c4d947f9d5bad0db"],
    "zero/on_demand": ["7121780a2a962a1f", "a7e159df0eebd3aa"],
    "zero/contention_free": ["7724aa3ba6409e7a", "68f054d9206604fc"],
    "idle/zero_slack": ["b59f8c362dec892b", "91e04001af8264e6"],
    "single/vanilla1": ["b9c40a9e3ec79dc8", "84cc87c19f9517a3"],
    "single/on_demand": ["b16ac7d1c2b1634a", "579d58992245df53"],
    "single/contention_free": ["27a86e3621315ed4", "133bfb14e312ce39"],
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


# Every stage differs contended and uncontended and has two points, so a run
# that read a draw from the wrong stream, or the wrong draw, shows in its
# digest. The cycles stay shorter than the 10 ms capture interval, so every
# variant fetches every frame.
SHORT_PROFILE = StageProfile(
    fetch_exec=DelayDist.from_points([(1.0, 0.5), (2.0, 0.5)]),
    infer_cpu=DelayDist.from_points([(3.0, 0.5), (4.0, 0.5)]),
    infer_gpu=ZERO_DELAY,
    disp_exec=DelayDist.from_points([(0.5, 0.5), (1.5, 0.5)]),
    fetch_inflation=DelayDist.constant(0.25),
    infer_inflation=DelayDist.constant(1.0),
    disp_inflation=DelayDist.constant(0.5),
)


def _pinned_gate_runs():
    rng = np.random.default_rng(123)
    for i in range(40):
        cam, usb, profile, variant = _random_scenario(rng, i)
        yield f"{i}.{variant.name}", SimConfig(
            camera=cam, usb=usb, profile=profile, variant=variant,
            duration_ms=1e4 * cam.cycle_ms, seed=int(rng.integers(2 ** 32)), n_objects=50)


def _pinned_preset_runs():
    for name in ("default", "case1", "case2", "case3"):
        s = load_scenario(name)
        for v in s.variants:
            yield f"{name}.{v.name}", dataclasses.replace(
                s.sim_config(v, trace=True), duration_ms=60000.0)


def _pinned_short_runs():
    for v in (Vanilla(1), OnDemand(), ContentionFree()):
        for frames in (1, 2, 3):
            yield f"{v.name}.{frames}", micro_config(
                profile=SHORT_PROFILE, variant=v, duration_ms=10.0 * frames,
                object_times_ms=(0.0,), trace=True)


# Digests of every SimResult field, recorded at commit 5315850 (before the
# stage draws left the cycle loop) without the since deleted per_stage_busy,
# and again at commit 4a5c8b7 without the five fields deleted after it (see
# RECORDED_DIGESTS).
PINNED_GATE = {
    "0.vanilla": "81c3524dff4af29e",
    "1.on_demand": "5346ca6296280a30",
    "2.zero_slack": "9cb9d27fc6675a4b",
    "3.contention_free": "2571688cc7466cef",
    "4.vanilla": "6d82577f2d86ab87",
    "5.on_demand": "a5dfae35276a8080",
    "6.zero_slack": "1d651ea37950dca7",
    "7.contention_free": "c2b1971706ff248a",
    "8.vanilla": "c0e0aebb1c500b8d",
    "9.on_demand": "e174bcf82981d28d",
    "10.zero_slack": "ec85d2056893fbb3",
    "11.contention_free": "57ba94c0d791f054",
    "12.vanilla": "ef7e749c3499f0a1",
    "13.on_demand": "9258cd67f04b3f02",
    "14.zero_slack": "bab58501009c6ba8",
    "15.contention_free": "a875d0600ad03a37",
    "16.vanilla": "630135decde97536",
    "17.on_demand": "e8d66ce3778bb1e0",
    "18.zero_slack": "3b5a438f6118d3d1",
    "19.contention_free": "d7c1faf30e861d43",
    "20.vanilla": "14520dc1f603a65f",
    "21.on_demand": "64c965589c2fc950",
    "22.zero_slack": "531282f192cd0991",
    "23.contention_free": "fd3feaab9575a198",
    "24.vanilla": "2b5c98ebd4e6ccbf",
    "25.on_demand": "c79190c29effe98a",
    "26.zero_slack": "46f5aab338af961d",
    "27.contention_free": "e1cfbd0ccbc0f3c3",
    "28.vanilla": "6a4c2d585f65007b",
    "29.on_demand": "6ea8b6de26b6edf5",
    "30.zero_slack": "11eda5305a2bcc37",
    "31.contention_free": "93e8054757cbf4b5",
    "32.vanilla": "6eed2e35ba6489b8",
    "33.on_demand": "700a7fdc7e0dd406",
    "34.zero_slack": "2369751892c82366",
    "35.contention_free": "d9b930469527acb2",
    "36.vanilla": "a67d0d7354349b63",
    "37.on_demand": "f5131136b1286f38",
    "38.zero_slack": "398a183f64893f2f",
    "39.contention_free": "1578e0285bb3ed07",
}
PINNED_PRESETS = {
    "default.vanilla": "477da467b8ee5eba",
    "default.on_demand": "ab9925edead57b63",
    "default.zero_slack": "70837a77eaf6a910",
    "default.contention_free": "001059452c3f1807",
    "case1.vanilla": "ae0c90783917dc8a",
    "case2.vanilla": "477da467b8ee5eba",
    "case3.vanilla": "043b0a4bf6b18d11",
}
PINNED_SHORT = {
    "vanilla.1": "719ff6841b110927",
    "vanilla.2": "bd6a1692122fcda0",
    "vanilla.3": "91ddd405a28d3b75",
    "on_demand.1": "4d5d4c70adf67147",
    "on_demand.2": "bd36a0550bc569b3",
    "on_demand.3": "0f57f1e30bae7de4",
    "contention_free.1": "7dd2ed3ca05ce5e8",
    "contention_free.2": "edbc34c3e7637acb",
    "contention_free.3": "a5f7f4f4714e4a24",
}


# Runs whose verified block prefixes end at each kind of boundary (see
# `sim._solve_block`), named by it: a dropped or a skipped frame, a fetch
# that finds the FIFO empty or waits on its head, a FIFO that stops filling,
# and the last frame; admission-walk blocks whose starting heads stop
# agreeing with the walk at a drop and at a starved fetch; a FIFO of eight
# buffers whose blocks start from the fetch-never-binds guess while it
# stays saturated; runs shorter than the first 64-cycle draw chunk, which
# solve no block; 0 ns cycles; and shared decision instants. Each entry is
# (gate scenario index from seed 5, variant, run length in capture
# intervals).
_BLOCK_RUNS = {
    "drop.vanilla1": (16, Vanilla(1), 600),
    "drop.vanilla4": (27, Vanilla(4), 100),
    "skip.on_demand": (16, OnDemand(), 100),
    "skip.zero_slack": (16, ZeroSlack(5.0), 300),
    "starved.vanilla1": (33, Vanilla(1), 300),
    "waits.vanilla2": (5, Vanilla(2), 600),
    "unsaturated.vanilla4": (13, Vanilla(4), 300),
    "walk_drop.vanilla1": (20, Vanilla(1), 300),
    "walk_starved.vanilla1": (79, Vanilla(1), 300),
    "saturated.vanilla8": (17, Vanilla(8), 1000),
    "end.vanilla1": (68, Vanilla(1), 300),
    "end.on_demand": (106, OnDemand(), 300),
    "end.zero_slack": (106, ZeroSlack(12.5), 300),
    "end.vanilla4": (9, Vanilla(4), 100),
    "end.contention_free": (50, ContentionFree(), 100),
    "short.vanilla4": (9, Vanilla(4), 40),
    "short.on_demand": (9, OnDemand(), 40),
    "short.contention_free": (9, ContentionFree(), 40),
}


def _pinned_block_runs():
    rng = np.random.default_rng(5)
    scenarios = [_random_scenario(rng, i)[:3] for i in range(107)]
    for key, (i, variant, cycles) in _BLOCK_RUNS.items():
        cam, usb, profile = scenarios[i]
        yield key, SimConfig(camera=cam, usb=usb, profile=profile, variant=variant,
                             duration_ms=cycles * cam.cycle_ms, seed=i, n_objects=20,
                             trace=True)
    yield "zero.vanilla4", shared_config(profile=ZERO_PROFILE, variant=Vanilla(4),
                                         duration_ms=3000.0, trace=True)
    yield "zero.on_demand", shared_config(profile=ZERO_PROFILE, variant=OnDemand(),
                                          duration_ms=3000.0, capture_jitter_ms=0.0,
                                          trace=True)
    yield "shared.vanilla2", shared_config(variant=Vanilla(2), duration_ms=8000.0,
                                           trace=True)


# Digests of every SimResult field, recorded at commit 9409505, before the
# block solver; the walk_* runs at commit 66041ce, before the admission walk;
# saturated.vanilla8 at commit 108ba97, before the walk verified every block
# of a FIFO run. All were recorded again at commit 4a5c8b7 without the five
# fields deleted after it (see RECORDED_DIGESTS).
PINNED_BLOCKS = {
    "drop.vanilla1": "8d964f93f84f345a",
    "drop.vanilla4": "b566c99616ff5ef1",
    "skip.on_demand": "b6dab1d4d2e657d6",
    "skip.zero_slack": "a2892a202f014d79",
    "starved.vanilla1": "60c719868776611e",
    "waits.vanilla2": "b414f5e6b0035129",
    "unsaturated.vanilla4": "cb31a4107187ccb8",
    "walk_drop.vanilla1": "9ee16bbdc7f30525",
    "walk_starved.vanilla1": "9977c610fc26c167",
    "saturated.vanilla8": "cfcad4b0e4667763",
    "end.vanilla1": "3ac4beb6e1453d1d",
    "end.on_demand": "2b4418c90cf6aace",
    "end.zero_slack": "f9d0a20faf1d43a8",
    "end.vanilla4": "68e009474fc01370",
    "end.contention_free": "589a052c98d78488",
    "short.vanilla4": "85c2258bd95fd944",
    "short.on_demand": "5f1e56f386ac61c2",
    "short.contention_free": "68f25d77b2aa546d",
    "zero.vanilla4": "3ec443de1c45398d",
    "zero.on_demand": "2a70409f2c614d0f",
    "shared.vanilla2": "08b5984af119136f",
}


class TestPinnedRuns:
    """Runs pinned across the move of the stage draws out of the cycle
    loop: the gate's first scenarios, every preset variant traced, and the
    drain cycles after one, two and three fetched frames; and runs pinned
    across the block solver at each kind of block boundary."""

    def test_gate_runs(self):
        got = {key: result_digest(run(cfg)) for key, cfg in _pinned_gate_runs()}
        assert got == PINNED_GATE

    def test_preset_runs(self):
        got = {key: result_digest(run(cfg)) for key, cfg in _pinned_preset_runs()}
        assert got == PINNED_PRESETS

    def test_short_runs(self):
        got = {}
        for key, cfg in _pinned_short_runs():
            r = run(cfg)
            assert r.frames_fetched == r.frames_captured == int(key[-1])
            got[key] = result_digest(r)
        assert got == PINNED_SHORT

    def test_block_boundary_runs(self):
        solved = Counter()
        solve = sim._solve_block

        def counting(*args):
            out = solve(*args)
            solved[key] += len(out[1])
            return out

        got = {}
        with mock.patch.object(sim, "_solve_block", counting):
            for key, cfg in _pinned_block_runs():
                got[key] = result_digest(run(cfg))
        assert got == PINNED_BLOCKS
        # Only the runs shorter than the first draw chunk solve no block.
        assert {k for k in got if not solved[k]} == {k for k in got if k.startswith("short.")}


# -- runs that share one dict ----------------------------------------------------


def _shared_arrays(obj):
    """Every array in a `run` memo's entries."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list, dict)):
        for x in obj.values() if isinstance(obj, dict) else obj:
            yield from _shared_arrays(x)


class TestSharedRuns:
    """Runs given one `shared` dict reuse the camera timeline and the stage
    streams of their seed (see `sim.run`), so each must equal the
    independent `run(cfg)` on every field, the trace included."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.integers(0, 3),
           cycles=st.sampled_from([63, 64, 65, 4096]) | st.integers(1, 600),
           jitter=st.floats(0.0, 0.39), trace=st.booleans(), objects=st.booleans(),
           order=st.permutations(range(8)))
    def test_shared_runs_equal_independent_runs(self, seed, kind, cycles, jitter, trace,
                                                objects, order):
        """Over gate scenarios, in shuffled order, so that a run may read a
        stream deeper than the runs before it: five variants, one with a
        FIFO larger than the frame count, and runs that differ from the
        first only in their duration, their capture jitter or their seed."""
        cam, usb, profile, variant = _random_scenario(np.random.default_rng(seed), kind)
        duration_ms = cycles * cam.cycle_ms
        base = SimConfig(camera=cam, usb=usb, profile=profile, variant=variant,
                         duration_ms=duration_ms, seed=seed, n_objects=20,
                         capture_jitter_ms=jitter * cam.cycle_ms, trace=trace,
                         object_times_ms=(0.0, duration_ms / 2) if objects else None)
        cfgs = [dataclasses.replace(base, variant=v)
                for v in (variant, Vanilla(1), Vanilla(cycles + 2), OnDemand(), ContentionFree())]
        cfgs += [dataclasses.replace(base, duration_ms=2 * duration_ms),
                 dataclasses.replace(base, capture_jitter_ms=0.0),
                 dataclasses.replace(base, seed=seed + 1)]
        shared = {}
        for i in order:
            assert result_digest(run(cfgs[i], shared)) == result_digest(run(cfgs[i])), i

    def test_runs_ending_at_a_draw_chunk_boundary(self):
        """Every variant fetches every frame of SHORT_PROFILE's runs, so runs
        of 63, 64, 65 and 4096 frames read their streams up to just before,
        at and just past the end of a draw chunk; in one dict, each longer
        run reads past what the shorter ones drew."""
        shared = {}
        for frames in (63, 64, 65, 4096):
            for v in (Vanilla(1), OnDemand(), ContentionFree()):
                cfg = micro_config(profile=SHORT_PROFILE, variant=v, duration_ms=10.0 * frames,
                                   object_times_ms=None, n_objects=20, trace=True)
                r = run(cfg, shared)
                assert r.frames_fetched == r.frames_captured == frames
                assert result_digest(r) == result_digest(run(cfg)), (frames, v)

    def test_shared_arrays_are_read_only(self):
        """The timeline and every drawn chunk are set read-only, so an
        in-place write meant for one run cannot reach the next one."""
        shared = {}
        r = run(heavy_config(), shared)
        arrays = list(_shared_arrays(shared))
        # The three timeline arrays and at least one chunk of each stream.
        assert len(arrays) >= 3 + 6
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[:1] = 0
        assert result_digest(run(heavy_config(), shared)) == result_digest(r)


# -- block solver ------------------------------------------------------------------


def _admitted_per_frame(decision, dequeue, queue_size, queued, ptr):
    """`sim._admitted` solved per frame rather than per retrieval: frame k
    from `ptr` (counted from 1) sees r_k retrievals strictly before it and
    is dropped where the running maximum of k - r_k rises."""
    top = int(np.searchsorted(decision, dequeue[-1], "right"))
    walk = np.arange(1, top - ptr + 1) - np.searchsorted(dequeue, decision[ptr:top], "left")
    rise = np.maximum.accumulate(np.concatenate(([queue_size - len(queued)], walk)))
    return np.concatenate((queued, ptr + np.flatnonzero(rise[1:] == rise[:-1])))


def _solve_nothing(guess, decision, delivery, queue_size, theta_ns, now, ptr, queue,
                   *draws):
    """A block solver that verifies no cycle from either starting guess, so
    the per-cycle loop runs alone."""
    empty = np.zeros(0, dtype=np.int64)
    return empty, empty, now, ptr, queue


_SCHEDULES = ("draws", "min", "max", "alternating", "random")


def _schedule_streams(profile, schedule, seed, chunk):
    """Six stage streams in `_stage_dists` order: the seeded draws, or each
    stage's minimum, its maximum, the two in turn, or a random one of the
    two, in chunks of `chunk` values."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(6)]
    if schedule == "draws":
        return [_chunks(d, rng) for d, rng in zip(_stage_dists(profile), rngs)]

    def stream(dist, rng):
        lo, hi = (int(round(x * _MS)) for x in (dist.min, dist.max))
        for start in count(0, chunk):
            n = np.arange(start, start + chunk)
            high = {"min": n < 0, "max": n >= 0, "alternating": n % 2 == 1,
                    "random": rng.random(chunk) < 0.5}[schedule]
            yield np.where(high, hi, lo).astype(np.int64)

    return [stream(d, rng) for d, rng in zip(_stage_dists(profile), rngs)]


class TestBlockSolver:
    """The block solver only keeps cycles it has verified, so a run must
    fetch the same frames with the same cycle lengths as the per-cycle loop
    alone, and the predictor must send single-regime runs to it."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(_DIGEST_VARIANTS)),
           schedule=st.sampled_from(_SCHEDULES), chunk=st.sampled_from([7, 64, 4096]),
           cycles=st.integers(1, 2500), theta=st.floats(0.0, 2.0),
           jitter=st.sampled_from([0.0, 0.2, 0.39]))
    # A frame decided while the fetch waits on its head finds a full FIFO of
    # one buffer: the admission walk must count that retrieval at its
    # instant, not at its release.
    @example(seed=1224932293, kind="vanilla1", schedule="min", chunk=64, cycles=1929,
             theta=0.0, jitter=0.39)
    # A FIFO of one buffer that drops 359 frames and starves in 160 cycles,
    # most of them solved by admission-walk blocks.
    @example(seed=24, kind="vanilla1", schedule="draws", chunk=64, cycles=1000,
             theta=0.0, jitter=0.0)
    def test_block_path_matches_per_cycle_loop(self, seed, kind, schedule, chunk, cycles,
                                               theta, jitter):
        cam, usb, profile, _ = _random_scenario(np.random.default_rng(seed), 0)
        cfg = SimConfig(camera=cam, usb=usb, profile=profile,
                        variant=_DIGEST_VARIANTS[kind](theta * cam.cycle_ms),
                        duration_ms=cycles * cam.cycle_ms, seed=seed, n_objects=10,
                        capture_jitter_ms=jitter * cam.cycle_ms)
        block = _simulate(cfg, _schedule_streams(profile, schedule, seed, chunk))
        with mock.patch.object(sim, "_solve_block", _solve_nothing):
            loop = _simulate(cfg, _schedule_streams(profile, schedule, seed, chunk))
        assert block.fetched_frames.tolist() == loop.fetched_frames.tolist()
        assert block.cycle_times.tolist() == loop.cycle_times.tolist()

    def test_predictor_routes_presets(self, monkeypatch):
        """Blocks solve more than 98% of the cycles of every preset variant
        but contention_free over ten simulated minutes: the detector-limited
        default and case2, the arrival-limited case1 and the mixed case3
        (99.3%, through blocks from both guesses). They solve none of
        contention_free: its fetch waits on a skipped-to frame in every
        cycle, so no stretch fits either guess, and without a FIFO such a
        stretch starts no block."""
        solved = Counter()
        solve = sim._solve_block

        def counting(*args):
            out = solve(*args)
            solved[key] += len(out[1])
            return out

        monkeypatch.setattr(sim, "_solve_block", counting)
        share = {}
        for name in ("default", "case1", "case2", "case3"):
            s = load_scenario(name)
            for v in s.variants:
                key = f"{name}.{v.name}"
                r = run(dataclasses.replace(s.sim_config(v), duration_ms=600000.0))
                share[key] = solved[key] / len(r.cycle_times)
        assert share.pop("default.contention_free") == 0
        assert min(share.values()) > 0.98, share

    @settings(max_examples=400, deadline=None)
    @given(decision_gaps=st.lists(st.integers(0, 3), min_size=1, max_size=40),
           dequeue_gaps=st.lists(st.integers(0, 6), min_size=1, max_size=20),
           queue_size=st.integers(1, 8), spare=st.sampled_from([0, 40]), data=st.data())
    def test_walk_per_retrieval_matches_per_frame(self, decision_gaps, dequeue_gaps,
                                                  queue_size, spare, data):
        """The admission walk solved per retrieval admits exactly the frames
        the walk solved per frame does, with instants shared within and
        across the two sequences, on walks with drops and without (a FIFO
        with 40 spare buffers drops none). A walk drops nothing exactly when
        every E_n - n stays at most the room it starts with, where it admits
        every frame decided by the last retrieval."""
        decision = np.cumsum(np.asarray(decision_gaps, dtype=np.int64))
        dequeue = np.cumsum(np.asarray(dequeue_gaps, dtype=np.int64))
        held = data.draw(st.integers(0, queue_size), label="held")
        ptr = data.draw(st.integers(0, len(decision)), label="ptr")
        queued = np.arange(ptr - held, ptr, dtype=np.int64)
        queue_size += spare
        want = _admitted_per_frame(decision, dequeue, queue_size, queued, ptr)
        assert sim._admitted(decision, dequeue, queue_size, queued, ptr).tolist() == want.tolist()
        ends = np.searchsorted(decision[ptr:], dequeue, "right")
        never_rises = (ends - np.arange(len(ends))).max() <= queue_size - held
        assert never_rises == (want[held:].tolist() == list(range(ptr, ptr + ends[-1])))

    def test_every_block_hands_back_the_loop_state(self):
        """Every block keeps the heads and cycle lengths the per-cycle loop
        runs from the block's starting state, and hands back the loop's
        state after them: the cycle start, the next undecided frame and the
        FIFO, empty without one. Gate-generator scenarios under every
        variant, from both guesses."""
        kept = Counter()
        solve = sim._solve_block

        def replaying(*args):
            out = solve(*args)
            _assert_hands_back_the_loop_state(args, out)
            kept[args[0], args[3] > 0] += len(out[1])
            return out

        rng = np.random.default_rng(17)
        with mock.patch.object(sim, "_solve_block", replaying):
            for i in range(16):
                cam, usb, profile, variant = _random_scenario(rng, i)
                for v in (variant, Vanilla(1), Vanilla(2), Vanilla(3), Vanilla(4), OnDemand(),
                          ZeroSlack(float(rng.uniform(0.0, 1.5)) * cam.cycle_ms),
                          ContentionFree()):
                    run(SimConfig(camera=cam, usb=usb, profile=profile, variant=v,
                                  duration_ms=1000 * cam.cycle_ms, seed=i, n_objects=0,
                                  capture_jitter_ms=0.2 * cam.cycle_ms * (i % 2)))
        # Both guesses kept cycles with a FIFO and without one.
        assert min(kept[g, fifo] for g in ("never_binds", "no_drop")
                   for fifo in (False, True)) > 0, kept

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    @pytest.mark.parametrize("guess, queue_size, queued, ptr", [
        ("no_drop", 4, [2, 3, 4], 5), ("no_drop", 0, [], 6), ("never_binds", 0, [], 6)],
        ids=["vanilla4", "on_demand-no_drop", "on_demand-never_binds"])
    def test_walk_block_shorter_than_the_fifo(self, w, guess, queue_size, queued, ptr):
        """A block at the end of a draw chunk can have fewer cycles than the
        FIFO holds frames; it keeps the loop's cycles and state, as does a
        queueless block of as few cycles."""
        decision = np.arange(1, 21, dtype=np.int64) * 10 * _MS
        dec_s, dlv_s = (np.append(x, sim._NEVER) for x in (decision, decision + 5 * _MS))
        fetch, other, after = np.full(w, _MS), np.full(w, 25 * _MS), np.zeros(w, dtype=np.int64)
        theta_ns = 0
        args = (guess, dec_s, dlv_s, queue_size, theta_ns, 60 * _MS, ptr, deque(queued),
                np.maximum(fetch + theta_ns, other) + after, fetch + after)
        out = sim._solve_block(*args)
        assert len(out[1]) == (1 if guess == "no_drop" and not queue_size else w)
        _assert_hands_back_the_loop_state(args, out)

    @pytest.mark.parametrize("w", [30, 64])
    @pytest.mark.parametrize("cycle_ms", [5, 25], ids=["arrival_limited", "detector_limited"])
    @pytest.mark.parametrize("queue_size, queued, ptr", [(4, [2, 3, 4], 5), (1, [4], 5), (0, [], 6)],
                             ids=["vanilla4", "vanilla1", "on_demand"])
    def test_block_runs_past_the_last_frame(self, w, cycle_ms, queue_size, queued, ptr):
        """A block offered more cycles than frames are left reads the
        sentinel past the last frame. From either guess it keeps the loop's
        cycles and state and no head at the sentinel, and the guess that fits
        keeps every cycle the loop runs before it finds no frame."""
        n_frames = 20
        decision = np.arange(1, n_frames + 1, dtype=np.int64) * 10 * _MS
        dec_s, dlv_s = (np.append(x, sim._NEVER) for x in (decision, decision + 5 * _MS))
        # Each cycle lasts cycle_ms, its fetch 1 ms; theta is 0.
        alpha, tail = np.full(w, cycle_ms * _MS), np.full(w, _MS)
        loop_heads, _, _ = sim._cycles(
            dec_s.tolist(), dlv_s.tolist(), n_frames, queue_size, 0, 0, 60 * _MS, ptr,
            deque(queued), alpha.tolist(), tail.tolist())
        assert len(loop_heads) < w
        kept = []
        for guess in ("never_binds", "no_drop"):
            args = (guess, dec_s, dlv_s, queue_size, 0, 60 * _MS, ptr, deque(queued), alpha, tail)
            out = sim._solve_block(*args)
            _assert_hands_back_the_loop_state(args, out)
            assert all(h < n_frames for h in out[0].tolist())
            kept.append(len(out[1]))
        assert max(kept) == len(loop_heads)


def _assert_hands_back_the_loop_state(args, out):
    """Replay the per-cycle loop over the cycles a `sim._solve_block` call
    kept, from the state the block started in, and require the block's
    heads, cycle lengths and state after them."""
    _, dec_s, dlv_s, queue_size, theta_ns, now, ptr, queue, alpha, tail = args
    heads, lens, *state = out
    loop_queue = deque(queue)
    loop_heads, starts, loop_ptr = sim._cycles(
        dec_s.tolist(), dlv_s.tolist(), len(dec_s) - 1, queue_size, theta_ns, 0, now, ptr,
        loop_queue, alpha[:len(lens)].tolist(), tail[:len(lens)].tolist())
    assert (heads.tolist(), lens.tolist(), state[0], state[1], list(state[2])) == (
        loop_heads, np.diff(starts).tolist(), starts[-1], loop_ptr, list(loop_queue))


def _cycles_by_bisection(dec, dlv, n_frames, queue_size, theta_ns, now, ptr, queue,
                         fetch, other, after):
    """The per-cycle loop as it ran with the fetch, other and after draws of
    each cycle and whole instant lists: the cycle length max(deq + f - t, o)
    + a, and frames passed over at a full FIFO with one bisection of the
    decision instants. Returns the fetched frames, the cycle lengths, `now`
    and `ptr` after them, and the `other` draw of the first cycle that found
    no frame (None while frames are left)."""
    room_after_fetch = queue_size - 1
    heads, lens = [], []
    for fetch_t, other_t, after_t in zip(fetch, other, after):
        release = now + theta_ns
        while dec[ptr] <= release:
            if len(queue) == queue_size:
                ptr = bisect_right(dec, release, ptr)
                break
            queue.append(ptr)
            ptr += 1
        if queue:
            head = queue.popleft()
        elif ptr < n_frames:
            head = ptr
            ptr += 1
        else:
            return heads, lens, now, ptr, other_t
        deq = dlv[head]
        if deq < release:
            deq = release
        while dec[ptr] <= deq:
            if len(queue) >= room_after_fetch:
                ptr = bisect_right(dec, deq, ptr)
                break
            queue.append(ptr)
            ptr += 1
        heads.append(head)
        cycle = deq + fetch_t - now
        if cycle < other_t:
            cycle = other_t
        cycle += after_t
        lens.append(cycle)
        now += cycle
    return heads, lens, now, ptr, None


@st.composite
def _loop_states(draw):
    """A loop state and the draws of the cycles run from it: nondecreasing
    decision instants with repeats, each frame delivered at or after its
    decision, a FIFO of 0, 1, 2, 5 or more buffers than frames holding some
    frames before `ptr`, and the first frame `base` the instant lists hold.
    Small integer instants and draws put many releases and retrievals on a
    decision instant."""
    decision = np.cumsum(draw(st.lists(st.integers(0, 3), max_size=24))).tolist()
    delivery = [d + draw(st.integers(0, 6)) for d in decision]
    n = len(decision)
    queue_size = draw(st.sampled_from([0, 1, 2, 5, n + 1]))
    ptr = draw(st.integers(0, n))
    queued = sorted(draw(st.sets(st.integers(0, max(ptr - 1, 0)),
                                 max_size=min(queue_size, ptr))))
    base = draw(st.integers(0, queued[0] if queued else ptr))
    draws = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
                          min_size=1, max_size=30))
    return (decision, delivery, queue_size, draw(st.integers(0, 3)), draw(st.integers(0, 8)),
            ptr, queued, base, draws)


class TestCycleLoop:
    """The per-cycle loop steps t' = max(t + alpha, delivery[h] + f + a) and
    passes over frames with forward scans of lists held from `base` on. It
    must run the cycles the loop with the cycle length max(deq + f - t, o)
    + a and bisections over whole lists runs, from the same state."""

    @settings(max_examples=1000, deadline=None)
    @given(state=_loop_states())
    # With one buffer, the release at 2 falls on the decision instant of
    # frames 1 and 2, and the retrieval of frame 0 at 4 on that of frame 3.
    @example(state=([0, 2, 2, 4, 7], [4, 4, 5, 6, 9], 1, 2, 0, 0, [], 0,
                    [(1, 0, 0), (0, 3, 1), (2, 2, 0), (1, 1, 1)]))
    # Queueless, with the lists held from frame 2: the release at 3 falls on
    # the decision instant of three frames, and the frames run out.
    @example(state=([0, 1, 3, 3, 3, 5, 8], [1, 3, 3, 4, 5, 8, 8], 0, 0, 3, 2, [], 2,
                    [(0, 0, 0), (2, 1, 0), (0, 4, 2), (1, 0, 0), (3, 3, 0), (0, 0, 0)]))
    def test_forward_scans_match_bisections(self, state):
        decision, delivery, queue_size, theta, now, ptr, queued, base, draws = state
        dec, dlv = decision + [sim._NEVER], delivery + [sim._NEVER]
        n = len(decision)
        fetch, other, after = (list(d) for d in zip(*draws))
        want_queue = deque(queued)
        want = _cycles_by_bisection(dec, dlv, n, queue_size, theta, now, ptr, want_queue,
                                    fetch, other, after)
        alpha = [max(f + theta, o) + a for f, o, a in draws]
        tail = [f + a for f, _, a in draws]
        got_queue = deque(queued)
        heads, starts, got_ptr = sim._cycles(dec[base:], dlv[base:], n - base, queue_size,
                                             theta, base, now, ptr - base, got_queue,
                                             alpha, tail)
        ran_out = other[len(heads)] if len(heads) < len(draws) else None
        assert ([h + base for h in heads], np.diff(starts).tolist(), starts[-1],
                got_ptr + base, list(got_queue), ran_out) == (
                    want[0], want[1], want[2], want[3], list(want_queue), want[4])


class TestRetrievalWait:
    """The per-cycle loop fills its instant lists as far as a bound lets a
    stretch reach (see `sim._run_cycles`), built on W = max(delivery[0],
    delivery[k] - decision[k - 1] over k): no retrieval waits longer than W
    past its release, under the draws or an extremal stage schedule."""

    def test_wait_past_release_is_within_w(self):
        rng = np.random.default_rng(123)
        for i in range(12):
            cam, usb, profile, _ = _random_scenario(rng, i)
            for kind in sorted(_DIGEST_VARIANTS):
                for schedule in _SCHEDULES:
                    cfg = SimConfig(
                        camera=cam, usb=usb, profile=profile,
                        variant=_DIGEST_VARIANTS[kind](float(rng.uniform(0.0, 2.0)) * cam.cycle_ms),
                        duration_ms=300 * cam.cycle_ms, seed=i, n_objects=0,
                        capture_jitter_ms=float(rng.choice([0.0, 0.2, 0.39])) * cam.cycle_ms)
                    r = _simulate(cfg, _schedule_streams(profile, schedule, i, 64))
                    decision, delivery, wait = (np.rint(ms * _MS).astype(np.int64) for ms in
                                                (r.decision_ms, r.delivery_ms, r.b_fetch_ms))
                    bound = np.max(delivery[1:] - decision[:-1], initial=delivery[0])
                    assert wait.max(initial=0) <= bound, (i, kind, schedule)


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
        depths the trace records, the admission depths and the first full
        instant."""
        queued = [(v.queue_size, r) for v, r in runs if v.queue_size]
        assert len(queued) >= 12
        for q, r in queued:
            depth = 0
            full, ahead = [], []
            for t, kind, _, detail in r.trace:
                if kind == "accept":
                    ahead.append(depth)
                    depth += 1
                elif kind == "retrieve":
                    depth -= 1
                else:
                    continue
                assert detail == depth
                if depth == q:
                    full.append(t)
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


# -- trace columns ---------------------------------------------------------------


def _trace_by_sort(r: SimResult, queue_size: int) -> list:
    """A traced run's events as the tuple list the trace once was, sorted by
    Python's tuple sort, from the result's instants: each frame's capture,
    its drop or skip (detail Q) or its accept (detail the depth after it),
    and each retrieval (detail the depth it left behind). Depths are counted
    by bisection: an accept finds the retrievals strictly before it gone,
    and a retrieval leaves the accepts up to it, minus its own and the
    retrievals before it, behind."""
    def ns(ms):
        return np.rint(ms * _MS).astype(np.int64).tolist()

    capture, decision, dequeue = ns(r.capture_ms), ns(r.decision_ms), ns(r.dequeue_ms)
    fetched = r.fetched_frames.tolist()
    events = [(t, "capture", k, 0) for k, t in enumerate(capture)]
    events += [(decision[k], "drop" if queue_size else "skip", k, queue_size)
               for k in sorted(set(range(len(capture))) - set(fetched))]
    accepts = [decision[k] for k in fetched] if queue_size else []
    events += [(t, "accept", k, m - bisect_left(dequeue, t) + 1)
               for m, (t, k) in enumerate(zip(accepts, fetched))]
    events += [(t, "retrieve", k, bisect_right(accepts, t) - m - 1 if queue_size else 0)
               for m, (t, k) in enumerate(zip(dequeue, fetched))]
    return sorted(events)


# A 1.5 ns capture interval on a 1 ns buffering period: each decision falls
# 1 ns and each delivery 3 ns after its capture, on the instants captures
# take too, so events of every two kinds that meet in a run share instants.
GRID_CAM = CameraConfig(frame_rate=1000 / 1.5e-6, width=1, height=1, bits_per_pixel=8)
GRID_USB = UsbLinkConfig(bytes_per_microframe=1, urb_microframes=1, microframe_ms=1e-6)


def grid_config(**overrides):
    kw = dict(camera=GRID_CAM, usb=GRID_USB, profile=ZERO_PROFILE, variant=Vanilla(1),
              duration_ms=1e-4, seed=1, n_objects=5)
    kw.update(overrides)
    return SimConfig(**kw)


# Traced runs checked against `_trace_by_sort`: FIFO and queueless variants,
# frames that share decision instants (shared, jittered), retrievals that
# share an instant (zero), events of two kinds at one instant (grid), and
# runs that fetch no, one and two frames.
_TRACE_RUNS = {
    "grid/vanilla1": grid_config(),
    "grid/vanilla2": grid_config(variant=Vanilla(2)),
    "grid/on_demand": grid_config(variant=OnDemand()),
    "grid/zero_slack": grid_config(variant=ZeroSlack(1e-6)),
    "micro": micro_config(variant=Vanilla(1)),
    "heavy/vanilla4": heavy_config(duration_ms=5000.0),
    "heavy/on_demand": heavy_config(variant=OnDemand(), duration_ms=5000.0),
    "heavy/contention_free": heavy_config(variant=ContentionFree(), duration_ms=5000.0),
    "shared/vanilla1": shared_config(duration_ms=3000.0),
    "shared/vanilla3": shared_config(variant=Vanilla(3), duration_ms=3000.0),
    "shared/zero_slack": shared_config(variant=ZeroSlack(2.0), duration_ms=3000.0),
    "zero/vanilla2": shared_config(profile=ZERO_PROFILE, variant=Vanilla(2), duration_ms=3000.0),
    "zero/vanilla0": shared_config(profile=ZERO_PROFILE, variant=Vanilla(0), duration_ms=3000.0),
    "idle": micro_config(variant=ZeroSlack(5000.0), duration_ms=300.0),
    "one_frame": micro_config(duration_ms=10.0, object_times_ms=(0.0,)),
    "two_frames/vanilla1": micro_config(duration_ms=20.0, object_times_ms=(0.0,)),
    "two_frames/on_demand": micro_config(variant=OnDemand(), duration_ms=20.0,
                                         object_times_ms=(0.0,)),
}


class TestTraceColumns:
    @pytest.mark.parametrize("name", sorted(_TRACE_RUNS))
    def test_columns_match_the_tuple_sort(self, name):
        """The sorted columns give the events, in the order, of the tuple
        list sorted by Python, with int64 instants, frames and details."""
        cfg = dataclasses.replace(_TRACE_RUNS[name], trace=True)
        r = run(cfg)
        trace = r.trace
        assert [trace.time_ns.dtype, trace.frame.dtype, trace.detail.dtype] == [np.int64] * 3
        assert len(trace) == len(trace.kind) == len(trace.frame) == len(trace.detail)
        assert list(trace) == _trace_by_sort(r, cfg.variant.queue_size)

    def test_runs_cover_ties_and_run_lengths(self):
        """The runs above put events of every two kinds that meet in a run
        at one instant, and two retrievals at one instant, so each order of
        the kinds but the alphabetical one fails the test above; and they
        fetch no, one and two frames."""
        tied, shared_retrievals, fetched = set(), False, set()
        for cfg in _TRACE_RUNS.values():
            r = run(dataclasses.replace(cfg, trace=True))
            kinds_at = {}
            for t, kind, _, _ in r.trace:
                kinds_at.setdefault(t, []).append(kind)
            for kinds in kinds_at.values():
                tied.update(combinations(sorted(set(kinds)), 2))
                shared_retrievals |= kinds.count("retrieve") > 1
            fetched.add(r.frames_fetched)
        queued = ("accept", "capture", "drop", "retrieve")
        queueless = ("capture", "retrieve", "skip")
        assert tied == {*combinations(queued, 2), *combinations(queueless, 2)}
        assert shared_retrievals and {0, 1, 2} <= fetched


# -- run epilogue ----------------------------------------------------------------


def _occupancy_by_search(accept, retrieve):
    """`sim._occupancy` by binary searches rather than a merge: accept k
    finds the retrievals strictly before it gone, and retrieval m leaves the
    accepts up to it, minus its own and the retrievals before it, behind."""
    order = np.arange(len(accept))
    ahead = order - np.searchsorted(retrieve, accept, side="left")
    left_behind = np.searchsorted(accept, retrieve, side="right") - order - 1
    return ahead, left_behind


# The SimResult fields that hold arrays: the bytes a run's result takes.
_RESULT_ARRAYS = (
    "capture_ms", "decision_ms", "delivery_ms", "fetched_frames", "dequeue_ms",
    "b_fetch_ms", "admit_ahead", "queue_delays", "detector_delays", "steady_frame_mask",
    "cycle_times", "cycle_steady_mask", "object_frame", "e2e_delays", "camera_delays",
)


class TestRunEpilogue:
    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=40),
           start=st.integers(-3, 3))
    @example(gaps=[], start=0)
    def test_occupancy_merge_matches_search(self, gaps, start):
        """The stable-sort merge gives the admission depths and depths left
        behind that binary searches give, with instants shared within and
        across the accepts and the retrievals, and the same dtypes; also
        with no frame."""
        accept = np.cumsum(np.asarray([a for a, _ in gaps], dtype=np.int64))
        retrieve = start + np.cumsum(np.asarray([r for _, r in gaps], dtype=np.int64))
        got = sim._occupancy(accept, retrieve)
        want = _occupancy_by_search(accept, retrieve)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype
            assert g.tolist() == w.tolist()

    def test_run_peak_stays_near_its_result(self):
        """One simulated hour of case1 (108,000 frames, all fetched) peaks
        below 1.6 times the bytes of its result's arrays in traced
        allocations (11.8 MB for 8.9 MB, 1.33 times): each ms field replaces
        its ns source as it is built. Building every field while all the ns
        arrays lived took 2.07 times a result of five more arrays."""
        peak, r = _hour_peak("case1", "vanilla")
        assert r.frames_fetched == r.frames_captured == 108000
        assert peak < 1.6 * _result_bytes(r), (peak, _result_bytes(r))

    def test_per_cycle_peak_stays_near_its_result(self):
        """One simulated hour of default contention_free, which runs nearly
        every cycle one by one, peaks below 2.5 times the bytes of its
        result's arrays in traced allocations (6.2 MB for 3.8 MB, 1.64
        times): the per-cycle loop, which sets the peak, holds the instants
        from the FIFO head or the next undecided frame on, and reads the
        instants' sentinel from the slot the camera timeline leaves for it.
        Against a result of five more arrays (4.1 MB), holding every frame's
        instants as Python ints took 3.6 times, copying both instant arrays
        to append the sentinel 2.3 times, lists that set the instants behind
        the head to None 1.85 times, and this loop 1.51 times."""
        peak, r = _hour_peak("default", "contention_free")
        assert r.frames_captured == 108000
        assert peak < 2.5 * _result_bytes(r), (peak, _result_bytes(r))


def _hour_peak(scenario, variant):
    """The traced allocation peak of one simulated hour of a preset variant,
    above what was allocated before it, and its result."""
    s = load_scenario(scenario)
    cfg = dataclasses.replace(s.sim_config(next(v for v in s.variants if v.name == variant)),
                              duration_ms=3600000.0)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        r = run(cfg)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak, r


def _result_bytes(r: SimResult) -> int:
    """The bytes of a result's array fields, checked against `_RESULT_ARRAYS`."""
    arrays = {f.name for f in dataclasses.fields(r) if isinstance(getattr(r, f.name), np.ndarray)}
    assert arrays == set(_RESULT_ARRAYS)
    return sum(getattr(r, name).nbytes for name in _RESULT_ARRAYS)
