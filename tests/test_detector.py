"""Detection-loop model: stage composition, service intervals, variant bounds."""

import itertools

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
    compute_theta_fetch,
    detector_delay_bounds,
    service_distribution,
)
from pipedelay.dist import DelayDist, ZERO_DELAY

VGA30 = CameraConfig(frame_rate=30.0, width=640, height=480, bits_per_pixel=16)
USB_VGA30 = UsbLinkConfig(bytes_per_microframe=2688, urb_microframes=32)
QVGA20 = CameraConfig(frame_rate=20.0, width=320, height=240, bits_per_pixel=16)
USB_QVGA20 = UsbLinkConfig(bytes_per_microframe=512, urb_microframes=32)

C30 = 100.0 / 3.0  # 30 fps cycle, kept exact as a fraction

# One stage delay: 1 to 4 points on a 1 us grid up to 200 ms.
STAGE = st.lists(
    st.tuples(st.integers(0, 200_000), st.integers(1, 5)),
    min_size=1, max_size=4, unique_by=lambda pt: pt[0],
).map(lambda pts: DelayDist.from_points(
    [(k / 1000, w / sum(w for _, w in pts)) for k, w in pts]))


def const_profile(fetch=15.0, cpu=5.0, gpu=140.0, disp=20.0, inflation=28.0):
    return StageProfile(
        fetch_exec=DelayDist.constant(fetch),
        infer_cpu=DelayDist.constant(cpu),
        infer_gpu=DelayDist.constant(gpu),
        disp_exec=DelayDist.constant(disp),
        infer_inflation=DelayDist.constant(inflation),
    )


class TestStageComposition:
    def test_uncontended_inference(self):
        p = const_profile()
        d = p.infer_delay_dist(contended=False)
        assert d.points() == [(145.0, 1.0)]

    def test_contended_inference_pays_inflation(self):
        p = const_profile()
        d = p.infer_delay_dist(contended=True)
        assert d.points() == [(173.0, 1.0)]

    def test_inference_convolution(self):
        p = StageProfile(
            fetch_exec=ZERO_DELAY,
            infer_cpu=DelayDist.from_points([(4, 0.5), (6, 0.5)]),
            infer_gpu=DelayDist.constant(140),
            disp_exec=ZERO_DELAY,
        )
        d = p.infer_delay_dist(contended=False)
        assert d.points() == [(144.0, 0.5), (146.0, 0.5)]


class TestStageExtremes:
    @given(st.lists(STAGE, min_size=8, max_size=8), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_extremes_are_the_convolved_support_ends(self, stages, contended):
        p = StageProfile(*stages)
        dists = (p.fetch_delay_dist(contended), p.infer_delay_dist(contended),
                 p.disp_delay_dist(contended))
        assert p.extremes(contended) == tuple((d.min, d.max) for d in dists)

    @given(st.lists(STAGE, min_size=8, max_size=8), st.integers(0, 50_000))
    @settings(max_examples=60, deadline=None)
    def test_cycle_range_is_the_service_support(self, stages, theta_us):
        p = StageProfile(*stages)
        for v in (Vanilla(4), OnDemand(), ZeroSlack(theta_us / 1000), ContentionFree()):
            b = detector_delay_bounds(p, v)
            s = service_distribution(p, v)
            assert b.s_min == pytest.approx(s.min, abs=1e-9)
            assert b.s_max == pytest.approx(s.max, abs=1e-9)


class TestServiceDistribution:
    def test_dominated_by_inference(self):
        # Contended inference lands at 163 = 5 + 130 + 28.
        p = const_profile(gpu=130.0)
        s = service_distribution(p, Vanilla(4))
        assert s.points() == [(163.0, 1.0)]

    def test_contention_free_construction(self):
        p = const_profile(gpu=130.0)
        s = service_distribution(p, ContentionFree())
        # max(fetch 15, disp 20) + uncontended inference 135.
        assert s.points() == [(155.0, 1.0)]

    def test_bimodal_fetch(self):
        p = StageProfile(
            fetch_exec=DelayDist.from_points([(10, 0.5), (200, 0.5)]),
            infer_cpu=DelayDist.constant(5),
            infer_gpu=DelayDist.constant(130),
            disp_exec=DelayDist.constant(20),
            infer_inflation=DelayDist.constant(28),
        )
        s = service_distribution(p, Vanilla(4))
        assert s.points() == [(163.0, 0.5), (200.0, 0.5)]

    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers(1, 5)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 30), st.integers(1, 5)), min_size=1, max_size=4),
        st.lists(st.tuples(st.integers(0, 30), st.integers(1, 5)), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force_enumeration(self, f, i, d):
        def mk(pairs):
            total = sum(w for _, w in pairs)
            merged = {}
            for v, w in pairs:
                merged[float(v)] = merged.get(float(v), 0.0) + w / total
            return DelayDist.from_points(sorted(merged.items()))

        fetch, infer, disp = mk(f), mk(i), mk(d)
        p = StageProfile(
            fetch_exec=fetch, infer_cpu=infer, infer_gpu=ZERO_DELAY,
            disp_exec=disp, infer_inflation=ZERO_DELAY,
        )
        s = service_distribution(p, Vanilla(4))
        expected = {}
        for (vf, pf), (vi, pi), (vd, pd) in itertools.product(
            fetch.points(), infer.points(), disp.points()
        ):
            v = max(vf, vi, vd)
            expected[v] = expected.get(v, 0.0) + pf * pi * pd
        got = dict(s.points())
        assert set(got) == set(expected)
        for v, prob in expected.items():
            assert got[v] == pytest.approx(prob, abs=1e-9)


class TestBlockingBounds:
    def test_vga30(self):
        lo, hi = blocking_bounds(VGA30, USB_VGA30)
        assert lo == pytest.approx(24.875, abs=1e-9)
        assert hi == pytest.approx(32.875 + C30, abs=1e-6)

    def test_clamped_at_zero(self):
        cam = CameraConfig(frame_rate=30.0, width=16, height=16, bits_per_pixel=16)
        usb = UsbLinkConfig(bytes_per_microframe=4096, urb_microframes=64)
        lo, _ = blocking_bounds(cam, usb)
        assert lo == 0.0

    def test_qvga20(self):
        lo, hi = blocking_bounds(QVGA20, USB_QVGA20)
        assert lo == pytest.approx(33.75, abs=1e-9)
        assert hi == pytest.approx(91.75, abs=1e-9)


class TestDetectorDelayBounds:
    def test_vanilla_constant_service(self):
        p = const_profile(gpu=130.0)
        b = detector_delay_bounds(p, Vanilla(4))
        assert b.d_detector_min == pytest.approx(346.0, abs=1e-9)
        assert b.d_detector_max == pytest.approx(346.0, abs=1e-9)

    def test_on_demand_subtracts_blocking(self):
        p = const_profile(gpu=130.0)
        b = detector_delay_bounds(p, OnDemand(), b_fetch_min=24.875,
                                  b_fetch_max=32.875 + C30)
        assert b.d_detector_min == pytest.approx(346.0 - (32.875 + C30), abs=1e-6)
        assert b.d_detector_max == pytest.approx(346.0 - 24.875, abs=1e-9)

    def test_contention_free_bounds(self):
        # One cycle of the serialized loop plus the display, minus blocking.
        # The cycle is the blocked fetch (above the 20 ms display) followed
        # by uncontended inference 5 + 130.
        p = const_profile(gpu=130.0)
        b_min, b_max = 24.875, 32.875 + C30
        b = detector_delay_bounds(p, ContentionFree(), b_fetch_min=b_min,
                                  b_fetch_max=b_max)
        assert b.s_min == pytest.approx(15.0 + 24.875 + 135.0, abs=1e-9)
        assert b.s_max == pytest.approx(15.0 + 32.875 + C30 + 135.0, abs=1e-9)
        assert b.d_detector_min == pytest.approx(b.s_min + 20.0 - b_max, abs=1e-9)
        assert b.d_detector_max == pytest.approx(b.s_max + 20.0 - b_min, abs=1e-9)

    def test_negative_bound_clamps_with_flag(self):
        p = const_profile(fetch=1.0, cpu=1.0, gpu=1.0, disp=1.0, inflation=0.0)
        b = detector_delay_bounds(p, OnDemand(), b_fetch_min=0.0, b_fetch_max=50.0)
        assert b.d_detector_min == 0.0
        assert b.clamped


class TestThetaRule:
    def test_direct_evaluation(self):
        assert compute_theta_fetch(150.0, 15.0, 35.0) == pytest.approx(100.0)

    def test_with_blocking_example(self):
        theta = compute_theta_fetch(163.0, 15.0, 32.875 + C30)
        assert theta == pytest.approx(163.0 - 15.0 - (32.875 + C30), abs=1e-6)
        assert theta == pytest.approx(81.79, abs=0.01)

    def test_clamped_when_no_safe_offset(self):
        assert compute_theta_fetch(100.0, 60.0, 50.0) == 0.0

    @given(
        st.floats(50.0, 300.0),
        st.floats(1.0, 40.0),
        st.floats(0.0, 120.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_theta_never_increases_service_max(self, s_min_target, fetch_max, b_max):
        p = StageProfile(
            fetch_exec=DelayDist.from_points([(fetch_max / 2, 0.5), (fetch_max, 0.5)]),
            infer_cpu=DelayDist.constant(s_min_target),
            infer_gpu=ZERO_DELAY,
            disp_exec=DelayDist.constant(5.0),
            infer_inflation=ZERO_DELAY,
        )
        od = detector_delay_bounds(p, OnDemand(), 0.0, b_max)
        theta = compute_theta_fetch(od.s_min, fetch_max, b_max)
        zs = detector_delay_bounds(p, ZeroSlack(theta), 0.0, b_max)
        assert zs.s_max <= od.s_max + 1e-9
        if theta > 0:
            # The delayed fetch barely touches the shortest cycle.
            assert theta + fetch_max + b_max == pytest.approx(od.s_min, abs=1e-9)

    @given(st.floats(1.0, 50.0), st.floats(0.0, 80.0))
    @settings(max_examples=50, deadline=None)
    # A blocking range narrower than the point-merge tolerance: the bounds
    # must still see its upper end.
    @example(fetch_max=1.0, b_hi=1e-9)
    def test_zero_slack_is_exact_translation(self, fetch_max, b_hi):
        p = const_profile(fetch=fetch_max, gpu=200.0)
        s0 = service_distribution(p, OnDemand())
        theta = compute_theta_fetch(s0.min, fetch_max, b_hi)
        od = detector_delay_bounds(p, OnDemand(), 0.0, b_hi)
        zs = detector_delay_bounds(p, ZeroSlack(theta), 0.0, b_hi)
        assert zs.d_detector_min == pytest.approx(od.d_detector_min - theta, abs=1e-9)
        assert zs.d_detector_max == pytest.approx(od.d_detector_max - theta, abs=1e-9)


class TestVariantOrdering:
    @given(st.floats(0.0, 60.0), st.floats(60.0, 120.0))
    @settings(max_examples=50, deadline=None)
    def test_on_demand_max_never_exceeds_vanilla(self, b_lo_raw, b_hi):
        b_lo = min(b_lo_raw, b_hi)
        p = const_profile()
        vb = detector_delay_bounds(p, Vanilla(4))
        ob = detector_delay_bounds(p, OnDemand(), b_lo, b_hi)
        assert ob.d_detector_max <= vb.d_detector_max + 1e-9

    def test_contention_free_service_envelope(self):
        p = StageProfile(
            fetch_exec=DelayDist.from_points([(10, 0.5), (18, 0.5)]),
            infer_cpu=DelayDist.from_points([(4, 0.5), (6, 0.5)]),
            infer_gpu=DelayDist.constant(120),
            disp_exec=DelayDist.from_points([(15, 0.5), (25, 0.5)]),
            infer_inflation=DelayDist.constant(28),
        )
        s_contended = service_distribution(p, Vanilla(4))
        s_cf = service_distribution(p, ContentionFree())
        d_fetch = p.fetch_delay_dist(False)
        d_disp = p.disp_delay_dist(False)
        assert s_cf.max <= s_contended.max + max(d_fetch.max, d_disp.max) + 1e-9
        assert s_cf.min >= p.infer_delay_dist(False).min - 1e-9
