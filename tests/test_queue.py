"""Queue regime classification and queuing-delay bound formulas."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipedelay.dist import DelayDist
from pipedelay.queueing import QueueRegime, classify, queue_delay_bounds


def two_point(lo, hi):
    if lo == hi:
        return DelayDist.constant(lo)
    return DelayDist.from_points([(lo, 0.5), (hi, 0.5)])


class TestClassify:
    def test_arrival_limited(self):
        assert classify(two_point(48, 52), 30, 40) is QueueRegime.ARRIVAL_LIMITED

    def test_service_limited(self):
        assert classify(two_point(32, 36), 150, 163) is QueueRegime.SERVICE_LIMITED

    def test_exact_tie_is_mixed(self):
        d = DelayDist.constant(33.0)
        assert classify(d, 33.0, 33.0) is QueueRegime.MIXED

    def test_overlap_is_mixed(self):
        assert classify(two_point(30, 50), 40, 60) is QueueRegime.MIXED

    @given(
        st.floats(1.0, 100.0), st.floats(0.0, 50.0),
        st.floats(1.0, 100.0), st.floats(0.0, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_exactly_one_regime(self, a_lo, a_w, s_lo, s_w):
        arrivals = two_point(a_lo, a_lo + a_w)
        services = two_point(s_lo, s_lo + s_w)
        regime = classify(arrivals, services.min, services.max)
        hits = [
            arrivals.min > services.max,
            arrivals.max < services.min,
        ]
        if hits[0]:
            assert regime is QueueRegime.ARRIVAL_LIMITED
        elif hits[1]:
            assert regime is QueueRegime.SERVICE_LIMITED
        else:
            assert regime is QueueRegime.MIXED


class TestSaturatedBounds:
    def test_upper_bound_example(self):
        b = queue_delay_bounds(
            QueueRegime.SERVICE_LIMITED, 4, s_min=150.0, s_max=163.0,
            d_tran_min=28.875, d_tran_max=32.875,
            refill_gap_ms=100.0 / 3.0, urb_period_ms=4.0,
        )
        assert b.d_queue_max == pytest.approx(627.125, abs=1e-9)

    def test_lower_bound_example(self):
        b = queue_delay_bounds(
            QueueRegime.SERVICE_LIMITED, 4, s_min=150.0, s_max=163.0,
            d_tran_min=28.875, d_tran_max=32.875,
            refill_gap_ms=100.0 / 3.0, urb_period_ms=4.0,
        )
        assert b.d_queue_min == pytest.approx(600.0 - (32.875 + 100.0 / 3.0), abs=1e-6)
        assert b.d_queue_min == pytest.approx(533.79, abs=0.01)

    def test_lower_bound_clamps_at_zero(self):
        # Q*s_min smaller than the admission credit: degenerate small queue.
        b = queue_delay_bounds(
            QueueRegime.SERVICE_LIMITED, 1, s_min=20.0, s_max=30.0,
            d_tran_min=5.0, d_tran_max=10.0,
            refill_gap_ms=15.0, urb_period_ms=1.0,
        )
        assert b.d_queue_min == 0.0
        assert b.d_queue_max == pytest.approx(26.0)


class TestDrainedAndMixed:
    def test_arrival_limited_is_zero(self):
        b = queue_delay_bounds(
            QueueRegime.ARRIVAL_LIMITED, 4, 150.0, 163.0, 28.875, 32.875,
            100.0 / 3.0, 4.0,
        )
        assert (b.d_queue_min, b.d_queue_max) == (0.0, 0.0)

    def test_mixed_keeps_saturated_ceiling(self):
        b = queue_delay_bounds(
            QueueRegime.MIXED, 4, 150.0, 163.0, 28.875, 32.875,
            100.0 / 3.0, 4.0,
        )
        assert b.d_queue_min == 0.0
        assert b.d_queue_max == pytest.approx(627.125, abs=1e-9)

    @pytest.mark.parametrize("regime", list(QueueRegime))
    def test_queue_size_zero_degenerates(self, regime):
        b = queue_delay_bounds(regime, 0, 150.0, 163.0, 28.875, 32.875,
                               100.0 / 3.0, 4.0)
        assert (b.d_queue_min, b.d_queue_max) == (0.0, 0.0)

    def test_negative_queue_size_rejected(self):
        with pytest.raises(ValueError):
            queue_delay_bounds(QueueRegime.MIXED, -1, 150.0, 163.0,
                               28.875, 32.875, 100.0 / 3.0, 4.0)


class TestLinearityInQueueSize:
    def test_slopes_match_service_extremes(self):
        s_min, s_max = 150.0, 163.0
        prev = None
        for q in range(3, 9):
            b = queue_delay_bounds(
                QueueRegime.SERVICE_LIMITED, q, s_min, s_max,
                28.875, 32.875, 100.0 / 3.0, 4.0,
            )
            if prev is not None:
                assert b.d_queue_max - prev.d_queue_max == pytest.approx(s_max)
                assert b.d_queue_min - prev.d_queue_min == pytest.approx(s_min)
            prev = b

    @given(st.integers(1, 12), st.floats(40.0, 200.0), st.floats(0.0, 30.0))
    @settings(max_examples=80, deadline=None)
    def test_bounds_ordered_and_nonnegative(self, q, s_min, s_spread):
        b = queue_delay_bounds(
            QueueRegime.SERVICE_LIMITED, q, s_min, s_min + s_spread,
            10.0, 14.0, 33.0, 2.0,
        )
        assert 0.0 <= b.d_queue_min <= b.d_queue_max
