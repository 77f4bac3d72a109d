"""End-to-end delay bounds and bound-vs-simulation validation.

The bounds read only stage extremes (`StageProfile.extremes`); no
distribution is convolved here. The per-component formulas assume every
pipeline cycle stays within the nominal cycle range that
`detector_delay_bounds` computes. Retrieval blocking (waiting for a
frame still in transit) can stretch a cycle beyond the nominal maximum,
so the analyzer widens the cycle extremes by the blocking range before
applying any formula that must hold for arbitrary cycles (camera
capture gap, queue upper bound, queueless detector bounds).

For the queued variant a saturation certificate - the worst transfer
lag plus the largest admission gap fits inside the buffered work - both
keeps the queue full and rules out blocking once saturation is reached.
Under the certificate the classical tight bounds (nominal service, no
blocking) hold for every frame that enters a saturated queue, i.e. one
admitted with the buffer otherwise full right after a blocking-free
retrieval; without it the bounds are widened so they stay sound
everywhere.

Nothing here runs the simulator: a run comes from
`run(scenario.sim_config(variant))`, so variants are compared by looping
over `scenario.variants` (as `pipedelay simulate` and demos/04 do).
"""

import math
from dataclasses import dataclass

import numpy as np

from .camera import (
    CameraConfig,
    CameraDelayBounds,
    UsbLinkConfig,
    arrival_distribution,
    camera_delay_bounds,
    frame_size,
    transfer_delay_bounds,
)
from .detector import (
    DetectorDelayBounds,
    PipelineVariant,
    StageProfile,
    blocking_bounds,
    detector_delay_bounds,
)
from .dist import DelayDist
from .queueing import QueueDelayBounds, QueueRegime, classify, queue_delay_bounds
from .sim import SimResult


@dataclass(frozen=True)
class E2EBounds:
    variant_name: str
    regime: QueueRegime
    arrivals: DelayDist
    service_min: float
    service_max: float
    camera: CameraDelayBounds
    queue: QueueDelayBounds
    detector: DetectorDelayBounds
    saturation_certified: bool
    total_min: float
    total_max: float
    warnings: tuple


def analyze(
    cam: CameraConfig,
    usb: UsbLinkConfig,
    profile: StageProfile,
    variant: PipelineVariant,
) -> E2EBounds:
    """Bound every delay component of one pipeline variant."""
    warnings: list[str] = []
    arrivals = arrival_distribution(cam, usb)
    nominal = detector_delay_bounds(profile, variant)
    regime = classify(arrivals, nominal.s_min, nominal.s_max)

    tran_lo, tran_hi = transfer_delay_bounds(frame_size(cam), usb)
    b_lo, b_hi = blocking_bounds(cam, usb)
    q = variant.queue_size
    # Widened extremes hold for every cycle, including startup ones where
    # the head may still be in transit; a queued head is fetched at once.
    wide = detector_delay_bounds(profile, variant, 0.0 if q else b_lo, b_hi)
    certified = (
        q > 0
        and regime is QueueRegime.SERVICE_LIMITED
        and tran_hi + arrivals.max <= q * nominal.s_min
    )
    det = nominal if certified else wide
    # Uncertified, the floor on the wait is 0: it is positive only when the
    # certificate's sum fits in q * s_min, and 0 outside SERVICE_LIMITED.
    qd = queue_delay_bounds(
        regime, q, det.s_min, wide.s_max,
        tran_lo, tran_hi, arrivals.max, usb.urb_period_ms,
    )
    if q and not certified:
        warnings.append(
            "queue saturation not certified; bounds widened for retrieval blocking"
        )
    cam_b = camera_delay_bounds(cam, usb, wide.s_max)

    if det.clamped:
        warnings.append("detector lower bound clamped at zero")
    if variant.theta > 0:
        (f_min, _), (_, i_max), (_, d_max) = profile.extremes(True)
        if variant.theta + det.b_fetch_min + f_min > max(i_max, d_max):
            warnings.append(
                "release delay makes the fetch branch dominate every cycle; "
                "throughput will drop below the other variants"
            )

    total_min = cam_b.d_camera_min + qd.d_queue_min + det.d_detector_min
    total_max = cam_b.d_camera_max_exclusive + qd.d_queue_max + det.d_detector_max
    return E2EBounds(
        variant_name=variant.name,
        regime=regime,
        arrivals=arrivals,
        service_min=nominal.s_min,
        service_max=nominal.s_max,
        camera=cam_b,
        queue=qd,
        detector=det,
        saturation_certified=certified,
        total_min=total_min,
        total_max=total_max,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    n_checked: int
    n_violations: int
    lo: float
    hi: float
    observed_min: float
    observed_max: float
    worst_value: float | None

    @property
    def ok(self) -> bool:
        return self.n_violations == 0


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    notes: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def total_violations(self) -> int:
        return sum(c.n_violations for c in self.checks)


# Slack of every check: the simulator clock counts whole nanoseconds.
_ATOL = 1e-5


def _check(name, values, lo, hi) -> CheckResult:
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return CheckResult(name, 0, 0, lo, hi, float("nan"), float("nan"), None)
    below = values < lo - _ATOL
    above = values > hi + _ATOL
    bad = below | above
    worst = None
    if bad.any():
        v = values[bad]
        worst = float(v[np.argmax(np.maximum(lo - v, v - hi))])
    return CheckResult(
        name,
        int(len(values)),
        int(bad.sum()),
        lo,
        hi,
        float(values.min()),
        float(values.max()),
        worst,
    )


def validate_against_analysis(
    result: SimResult,
    bounds: E2EBounds,
    shrink_ms: float = 0.0,
) -> ValidationReport:
    """Check every simulated delay against its analytic interval.

    `shrink_ms` narrows each interval on both ends before checking; a
    positive value is a self-test knob that must make a healthy model
    report violations. It must be finite and >= 0, since a negative or
    NaN value would widen or void every check. Every check allows `_ATOL`,
    which only absorbs nanosecond quantization of the simulator clock.

    Transients are excluded exactly where the analysis assumes them
    away: detector and end-to-end checks use frames with a full pipeline
    on both sides, and the tight certified-saturation bounds are only
    enforced for frames that observed saturation directly - admitted to
    a full queue whose slot was freed at a cycle boundary, with enough
    full cycles behind them.
    """
    if not (math.isfinite(shrink_ms) and shrink_ms >= 0):
        raise ValueError("shrink_ms must be finite and >= 0")
    s = shrink_ms
    checks = []
    notes: list[str] = []

    cam, det = bounds.camera, bounds.detector
    checks.append(_check("transfer", result.delivery_ms - result.capture_ms,
                         cam.d_tran_min + s, cam.d_tran_max_exclusive - s))
    checks.append(_check("camera", result.camera_delays[~np.isnan(result.camera_delays)],
                         cam.d_camera_min + s, cam.d_camera_max_exclusive - s))

    fetched = result.fetched_frames
    n_fetched = len(fetched)

    # Frames the tight certified bounds apply to.  A saturated admission
    # of frame p (in retrieval order) means the slot opened by retrieval
    # p-Q was taken at the first decision after it, so the wait spans the
    # next Q cycles in full.  That anchor needs the opening retrieval to
    # sit on a cycle boundary (no blocking shift), the admission to fall
    # within one decision gap of it, and the Q cycles in between to run a
    # full pipeline (position >= q+2).  While the queue is still filling,
    # or right after a starved mid-cycle retrieval, admissions miss these
    # conditions and legitimately wait less.
    tight = np.ones(n_fetched, dtype=bool)
    if bounds.saturation_certified:
        q = bounds.queue.queue_size
        saturated = np.zeros(n_fetched, dtype=bool)
        if n_fetched > q:
            opener_on_boundary = result.b_fetch_ms[: n_fetched - q] == 0.0
            prompt = (
                result.decision_ms[fetched[q:]] - result.dequeue_ms[: n_fetched - q]
                <= bounds.arrivals.max + _ATOL
            )
            saturated[q:] = opener_on_boundary & prompt
        tight = (
            (np.arange(n_fetched) >= q + 2)
            & (result.admit_ahead == q - 1)
            & saturated
        )
        if not tight.any():
            notes.append("queue never reached saturation; tight bounds not exercised")

    q_hi = bounds.queue.d_queue_max
    q_lo = bounds.queue.d_queue_min
    checks.append(_check("queue.upper", result.queue_delays, 0.0, q_hi - s))
    if q_lo > 0:
        checks.append(_check("queue.lower", result.queue_delays[tight], q_lo + s, float("inf")))
    if bounds.queue.queue_size == 0:
        checks.append(_check("fetch_blocking", result.b_fetch_ms,
                             det.b_fetch_min + s, det.b_fetch_max - s))

    steady = result.steady_frame_mask & tight
    checks.append(_check("detector", result.detector_delays[steady],
                         det.d_detector_min + s, det.d_detector_max - s))

    detected = ~np.isnan(result.e2e_delays)
    pos = np.searchsorted(fetched, result.object_frame[detected])
    checks.append(_check("end_to_end", result.e2e_delays[detected][steady[pos]],
                         bounds.total_min + s, bounds.total_max - s))

    return ValidationReport(checks=tuple(checks), notes=tuple(notes))

