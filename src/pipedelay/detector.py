"""Detector-side model: the fetch / infer / display pipeline.

The detector runs in cycles. In the queued and on-demand variants the
three stages of consecutive frames execute concurrently (cycle i fetches
frame i, infers frame i-1, displays result i-2) and the cycle lasts as
long as the slowest stage. The contention-free variant runs fetch and
display concurrently but keeps inference alone, trading a longer cycle
for an uninflated inference time and one less pipeline stage of latency.

Stage distributions describe uncontended execution; per-stage inflation
terms are added whenever a stage shares its window with others.
"""

from dataclasses import dataclass, field

import numpy as np

from .camera import CameraConfig, UsbLinkConfig, transfer_delay_bounds, frame_size
from .dist import DelayDist, ZERO_DELAY, max_combine


def _const(v: float) -> DelayDist:
    return DelayDist.constant(v)


@dataclass(frozen=True)
class StageProfile:
    """Per-stage execution time distributions (ms).

    Inference is split into its CPU and GPU parts, which compose by
    convolution. The display stage has an execution part plus a blocking
    part (vsync and buffer swap waits). Inflation terms model memory
    contention while stages overlap; by default only inference pays it.
    """

    fetch_exec: DelayDist
    infer_cpu: DelayDist
    infer_gpu: DelayDist
    disp_exec: DelayDist
    disp_block: DelayDist = field(default_factory=lambda: ZERO_DELAY)
    fetch_inflation: DelayDist = field(default_factory=lambda: ZERO_DELAY)
    infer_inflation: DelayDist = field(default_factory=lambda: _const(28.0))
    disp_inflation: DelayDist = field(default_factory=lambda: ZERO_DELAY)

    def fetch_delay_dist(self, contended: bool) -> DelayDist:
        return self.fetch_exec.convolve(self.fetch_inflation) if contended else self.fetch_exec

    def infer_delay_dist(self, contended: bool) -> DelayDist:
        base = self.infer_cpu.convolve(self.infer_gpu)
        return base.convolve(self.infer_inflation) if contended else base

    def disp_delay_dist(self, contended: bool) -> DelayDist:
        base = self.disp_exec.convolve(self.disp_block)
        return base.convolve(self.disp_inflation) if contended else base


@dataclass(frozen=True)
class Vanilla:
    """Queued capture: driver fills a queue of `queue_size` frame buffers."""

    queue_size: int = 4

    name = "vanilla"

    def __post_init__(self):
        if self.queue_size < 0:
            raise ValueError("queue_size must be >= 0")


@dataclass(frozen=True)
class OnDemand:
    """Queueless capture: each cycle requests exactly one fresh frame."""

    name = "on_demand"


@dataclass(frozen=True)
class ZeroSlack:
    """On-demand capture with the fetch release delayed by theta ms."""

    theta: float

    name = "zero_slack"

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be >= 0")


@dataclass(frozen=True)
class ContentionFree:
    """On-demand capture with inference serialized after fetch/display."""

    name = "contention_free"


PipelineVariant = Vanilla | OnDemand | ZeroSlack | ContentionFree


@dataclass(frozen=True)
class DetectorDelayBounds:
    """Bounds (ms) on retrieval-to-display latency for one variant."""

    s_dist: DelayDist
    s_min: float
    s_max: float
    d_disp_min: float
    d_disp_max: float
    b_fetch_min: float
    b_fetch_max: float
    theta: float
    d_detector_min: float
    d_detector_max: float
    clamped: bool


def _stage_dists(p: StageProfile, variant: PipelineVariant):
    """Fetch, inference and display distributions as the variant's cycle
    runs them: contended, except in the contention-free arrangement."""
    contended = not isinstance(variant, ContentionFree)
    return (p.fetch_delay_dist(contended), p.infer_delay_dist(contended),
            p.disp_delay_dist(contended))


def _cycle_dist(variant, fetch, infer, disp, b_fetch: DelayDist) -> DelayDist:
    fetch = fetch.convolve(b_fetch)
    if isinstance(variant, ContentionFree):
        return max_combine([fetch, disp]).convolve(infer)
    if isinstance(variant, ZeroSlack):
        fetch = fetch.shift(variant.theta)
    return max_combine([fetch, infer, disp])


def service_distribution(
    p: StageProfile, variant: PipelineVariant, b_fetch: DelayDist = ZERO_DELAY
) -> DelayDist:
    """Distribution of one detector cycle length.

    b_fetch is whatever blocking the fetch stage experiences before its
    execution part; pass the zero distribution for a never-starved queue.
    """
    return _cycle_dist(variant, *_stage_dists(p, variant), b_fetch)


def blocking_bounds(cam: CameraConfig, usb: UsbLinkConfig) -> tuple[float, float]:
    """[min, max) of fetch blocking when each cycle waits for a fresh frame.

    A frame claimed right at the cycle start can already have up to one
    buffering period of data transferred, hence the M*U credit on the
    lower edge; at worst the previous frame was just missed and the wait
    spans a full capture interval plus the whole transfer.
    """
    tran_lo, tran_hi = transfer_delay_bounds(frame_size(cam), usb)
    lo = max(0.0, tran_lo - usb.urb_period_ms)
    return lo, tran_hi + cam.cycle_ms


def compute_theta_fetch(s_min: float, e_fetch_max: float, b_fetch_max: float) -> float:
    """Largest safe fetch release delay: the delayed fetch still finishes
    by the shortest cycle, so the cycle length distribution is unchanged."""
    return max(0.0, s_min - e_fetch_max - b_fetch_max)


def blocking_range_dist(b_fetch_min: float, b_fetch_max: float) -> DelayDist:
    """Two-point distribution spanning a blocking range, for bound math."""
    if b_fetch_min < 0 or b_fetch_max < b_fetch_min:
        raise ValueError("need 0 <= b_fetch_min <= b_fetch_max")
    if b_fetch_max > b_fetch_min:
        return DelayDist(np.array([b_fetch_min, b_fetch_max]), np.array([0.5, 0.5]))
    return _const(b_fetch_min)


def detector_delay_bounds(
    p: StageProfile,
    variant: PipelineVariant,
    b_fetch_min: float = 0.0,
    b_fetch_max: float = 0.0,
    service: DelayDist | None = None,
) -> DetectorDelayBounds:
    """Closed-form bounds on the retrieval-to-display latency.

    Queued/on-demand variants traverse two cycles plus the display stage;
    the contention-free variant needs one cycle plus the display. For the
    variants that wait for a fresh frame, the wait b_fetch is part of the
    camera-side accounting, so it is subtracted once here. Unless an
    explicit service distribution is given, the cycle distribution is
    built with b_fetch spanning its [min, max] range, which keeps the
    bounds valid even when blocking stretches some cycles beyond the pure
    execution maximum.
    """
    if b_fetch_min < 0 or b_fetch_max < b_fetch_min:
        raise ValueError("need 0 <= b_fetch_min <= b_fetch_max")
    fetch, infer, disp = _stage_dists(p, variant)
    phased = isinstance(variant, ContentionFree)
    theta = variant.theta if isinstance(variant, ZeroSlack) else 0.0
    if service is None:
        service = _cycle_dist(variant, fetch, infer, disp,
                              blocking_range_dist(b_fetch_min, b_fetch_max))
        # The extremes come from the stages, not from `service`: the point
        # merging of the distribution algebra keeps the lower of two nearby
        # values and could pull them below the true extremes.
        if phased:
            s_min = max(fetch.min + b_fetch_min, disp.min) + infer.min
            s_max = max(fetch.max + b_fetch_max, disp.max) + infer.max
        else:
            s_min = max(fetch.min + b_fetch_min + theta, infer.min, disp.min)
            s_max = max(fetch.max + b_fetch_max + theta, infer.max, disp.max)
    else:
        s_min, s_max = service.min, service.max

    if phased:
        cycles = 1
        subtract_b = True
    else:
        cycles = 2
        subtract_b = not isinstance(variant, Vanilla)

    lo = cycles * s_min + disp.min - theta
    hi = cycles * s_max + disp.max - theta
    if subtract_b:
        lo -= b_fetch_max
        hi -= b_fetch_min
    elif b_fetch_max > 0:
        # A queue that can run dry: the cycle that dequeues the frame may
        # spend almost everything on the wait, leaving only the fetch
        # execution part between retrieval and the cycle boundary.
        lo = min(lo, fetch.min + s_min + disp.min)
    clamped = lo < 0
    return DetectorDelayBounds(
        s_dist=service,
        s_min=s_min,
        s_max=s_max,
        d_disp_min=disp.min,
        d_disp_max=disp.max,
        b_fetch_min=b_fetch_min,
        b_fetch_max=b_fetch_max,
        theta=theta,
        d_detector_min=max(0.0, lo),
        d_detector_max=hi,
        clamped=clamped,
    )
