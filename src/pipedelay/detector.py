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

import math
import sys
from dataclasses import dataclass, field

from .camera import CameraConfig, UsbLinkConfig, transfer_delay_bounds, frame_size
from .dist import DelayDist, ZERO_DELAY, convolve_all, max_combine


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
    infer_inflation: DelayDist = field(default_factory=lambda: DelayDist.constant(28.0))
    disp_inflation: DelayDist = field(default_factory=lambda: ZERO_DELAY)

    def _parts(self, contended: bool):
        """Fetch, inference and display, each as the delays it sums in
        convolution order; inflation applies only while stages overlap."""
        stages = ((self.fetch_exec, self.fetch_inflation),
                  (self.infer_cpu, self.infer_gpu, self.infer_inflation),
                  (self.disp_exec, self.disp_block, self.disp_inflation))
        return stages if contended else tuple(parts[:-1] for parts in stages)

    def fetch_delay_dist(self, contended: bool) -> DelayDist:
        return convolve_all(self._parts(contended)[0])

    def infer_delay_dist(self, contended: bool) -> DelayDist:
        return convolve_all(self._parts(contended)[1])

    def disp_delay_dist(self, contended: bool) -> DelayDist:
        return convolve_all(self._parts(contended)[2])

    def extremes(self, contended: bool) -> tuple[tuple[float, float], ...]:
        """(min, max) of each stage: the sums of its parts' minima and maxima."""
        return tuple((sum(d.min for d in parts), sum(d.max for d in parts))
                     for parts in self._parts(contended))


@dataclass(frozen=True)
class Vanilla:
    """Queued capture: driver fills a queue of `queue_size` frame buffers."""

    queue_size: int = 4

    name = "vanilla"
    theta = 0.0
    phased = False

    def __post_init__(self):
        if self.queue_size < 0:
            raise ValueError("queue_size: must be >= 0")
        if self.queue_size > sys.float_info.max:
            raise ValueError("queue_size: too large for a float")


@dataclass(frozen=True)
class OnDemand:
    """Queueless capture: each cycle requests exactly one fresh frame."""

    name = "on_demand"
    queue_size = 0
    theta = 0.0
    phased = False


@dataclass(frozen=True)
class ZeroSlack:
    """On-demand capture with the fetch release delayed by theta ms."""

    theta: float

    name = "zero_slack"
    queue_size = 0
    phased = False

    def __post_init__(self):
        if not (self.theta >= 0):
            raise ValueError("theta: must be >= 0")
        if not math.isfinite(self.theta):
            raise ValueError("theta: must be finite")


@dataclass(frozen=True)
class ContentionFree:
    """On-demand capture with inference serialized after fetch/display."""

    name = "contention_free"
    queue_size = 0
    theta = 0.0
    phased = True


# Every variant states the three facts the analysis and the simulator read:
# queue_size (Q; 0 for the queueless variants, which wait for a fresh
# frame), theta (the fetch release delay, ms) and phased (inference runs
# alone after fetch/display instead of the pipelined cycle).
PipelineVariant = Vanilla | OnDemand | ZeroSlack | ContentionFree


@dataclass(frozen=True)
class DetectorDelayBounds:
    """Bounds (ms) on retrieval-to-display latency for one variant."""

    s_min: float
    s_max: float
    b_fetch_min: float
    b_fetch_max: float
    d_detector_min: float
    d_detector_max: float
    clamped: bool


def service_distribution(p: StageProfile, variant: PipelineVariant) -> DelayDist:
    """Distribution of one detector cycle length when the fetch never
    waits for a frame; the bounds read only its extremes."""
    fetch, infer, disp = (convolve_all(parts) for parts in p._parts(not variant.phased))
    if variant.phased:
        return max_combine([fetch, disp]).convolve(infer)
    return max_combine([fetch.shift(variant.theta), infer, disp])


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


def detector_delay_bounds(
    p: StageProfile,
    variant: PipelineVariant,
    b_fetch_min: float = 0.0,
    b_fetch_max: float = 0.0,
) -> DetectorDelayBounds:
    """Closed-form bounds on the retrieval-to-display latency.

    Pipelined variants traverse two cycles plus the display stage; the
    phased (contention-free) variant needs one cycle plus the display. For
    the queueless variants, which wait for a fresh frame, the wait b_fetch
    is part of the camera-side accounting, so it is subtracted once here.
    The cycle extremes s_min and s_max put b_fetch at the matching end of
    its [min, max] range, which keeps the bounds valid even when blocking
    stretches some cycles beyond the pure execution maximum.
    """
    if b_fetch_min < 0 or b_fetch_max < b_fetch_min:
        raise ValueError("need 0 <= b_fetch_min <= b_fetch_max")
    (f_min, f_max), (i_min, i_max), (d_min, d_max) = p.extremes(not variant.phased)
    theta = variant.theta
    if variant.phased:
        cycles = 1
        s_min = max(f_min + b_fetch_min, d_min) + i_min
        s_max = max(f_max + b_fetch_max, d_max) + i_max
    else:
        cycles = 2
        s_min = max(f_min + b_fetch_min + theta, i_min, d_min)
        s_max = max(f_max + b_fetch_max + theta, i_max, d_max)
    subtract_b = variant.queue_size == 0

    lo = cycles * s_min + d_min - theta
    hi = cycles * s_max + d_max - theta
    if subtract_b:
        lo -= b_fetch_max
        hi -= b_fetch_min
    elif b_fetch_max > 0:
        # A queue that can run dry: the cycle that dequeues the frame may
        # spend almost everything on the wait, leaving only the fetch
        # execution part between retrieval and the cycle boundary.
        lo = min(lo, f_min + s_min + d_min)
    clamped = lo < 0
    return DetectorDelayBounds(
        s_min=s_min,
        s_max=s_max,
        b_fetch_min=b_fetch_min,
        b_fetch_max=b_fetch_max,
        d_detector_min=max(0.0, lo),
        d_detector_max=hi,
        clamped=clamped,
    )
