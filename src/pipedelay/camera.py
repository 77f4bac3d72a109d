"""Camera-side delay model: frame transfer over an isochronous USB link.

A frame of I bytes moves in ceil(I/B) data microframes plus a fixed
protocol overhead, each microframe lasting U ms. The host driver only
acts on completed buffer groups of M microframes, so every camera-side
instant (frame arrival, queuing decision) is quantized to the M*U grid.
That quantization is what turns the nominal capture interval C into the
two-point arrival interval distribution computed here.
"""

from dataclasses import dataclass
import math
import sys

import numpy as np

from .dist import DelayDist


@dataclass(frozen=True)
class CameraConfig:
    """Capture settings: rate (fps), resolution, and pixel depth (bits)."""

    frame_rate: float
    width: int
    height: int
    bits_per_pixel: int
    # Optional lower bound on appearance-to-capture latency (exposure floor).
    min_capture_delay: float = 0.0

    def __post_init__(self):
        if not (self.frame_rate > 0):
            raise ValueError("frame_rate: must be positive")
        if not math.isfinite(self.cycle_ms):
            raise ValueError(f"frame_rate: the capture interval 1000 / {self.frame_rate:g} "
                             "is not a finite number of ms")
        if self.width < 1:
            raise ValueError("width: must be positive")
        if self.height < 1:
            raise ValueError("height: must be positive")
        if self.bits_per_pixel < 1:
            raise ValueError("bits_per_pixel: must be positive")
        if self.min_capture_delay < 0:
            raise ValueError("min_capture_delay: must be >= 0")
        if self.min_capture_delay >= self.cycle_ms:
            raise ValueError("min_capture_delay: must be below the capture interval")

    @property
    def cycle_ms(self) -> float:
        """Capture interval C in ms (1000 / frame_rate)."""
        return 1000.0 / self.frame_rate


@dataclass(frozen=True)
class UsbLinkConfig:
    """Isochronous link: payload per microframe and driver buffering depth."""

    bytes_per_microframe: int
    urb_microframes: int
    microframe_ms: float = 0.125
    # Non-payload microframes added per frame by the transfer protocol.
    protocol_overhead_microframes: int = 2

    def __post_init__(self):
        if self.bytes_per_microframe < 1:
            raise ValueError("bytes_per_microframe: must be positive")
        if self.urb_microframes < 1:
            raise ValueError("urb_microframes: must be positive")
        if self.urb_microframes > sys.float_info.max:
            raise ValueError("urb_microframes: too large for a float")
        if not (self.microframe_ms > 0):
            raise ValueError("microframe_ms: must be positive")
        if self.protocol_overhead_microframes < 0:
            raise ValueError("protocol_overhead_microframes: must be >= 0")

    @property
    def urb_period_ms(self) -> float:
        """Driver buffering period M*U in ms."""
        return self.urb_microframes * self.microframe_ms


@dataclass(frozen=True)
class CameraDelayBounds:
    """Camera-side delay bounds in ms; *_max_exclusive are open on the right."""

    d_tran_min: float
    d_tran_max_exclusive: float
    d_capt_max_exclusive: float
    d_camera_min: float
    d_camera_max_exclusive: float


def frame_size(cam: CameraConfig) -> int:
    """Frame payload in bytes: width * height * bits_per_pixel / 8, rounded up."""
    bits = cam.width * cam.height * cam.bits_per_pixel
    return (bits + 7) // 8


def total_microframes(frame_bytes: int, usb: UsbLinkConfig) -> int:
    data = -(-frame_bytes // usb.bytes_per_microframe)
    return data + usb.protocol_overhead_microframes


def transfer_delay_bounds(frame_bytes: int, usb: UsbLinkConfig) -> tuple[float, float]:
    """[min, max) of the capture-to-queue transfer delay.

    The minimum is the pure transmission time of the frame's microframes,
    inf for more of them than a float can count; buffering can add
    anything below one full M*U period on top.
    """
    if frame_bytes < 1:
        raise ValueError("frame_bytes must be positive")
    n = total_microframes(frame_bytes, usb)
    lo = n * usb.microframe_ms if n <= sys.float_info.max else math.inf
    return lo, lo + usb.urb_period_ms


def arrival_distribution(cam: CameraConfig, usb: UsbLinkConfig) -> DelayDist:
    """Distribution of intervals between frame arrivals at the driver.

    Arrivals are snapped to the M*U buffering grid, so the interval takes
    only the two multiples of M*U that bracket C, mixed so the mean stays
    exactly C. A capture interval that is itself a multiple of M*U gives a
    single point.
    """
    c = cam.cycle_ms
    period = usb.urb_period_ms
    if c <= period:
        raise ValueError("capture interval must exceed the URB buffering period")
    ratio = c / period
    k = math.floor(ratio + 1e-9)
    frac = ratio - k
    if frac <= 1e-9:
        return DelayDist.constant(k * period)
    return DelayDist(
        np.array([k * period, (k + 1) * period]),
        np.array([1.0 - frac, frac]),
    )


def capture_delay_max(s_max: float, cam: CameraConfig, usb: UsbLinkConfig) -> float:
    """Exclusive upper bound on appearance-to-capture delay.

    While the detector is busy for up to s_max, arriving frames are turned
    away; with decision instants trailing captures by up to M*U, the
    longest stretch of unusable captures spans ceil((s_max + M*U) / C)
    capture intervals.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    c = cam.cycle_ms
    bound = math.ceil((s_max + usb.urb_period_ms) / c) * c
    if cam.min_capture_delay > 0:
        bound += math.ceil(cam.min_capture_delay / c) * c
    return bound


def camera_delay_bounds(cam: CameraConfig, usb: UsbLinkConfig, s_max: float) -> CameraDelayBounds:
    """End-to-end camera-side bounds: capture wait plus transfer."""
    tran_lo, tran_hi = transfer_delay_bounds(frame_size(cam), usb)
    capt_hi = capture_delay_max(s_max, cam, usb)
    return CameraDelayBounds(
        d_tran_min=tran_lo,
        d_tran_max_exclusive=tran_hi,
        d_capt_max_exclusive=capt_hi,
        d_camera_min=cam.min_capture_delay + tran_lo,
        d_camera_max_exclusive=capt_hi + tran_hi,
    )
