"""Queue regime classification and queuing delay bounds.

The relation between the frame arrival interval support and the
detector cycle range decides how the frame queue behaves: when
every arrival interval exceeds every cycle the queue stays empty and
frames are consumed on arrival; when every arrival interval is shorter
than every cycle the queue stays full and each frame waits for a full
drain of the buffers ahead of it; anything in between (including exact
ties) can alternate between those extremes.
"""

from dataclasses import dataclass
import enum

from .dist import DelayDist


class QueueRegime(enum.Enum):
    ARRIVAL_LIMITED = "arrival_limited"   # queue drains; detector waits for frames
    SERVICE_LIMITED = "service_limited"   # queue saturates; frames wait for the detector
    MIXED = "mixed"                       # occupancy can wander anywhere in between


@dataclass(frozen=True)
class QueueDelayBounds:
    queue_size: int
    d_queue_min: float
    d_queue_max: float


def classify(arrivals: DelayDist, s_min: float, s_max: float) -> QueueRegime:
    """Compare the arrival interval support with the cycle range [s_min,
    s_max], which comes from stage extremes only; ties count as MIXED."""
    if arrivals.min > s_max:
        return QueueRegime.ARRIVAL_LIMITED
    if arrivals.max < s_min:
        return QueueRegime.SERVICE_LIMITED
    return QueueRegime.MIXED


def queue_delay_bounds(
    regime: QueueRegime,
    queue_size: int,
    s_min: float,
    s_max: float,
    d_tran_min: float,
    d_tran_max: float,
    refill_gap_ms: float,
    urb_period_ms: float,
) -> QueueDelayBounds:
    """Bounds (ms) on the arrival-to-retrieval wait of an accepted frame.

    In the saturated regime a frame enters right after a retrieval makes
    room and leaves after queue_size further retrievals. The upper bound
    credits the transfer time that necessarily elapses before the frame
    is even present (minus one buffering period that may predate the
    cycle start); the lower bound charges the latest possible admission,
    `refill_gap_ms` (the longest wait for an admission opportunity after
    room appears, one capture interval in the idealized model) plus a
    full transfer. A queue of size zero never holds a frame.
    """
    if queue_size < 0:
        raise ValueError("queue_size must be >= 0")
    if queue_size == 0 or regime is QueueRegime.ARRIVAL_LIMITED:
        return QueueDelayBounds(queue_size, 0.0, 0.0)
    hi = max(0.0, queue_size * s_max - (d_tran_min - urb_period_ms))
    if regime is QueueRegime.MIXED:
        return QueueDelayBounds(queue_size, 0.0, hi)
    lo = max(0.0, queue_size * s_min - (d_tran_max + refill_gap_ms))
    return QueueDelayBounds(queue_size, min(lo, hi), hi)
