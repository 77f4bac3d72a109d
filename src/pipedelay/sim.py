"""Deterministic discrete-event simulation of the full pipeline.

Time is kept in integer nanoseconds so long runs cannot accumulate float
drift and simultaneous events order deterministically: queuing decisions
resolve before the retrieval that happens at the same instant.

Camera side: captures sit on the nominal capture grid; the transfer of
each frame is laid out on the global microframe grid (random phase per
run) and the driver only sees a frame once the buffer group holding its
last microframe completes. Queuing decisions fall at the end of the
buffer group holding the frame's first microframe. Both instants are
therefore quantized to the M*U grid, which reproduces the two-point
arrival interval behaviour of real UVC capture stacks.

Detector side: every variant runs the same cycle loop, a max-plus
recurrence in which each cycle lasts as long as its slowest stage. The
variants differ only in two things:

- Retrieval policy. Each cycle releases its fetch at its start plus the
  release delay (theta, zero-slack only). Every frame decided by then is
  admitted to the driver's FIFO of Q buffers (vanilla) or dropped when the
  FIFO is full; with Q = 0 (the queueless variants) every such frame is
  skipped. The fetch retrieves the FIFO head, or, when nothing is queued,
  the next frame on its arrival, so the queueless variants always get the
  first frame decided after the release.
- Cycle shape. The pipelined shape runs fetch/infer/display of three
  consecutive frames concurrently; stages pay their contention inflation
  in cycles where at least two of them are active. The phased
  (contention-free) shape runs fetch and display together and then
  inference alone, all uncontended.
"""

from collections import deque
from dataclasses import dataclass
import math

import numpy as np

from .camera import CameraConfig, UsbLinkConfig, frame_size, total_microframes
from .detector import PipelineVariant, StageProfile
from .dist import DelayDist

_MS = 1_000_000  # ns per ms
_CHUNK = 4096
_NEVER = 1 << 62  # ns, later than any event of a run


@dataclass(frozen=True)
class SimConfig:
    camera: CameraConfig
    usb: UsbLinkConfig
    profile: StageProfile
    variant: PipelineVariant
    duration_ms: float
    seed: int
    n_objects: int = 200
    object_times_ms: tuple[float, ...] | None = None
    # Objects are injected uniformly over this leading fraction of the run
    # so the pipeline can drain everything they touch.
    object_window_frac: float = 0.8
    capture_jitter_ms: float = 0.0
    trace: bool = False

    def __post_init__(self):
        if not (self.duration_ms > 0):
            raise ValueError("duration_ms must be positive")
        if self.n_objects < 0:
            raise ValueError("n_objects must be >= 0")
        if not (0.0 < self.object_window_frac <= 1.0):
            raise ValueError("object_window_frac must be in (0, 1]")
        if self.capture_jitter_ms < 0:
            raise ValueError("capture_jitter_ms must be >= 0")
        if self.capture_jitter_ms > 0.4 * self.camera.cycle_ms:
            raise ValueError("capture jitter too large for the capture interval")


@dataclass
class SimResult:
    """Everything a run produced, in ms unless suffixed otherwise."""

    variant_name: str
    seed: int
    duration_ms: float

    # Camera stream, one entry per captured frame.
    capture_ms: np.ndarray
    decision_ms: np.ndarray
    delivery_ms: np.ndarray

    # Retrieved frames, in retrieval order.
    fetched_frames: np.ndarray       # frame indices
    dequeue_ms: np.ndarray
    b_fetch_ms: np.ndarray
    admit_ahead: np.ndarray          # queue depth seen at admission
    queue_delays: np.ndarray         # delivery -> retrieval wait
    detector_delays: np.ndarray      # retrieval -> display completion
    display_end_ms: np.ndarray
    steady_frame_mask: np.ndarray    # full pipeline on both sides

    # Cycles.
    cycle_start_ms: np.ndarray
    cycle_times: np.ndarray          # all cycle lengths
    cycle_steady_mask: np.ndarray    # every pipeline slot occupied

    # Queue occupancy (time, depth) at each change; empty for queueless variants.
    occupancy_ms: np.ndarray
    occupancy_depth: np.ndarray
    first_full_ms: float | None

    # Injected objects.
    object_times: np.ndarray
    object_frame: np.ndarray         # capturing frame index, -1 if never captured
    e2e_delays: np.ndarray           # NaN where the object was never displayed
    camera_delays: np.ndarray        # appearance -> delivery, NaN where missed
    objects_missed: int

    drops: int
    frames_captured: int
    per_stage_busy: dict
    warnings: list
    trace: list | None

    @property
    def frames_fetched(self) -> int:
        return len(self.fetched_frames)

    @property
    def arrival_intervals(self) -> np.ndarray:
        """Intervals between successive frame deliveries to the driver."""
        return np.diff(self.delivery_ms)

    def mean_cycle_ms(self) -> float:
        steady = self.cycle_times[self.cycle_steady_mask]
        return float(steady.mean()) if len(steady) else float("nan")

    def detected_e2e(self) -> np.ndarray:
        return self.e2e_delays[~np.isnan(self.e2e_delays)]

    def e2e_mean_p99(self) -> tuple[float, float]:
        """Mean and 99th percentile of the detected end-to-end delays, NaN
        when no object was detected."""
        e2e = self.detected_e2e()
        if not len(e2e):
            return float("nan"), float("nan")
        return float(e2e.mean()), float(np.percentile(e2e, 99))


class _Sampler:
    """Chunk-buffered ns-valued draws from one DelayDist."""

    __slots__ = ("const", "vals", "cum", "rng", "buf", "pos")

    def __init__(self, dist: DelayDist, rng: np.random.Generator):
        vals = np.rint(dist.values * _MS).astype(np.int64)
        if len(vals) == 1:
            self.const = int(vals[0])
        else:
            self.const = None
            self.vals = vals
            self.cum = np.cumsum(dist.probs)
            self.rng = rng
            self.buf = []
            self.pos = 0

    def draw(self) -> int:
        if self.const is not None:
            return self.const
        if self.pos >= len(self.buf):
            idx = np.searchsorted(self.cum, self.rng.random(_CHUNK), side="right")
            np.clip(idx, 0, len(self.vals) - 1, out=idx)
            self.buf = self.vals[idx].tolist()
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


def _camera_timeline(cfg: SimConfig, rng: np.random.Generator):
    """Capture, queuing-decision, and delivery instants (ns) per frame."""
    cam, usb = cfg.camera, cfg.usb
    cycle_ns = cam.cycle_ms * _MS
    n_frames = math.ceil(cfg.duration_ms * _MS / cycle_ns)
    capture = np.rint(np.arange(n_frames) * cycle_ns).astype(np.int64)
    if cfg.capture_jitter_ms > 0:
        j = int(round(cfg.capture_jitter_ms * _MS))
        capture = capture + rng.integers(-j, j + 1, n_frames)
        capture[0] = max(capture[0], 0)
        if np.any(np.diff(capture) <= 0):
            raise ValueError("capture jitter produced out-of-order captures")

    u_ns = int(round(usb.microframe_ms * _MS))
    urb_ns = u_ns * usb.urb_microframes
    if cam.cycle_ms <= usb.urb_period_ms:
        raise ValueError("capture interval must exceed the URB buffering period")
    phase = int(rng.integers(0, urb_ns))
    n_micro = total_microframes(frame_size(cam), usb)

    rel = capture - phase
    start = phase + u_ns * -(-rel // u_ns)        # next microframe boundary
    end_tx = start + n_micro * u_ns
    decision = phase + urb_ns * ((start - phase) // urb_ns + 1)
    delivery = phase + urb_ns * -(-(end_tx - phase) // urb_ns)
    return capture, decision, delivery


@dataclass
class _Samplers:
    fetch_c: _Sampler
    fetch_u: _Sampler
    infer_c: _Sampler
    infer_u: _Sampler
    disp_c: _Sampler
    disp_u: _Sampler


def _make_samplers(profile: StageProfile, ss: np.random.SeedSequence) -> _Samplers:
    children = ss.spawn(6)
    rngs = [np.random.default_rng(c) for c in children]
    return _Samplers(
        fetch_c=_Sampler(profile.fetch_delay_dist(True), rngs[0]),
        fetch_u=_Sampler(profile.fetch_delay_dist(False), rngs[1]),
        infer_c=_Sampler(profile.infer_delay_dist(True), rngs[2]),
        infer_u=_Sampler(profile.infer_delay_dist(False), rngs[3]),
        disp_c=_Sampler(profile.disp_delay_dist(True), rngs[4]),
        disp_u=_Sampler(profile.disp_delay_dist(False), rngs[5]),
    )


def _run_cycles(decision, delivery, queue_size, theta_ns, phased, sam: _Samplers, trace):
    """The detector cycle loop of every variant (see the module docstring).

    `decision` and `delivery` are per-frame instants in ns; `queue_size`
    is the FIFO size Q (0 for the queueless variants), `theta_ns` the fetch
    release delay, and `phased` selects the contention-free cycle shape.
    """
    n_frames = len(decision)
    decision = decision + [_NEVER]   # sentinel: the admission loops need no bounds check
    queue = deque()                  # (frame, queue depth at admission)
    ptr = 0
    now = 0
    infer_f = -1
    disp_f = -1
    display_end = [-1] * n_frames
    fetched = []
    dequeue = []
    ahead = []
    bfetch = []
    cyc_start = []
    cyc_len = []
    cyc_steady = []
    occ_t = []
    occ_d = []
    drops = 0
    busy = [0, 0, 0]
    drop_event = "drop" if queue_size else "skip"
    full_slots = 2 if phased else 3

    def admit(until):
        """Admit, in order, every frame decided at or before `until`: accept
        while the queue has room, then drop the rest (the queue only drains
        at retrievals, so once full it stays full here)."""
        nonlocal ptr, drops
        k = ptr
        if decision[k] > until:
            return
        depth = len(queue)
        while depth < queue_size and decision[k] <= until:
            queue.append((k, depth))
            depth += 1
            occ_t.append(decision[k])
            occ_d.append(depth)
            if trace is not None:
                trace.append((decision[k], "accept", k, depth))
            k += 1
        first_drop = k
        while decision[k] <= until:
            if trace is not None:
                trace.append((decision[k], drop_event, k, queue_size))
            k += 1
        drops += k - first_drop
        ptr = k

    while True:
        release = now + theta_ns
        admit(release)
        head = -1
        if queue:
            head = queue[0][0]
        elif ptr < n_frames:
            # Starved: the next frame to be decided is taken on arrival. With
            # a queue it still passes through it: the admission below accepts it.
            head = ptr
            if not queue_size:
                ptr += 1
        if head >= 0:
            deq = delivery[head]
            if deq < release:
                deq = release
            # Decisions up to the retrieval instant still see the head in place.
            admit(deq)
            depth = 0
            if queue_size:
                depth = queue.popleft()[1]
                occ_t.append(deq)
                occ_d.append(len(queue))
            if trace is not None:
                trace.append((deq, "retrieve", head, len(queue)))
            fetched.append(head)
            dequeue.append(deq)
            ahead.append(depth)
            bfetch.append(deq - release)

        n_active = (head >= 0) + (infer_f >= 0) + (disp_f >= 0)
        if n_active == 0:
            break
        contended = n_active >= 2 and not phased
        longest = 0
        if head >= 0:
            e = (sam.fetch_c if contended else sam.fetch_u).draw()
            busy[0] += e
            longest = (deq + e) - now
        if infer_f >= 0:
            stage = (sam.infer_c if contended else sam.infer_u).draw()
            busy[1] += stage
            if stage > longest:
                longest = stage
        if disp_f >= 0:
            stage = (sam.disp_c if contended else sam.disp_u).draw()
            busy[2] += stage
            display_end[disp_f] = now + stage
            if stage > longest:
                longest = stage
        cyc_start.append(now)
        cyc_steady.append(n_active == full_slots)
        if phased:
            # Inference of this cycle's frame runs alone after fetch and display.
            if head >= 0:
                stage = sam.infer_u.draw()
                busy[1] += stage
                longest += stage
            disp_f = head
        else:
            disp_f = infer_f
            infer_f = head
        cyc_len.append(longest)
        now += longest

    return dict(
        fetched=fetched, bfetch=bfetch, dequeue=dequeue, display_end=display_end,
        ahead=ahead, cyc_start=cyc_start, cyc_len=cyc_len, cyc_steady=cyc_steady,
        occ_t=occ_t, occ_d=occ_d, drops=drops,
        busy=busy, end=now,
    )


def run(cfg: SimConfig) -> SimResult:
    """Simulate one scenario; identical configs give identical results."""
    ss = np.random.SeedSequence(cfg.seed)
    ss_cam, ss_obj, ss_stages = ss.spawn(3)
    rng_cam = np.random.default_rng(ss_cam)

    capture, decision, delivery = _camera_timeline(cfg, rng_cam)
    n_frames = len(capture)
    trace: list | None = [] if cfg.trace else None
    if trace is not None:
        for k in range(n_frames):
            trace.append((int(capture[k]), "capture", k, 0))

    sam = _make_samplers(cfg.profile, ss_stages)
    dec_list = decision.tolist()
    del_list = delivery.tolist()

    variant = cfg.variant
    queue_size, phased = variant.queue_size, variant.phased
    theta_ns = int(round(variant.theta * _MS))
    state = _run_cycles(dec_list, del_list, queue_size, theta_ns, phased, sam, trace)

    fetched = np.asarray(state["fetched"], dtype=np.int64)
    n_fetched = len(fetched)
    warnings: list[str] = []
    if n_fetched == 0:
        warnings.append("no frame was ever retrieved; run too short")

    dequeue_ns = np.asarray(state["dequeue"], dtype=np.int64)
    display_end_all = np.asarray(state["display_end"], dtype=np.int64)
    disp_ns = display_end_all[fetched] if n_fetched else np.zeros(0, dtype=np.int64)
    b_ns = np.asarray(state["bfetch"], dtype=np.int64)
    occ_ns = np.asarray(state["occ_t"], dtype=np.int64)
    occ_depth = np.asarray(state["occ_d"], dtype=np.int64)
    full = np.flatnonzero(occ_depth == queue_size)

    # Frames with a fully occupied pipeline on both sides of their journey;
    # analytical steady-state bounds apply to these.
    steady = np.zeros(n_fetched, dtype=bool)
    if phased:
        steady[1:] = True
    else:
        if n_fetched > 3:
            steady[2:n_fetched - 1] = True

    # Map objects to the first retrieved frame captured at or after their
    # appearance (plus the configured exposure floor).
    if cfg.object_times_ms is not None:
        obj_ns = np.rint(np.asarray(sorted(cfg.object_times_ms), dtype=np.float64) * _MS).astype(np.int64)
        if len(obj_ns) and (obj_ns[0] < 0 or obj_ns[-1] >= cfg.duration_ms * _MS):
            raise ValueError("object times must lie within the run duration")
    else:
        rng_obj = np.random.default_rng(ss_obj)
        window = cfg.duration_ms * cfg.object_window_frac * _MS
        obj_ns = np.sort(rng_obj.integers(0, max(1, int(window)), cfg.n_objects))
    floor_ns = int(round(cfg.camera.min_capture_delay * _MS))
    fetched_captures = capture[fetched] if n_fetched else np.zeros(0, dtype=np.int64)
    pos = np.searchsorted(fetched_captures, obj_ns + floor_ns, side="left")
    hit = pos < n_fetched
    e2e = np.full(len(obj_ns), np.nan)
    cam_delay = np.full(len(obj_ns), np.nan)
    if n_fetched:
        object_frame = np.where(hit, fetched[np.minimum(pos, n_fetched - 1)], -1)
        hit_frames = object_frame[hit]
        e2e[hit] = (display_end_all[hit_frames] - obj_ns[hit]) / _MS
        cam_delay[hit] = (delivery[hit_frames] - obj_ns[hit]) / _MS
    else:
        object_frame = np.full(len(obj_ns), -1, dtype=np.int64)
    missed = int(len(obj_ns) - hit.sum())

    span_ns = state["end"]
    busy = state["busy"]
    per_stage_busy = {
        "fetch": busy[0] / span_ns if span_ns else 0.0,
        "infer": busy[1] / span_ns if span_ns else 0.0,
        "display": busy[2] / span_ns if span_ns else 0.0,
    }

    if trace is not None:
        trace.sort(key=lambda ev: (ev[0], ev[1], ev[2]))

    return SimResult(
        variant_name=cfg.variant.name,
        seed=cfg.seed,
        duration_ms=cfg.duration_ms,
        capture_ms=capture / _MS,
        decision_ms=decision / _MS,
        delivery_ms=delivery / _MS,
        fetched_frames=fetched,
        dequeue_ms=dequeue_ns / _MS,
        b_fetch_ms=b_ns / _MS,
        admit_ahead=np.asarray(state["ahead"], dtype=np.int64),
        queue_delays=(dequeue_ns - delivery[fetched]) / _MS if n_fetched else np.zeros(0),
        detector_delays=(disp_ns - dequeue_ns) / _MS if n_fetched else np.zeros(0),
        display_end_ms=disp_ns / _MS,
        steady_frame_mask=steady,
        cycle_start_ms=np.asarray(state["cyc_start"], dtype=np.int64) / _MS,
        cycle_times=np.asarray(state["cyc_len"], dtype=np.int64) / _MS,
        cycle_steady_mask=np.asarray(state["cyc_steady"], dtype=bool),
        occupancy_ms=occ_ns / _MS,
        occupancy_depth=occ_depth,
        first_full_ms=int(occ_ns[full[0]]) / _MS if len(full) else None,
        object_times=obj_ns / _MS,
        object_frame=object_frame,
        e2e_delays=e2e,
        camera_delays=cam_delay,
        objects_missed=missed,
        drops=state["drops"],
        frames_captured=n_frames,
        per_stage_busy=per_stage_busy,
        warnings=warnings,
        trace=trace,
    )
