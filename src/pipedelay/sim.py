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

Draw schedule. Only the fetch term of a cycle depends on the recurrence
state, through the retrieval instant. Which stages run in a cycle, and so
whether they run contended, depends only on the cycle index n and the
number F of frames fetched: a cycle fetches while a frame is left, and
once the FIFO and the camera run dry they stay dry, so cycles 0..F-1 fetch
and the cycles after them drain the pipeline. Counting each stream's draws
from 0:

- Pipelined shape: cycle n fetches frame n, infers frame n-1 and displays
  frame n-2. Cycle 0 fetches alone, uncontended. Cycle n in 1..F-1 runs at
  least two stages and reads contended fetch n-1, inference n-1 and display
  n-2. Drain cycle F reads contended inference F-1 and display F-2, except
  that with F = 1 it only infers, uncontended. Drain cycle F+1 only
  displays, uncontended.
- Phased shape: nothing is contended. Cycle n reads fetch n, inference n
  and display n-1; drain cycle F only displays.

The loop carries the recurrence state only: the cycle start t, the next
undecided frame and the FIFO. With h_n the frame cycle n fetches (its
head) and f_n, o_n, a_n its fetch, slowest other stage and phased
inference (else 0), the cycle length max(deq + f - t, o) + a with deq =
max(delivery[h], t + theta) gives

    t_{n+1} = max(t_n + alpha_n, beta_n),
    alpha_n = max(theta + f_n, o_n) + a_n,  beta_n = delivery[h_n] + f_n + a_n,

where delivery[h_n] may stand in for deq, as t_n + alpha_n >= t_n + theta +
f_n + a_n. So `run` turns each chunk of the streams into the alpha_n and
f_n + a_n of the cycles that read it with numpy before the loop, along with
o_n, which only the first drain cycle reads, and adds the drain cycles
after the loop.

Given the heads, a block of cycles is solved exactly in max-plus algebra
(Baccelli et al., Synchronization and Linearity, 1992): with S_n the sum
of alpha_0 .. alpha_{n-1}, t_n = S_n + max(t_0, max over j < n of
beta_j - S_{j+1}), one cumsum and one maximum.accumulate. The arithmetic
is int64 ns throughout, so the cycle lengths are the loop's, bit for bit.
The heads depend on t, so the block path guesses them, solves, checks the
guess and keeps the longest verified prefix; the cycle that fails, and the
run's end, go through the per-cycle loop.

One heads rule, picked by Q, gives the heads the loop takes at given
instants, each exact once the heads before it are the loop's. With a FIFO
(Q >= 1) it is the admission walk at the retrieval instants deq: the FIFO
occupancy steps +1 at each decision and -1 at each retrieval, clipped at
Q, where a clipped step is a drop: Lindley's recursion (Lindley, Proc.
Camb. Phil. Soc. 48, 1952), one running maximum over the retrievals.
Without one, head n is the first frame decided after release n.

There are two guesses, and each only gives the starting heads:

- The fetch never binds (detector-limited runs): the heads rule at the
  releases t_0 + S + theta, where the retrievals from a FIFO fall too.
- No frame is dropped or skipped (arrival-limited and frame-locked runs,
  and FIFO runs that drop and starve in turn): the queued frames, then
  consecutive ones.

One verifier checks every block, in one pass: heads -> t -> deq_n =
max(delivery[h_n], t_n + theta) -> the heads rule's heads, keeping the
prefix on which the rule returns the heads t was solved from. Whatever the
starting heads, that prefix and the loop state after it are the loop's by
causality (see `_solve_block`).

A predictor picks the path. After each per-cycle stretch it reads the
stretch's second half, at most its last 64 cycles: consecutive heads point
to the no-drop guess, and cycles that all lasted alpha (their sum is the
alpha sum, as no cycle is shorter) with max(Q - 1, 0) frames left in the
FIFO point to the fetch-never-binds guess. With a FIFO, any other
stretch points to the no-drop guess too; without one the next stretch
doubles instead, up to 4096 cycles. A block runs to the end of its draw
chunk. One that verifies in full sets the stretch back to 64, and the next
chunk opens with a block of the same guess; one that keeps fewer than 32
cycles doubles the stretch. contention_free, whose every fetch waits on the
frame it skipped to, stays per-cycle almost entirely. Like the draw
schedule, the path never changes a result: every cycle a block keeps is one
the loop would have run with the same head and length.

The per-cycle loop steps the same recurrence one cycle at a time, and
passes over frames dropped at a full FIFO, or skipped by a queueless
variant, with forward scans of the decision instants: the next undecided
frame never moves back, so the scans take one step per frame, O(frames)
over a run. It reads the instants from lists that hold the frames from
the FIFO head (or the next undecided frame) at the last fill on, filled
once per stretch up to a reach bounded from its draws, so a run solved in
blocks converts few of them and a run that stays per-cycle holds few of
them at a time. Both paths record the fetched frames and the cycle
lengths as int64 pieces; the rest of the result is derived from these
after the loop, through the cycle starts and display ends, in linear
time: one stable sort merges the accepts and retrievals into the FIFO
depths (see `_occupancy`). Each field in ms replaces its ns source, of
the same size, as it is built, so the conversions hold at most one array
beyond the result. A traced run keeps its events as columns (see
`Trace`), ordered by one lexsort of the time, kind code and frame
columns, with no Python object per event.

Stage delays come from six seeded draw streams, one per stage, contended
and uncontended. Each draws in chunks of 64 values at first, doubling up
to 4096, so a short run draws little more than it reads; the values a
stream yields do not depend on the chunk sizes. A draw is one uniform,
turned into a support index through the distribution's guide table (see
`DelayDist._index`), which returns exactly the index a binary search of
the cumulative probabilities gives, in about constant time per value. Each
stream rounds its support values to int64 ns once and yields the entries
at the drawn indices; rounding a draw's ms value gives the same entry, so
no value changes.

Common random numbers. Runs with one seed see the same captures and the
same stage draws whatever their variant, which pairs a comparison of
variants. `run(cfg, shared)` builds them once for the runs given one dict,
which the caller makes for one command (see `run` for the keys). A shared
stream replays the chunks drawn so far, in the sizes they were drawn, and
draws on past them, so each run reads exactly the chunks of fresh streams
and the block and loop paths, which follow the chunk ends, take the same
course. The shared arrays are read-only.
"""

from collections import deque
from dataclasses import dataclass, fields
import math
from typing import ClassVar

import numpy as np

from .camera import (CameraConfig, UsbLinkConfig, frame_size, total_microframes,
                     transfer_delay_bounds)
from .detector import PipelineVariant, StageProfile
from .dist import DelayDist

_MS = 1_000_000  # ns per ms
# A stream's draw chunks double from _FIRST_CHUNK up to _CHUNK values.
_FIRST_CHUNK = 64
_CHUNK = 4096
_NEVER = 1 << 62  # ns, later than any event of a run
# Objects are injected uniformly over this leading fraction of the run so
# the pipeline can drain everything they touch.
_OBJECT_WINDOW_FRAC = 0.8


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
    capture_jitter_ms: float = 0.0
    trace: bool = False

    def __post_init__(self):
        # Every setting a run depends on is checked here, so any SimConfig
        # that constructs can run; each error starts with the field's name,
        # a dotted path for a nested field.
        cycle_ms, period_ms = self.camera.cycle_ms, self.usb.urb_period_ms
        jitter = self.capture_jitter_ms
        if not (self.duration_ms > 0):
            raise ValueError("duration_ms: must be positive")
        if self.seed < 0:
            raise ValueError("seed: must be >= 0")
        if self.n_objects < 0:
            raise ValueError("n_objects: must be >= 0")
        if self.n_objects > np.iinfo(np.intp).max:
            raise ValueError(f"n_objects: more than the {np.iinfo(np.intp).max} an array can hold")
        # Arrivals need a capture interval above the USB buffering period.
        if cycle_ms <= period_ms:
            raise ValueError(f"camera.frame_rate: capture interval {cycle_ms:g} ms must "
                             f"exceed the USB buffering period {period_ms:g} ms")
        # The clock counts whole ns, so the microframe must be one (to within
        # the float rounding of its ms value), as `analyze` reads it exactly.
        u_ns = self.usb.microframe_ms * _MS
        if not abs(u_ns - round(u_ns, 0)) <= 1e-12 * u_ns:
            raise ValueError(f"usb.microframe_ms: {u_ns:g} ns is not a whole number of ns")
        # Jittered captures stay in order only for jitter up to 0.4 C. On the
        # ns grid captures lie at least floor(C) ns apart (C ns when C is
        # whole), so a jitter of j ns keeps them in order only while 2j is
        # below that, that is while 2j + 1 <= C.
        if jitter < 0:
            raise ValueError("capture_jitter_ms: must be >= 0")
        if jitter > 0.4 * cycle_ms:
            raise ValueError(f"capture_jitter_ms: {jitter:g} ms exceeds 0.4 of the "
                             f"{cycle_ms:g} ms capture interval")
        if 2 * round(jitter * _MS, 0) + 1 > cycle_ms * _MS:
            raise ValueError(f"capture_jitter_ms: {jitter:g} ms can swap captures on the ns grid")
        if self.object_times_ms is not None:
            obj_ns = np.rint(np.asarray(self.object_times_ms, dtype=np.float64) * _MS)
            if not np.all((obj_ns >= 0) & (obj_ns < self.duration_ms * _MS)):
                raise ValueError("object_times_ms: must lie within the run duration")
        # Every instant of a run must stay below the clock's _NEVER. The last
        # delivery comes within the jitter, one microframe and the longest
        # frame transfer (set by the camera's frame size and the usb link)
        # after the run's end; the loop runs at most one cycle per capture
        # (below duration / C + 1) and two to drain, and no cycle outlasts
        # theta plus every contended stage maximum (the phased shape runs its
        # stages in turn). The error names the largest term, the transfer
        # as "transfer".
        p = self.profile
        terms = {"variant.theta": self.variant.theta,
                 **{f"profile.{f.name}": getattr(p, f.name).max for f in fields(p)}}
        _, tran_max = transfer_delay_bounds(frame_size(self.camera), self.usb)
        last_ms = self.duration_ms + jitter + self.usb.microframe_ms + tran_max
        cycles = self.duration_ms / cycle_ms + 3
        if not (last_ms + cycles * sum(terms.values())) * _MS < _NEVER:
            key, ms = max({**terms, "duration_ms": self.duration_ms,
                           "transfer": tran_max}.items(), key=lambda t: t[1])
            raise ValueError(f"{key}: {ms:g} ms can end the run past the simulator "
                             f"clock's {_NEVER / _MS:g} ms")


@dataclass(frozen=True, eq=False)
class Trace:
    """A run's events as columns, sorted by time, kind and frame: the int64
    instant in ns, the kind as its int8 index in `KINDS`, the int64 frame
    and the int64 detail, which is the FIFO depth after an accept or a
    retrieval, Q for a drop or skip and 0 for a capture. The kinds are
    numbered in alphabetical order, so the columns sort as the event tuples
    do. `len()` counts the events, and iteration yields each as a (time_ns,
    kind name, frame, detail) tuple of Python values."""

    KINDS: ClassVar[tuple[str, ...]] = ("accept", "capture", "drop", "retrieve", "skip")

    time_ns: np.ndarray
    kind: np.ndarray
    frame: np.ndarray
    detail: np.ndarray

    def __len__(self) -> int:
        return len(self.time_ns)

    def __iter__(self):
        return zip(self.time_ns.tolist(), self.kind_names(), self.frame.tolist(),
                   self.detail.tolist())

    def kind_names(self) -> list[str]:
        """The name of each event's kind."""
        return np.array(self.KINDS, dtype=object)[self.kind].tolist()


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
    steady_frame_mask: np.ndarray    # full pipeline on both sides

    # Cycles, back to back from 0: each starts at the sum of the lengths
    # before it.
    cycle_times: np.ndarray          # all cycle lengths
    cycle_steady_mask: np.ndarray    # every pipeline slot occupied

    # The instant of the first accept that fills the FIFO, None if none
    # does; the trace's accepts and retrievals give the whole occupancy.
    first_full_ms: float | None

    # Injected objects.
    object_frame: np.ndarray         # capturing frame index, -1 if never captured
    e2e_delays: np.ndarray           # NaN where the object was never displayed
    camera_delays: np.ndarray        # appearance -> delivery, NaN where missed
    objects_missed: int

    drops: int
    frames_captured: int
    warnings: list
    trace: Trace | None              # the events, with SimConfig.trace

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


def _chunks(dist: DelayDist, rng: np.random.Generator):
    """Endless ns-valued int64 draws from one DelayDist, in chunks of
    `_FIRST_CHUNK` values doubling up to `_CHUNK`. `rng.random(a)` then
    `rng.random(b)` gives the values of `rng.random(a + b)`, and the rest
    of a draw works value by value, so the values do not depend on the
    chunk sizes. Each draw picks its support value's ns entry, rounded once
    per stream, which is the value rounding the draw's ms value gives."""
    ns = np.rint(dist.values * _MS).astype(np.int64)
    n = _FIRST_CHUNK
    while True:
        yield np.full(n, ns[0]) if len(ns) == 1 else ns[dist.sample_index(rng, n)]
        n = min(2 * n, _CHUNK)


def _delayed(chunks, head: np.ndarray):
    """The values of `chunks` behind the values `head`, in chunks of the
    same sizes: value n of the result is value n - len(head) of `chunks`."""
    for c in chunks:
        k = len(c) - len(head)
        yield np.concatenate((head, c[:k]))
        head = c[k:]


def _camera_timeline(cfg: SimConfig, rng: np.random.Generator):
    """Capture, queuing-decision, and delivery instants (ns) per frame; the
    decision and delivery arrays end with one more slot holding `_NEVER`,
    the sentinel `_run_cycles` reads."""
    cam, usb = cfg.camera, cfg.usb
    cycle_ns = cam.cycle_ms * _MS
    n_frames = math.ceil(cfg.duration_ms * _MS / cycle_ns)
    # A last slot, at 0, gives the sentinel its place.
    capture = np.zeros(n_frames + 1, dtype=np.int64)
    capture[:-1] = np.rint(np.arange(n_frames) * cycle_ns)
    if cfg.capture_jitter_ms > 0:
        j = int(round(cfg.capture_jitter_ms * _MS))
        capture[:-1] += rng.integers(-j, j + 1, n_frames)
        capture[0] = max(capture[0], 0)

    u_ns = int(round(usb.microframe_ms * _MS))
    urb_ns = u_ns * usb.urb_microframes
    phase = int(rng.integers(0, urb_ns))
    n_micro = total_microframes(frame_size(cam), usb)

    rel = capture - phase
    start = phase + u_ns * -(-rel // u_ns)        # next microframe boundary
    end_tx = start + n_micro * u_ns
    decision = phase + urb_ns * ((start - phase) // urb_ns + 1)
    delivery = phase + urb_ns * -(-(end_tx - phase) // urb_ns)
    decision[-1] = delivery[-1] = _NEVER
    return capture[:-1], decision, delivery


def _max_plus(now, alpha_sum, arrival, lag):
    """The starts t_0 .. t_w of the cycles whose heads arrive at `arrival`,
    from the alpha sums S_0 .. S_w: t_n = S_n + max(t_0, max over j < n of
    beta_j - S_{j+1}), where beta_j - S_{j+1} = arrival_j + lag_j."""
    return alpha_sum + np.maximum.accumulate(np.concatenate(([now], arrival + lag)))


def _admitted(decision, dequeue, queue_size, queued, ptr):
    """The admission walk: the `queued` frames, then the frames from `ptr`
    on that a FIFO of `queue_size` buffers admits when the retrievals fall
    at the nondecreasing instants `dequeue`, through the last frame decided
    by the last of them.

    A frame decided at a retrieval instant still finds that retrieval's
    head in its buffer, so frame k (counted from 1 at `ptr`) sees the r_k
    retrievals strictly before it. The room left after it, Z_k = max(0,
    Z_{k-1} + r_k - r_{k-1} - 1) from Z_0 = Q - len(queued), is Lindley's
    recursion: Z_k = s_k + max(Z_0, max over j <= k of -s_j) with s_k =
    r_k - k, so frame k finds no room, and is dropped, exactly where k - r_k
    exceeds the maximum before it.

    Solved per retrieval: let E_n count the frames from `ptr` decided by
    dequeue[n], and E_{-1} = 0. The frames k in (E_{n-1}, E_n] see r_k = n,
    so k - r_k rises by 1 per frame within them and they admit a prefix:
    with R_n = max(R_{n-1}, E_n - n) from R_{-1} = Z_0, interval n admits
    the frames k in (E_{n-1}, min(E_n, R_{n-1} + n)].

    So the walk drops nothing exactly when every E_n - n is at most Z_0, the
    running maximum never rising: then it admits every frame decided by the
    last retrieval.
    """
    ends = np.searchsorted(decision[ptr:], dequeue, "right")
    n = np.arange(len(dequeue))
    rise = ends - n
    if len(rise) and rise.max() <= queue_size - len(queued):
        return np.concatenate((queued, ptr + np.arange(ends[-1])))
    room = np.maximum.accumulate(np.concatenate(([queue_size - len(queued)], rise)))
    first = np.concatenate(([0], ends[:-1]))
    count = np.minimum(ends, room[:-1] + n) - first
    frames = np.arange(count.sum()) + np.repeat(ptr + first - np.cumsum(count) + count, count)
    return np.concatenate((queued, frames))


def _heads(decision, instants, queue_size, queued, ptr):
    """The heads rule (see `_solve_block`): with a FIFO, the frames the
    admission walk admits at the retrievals `instants`; without one, the
    first frame from `ptr` on decided after each release in `instants`."""
    if queue_size:
        return _admitted(decision, instants, queue_size, queued, ptr)
    return np.maximum(ptr, np.searchsorted(decision, instants, "right"))


def _solve_block(guess, decision, delivery, queue_size, theta_ns,
                 now, ptr, queue, alpha, tail):
    """Solve the next cycles as one block from one guess of their heads
    (see the module docstring) and keep the prefix that verifies.

    `guess` is "never_binds" (the fetch never binds) or "no_drop" (no frame
    is dropped or skipped).
    `decision` and `delivery` end with a `_NEVER` sentinel; `now`, `ptr` and
    `queue` are the loop state before the block, and `alpha` and `tail`
    are its cycles' alpha_n and f_n + a_n. Returns the verified prefix's
    fetched frames and cycle lengths as int64 arrays and the loop state
    after it.

    The block has a cycle for each of its draws, up to one per frame left.
    Its heads H are the no-drop guess, or, when the fetch never binds, the
    heads rule's at the releases t_0 + S + theta, followed by consecutive
    frames where they are fewer than the block's cycles; a head past the
    last frame is the sentinel. It solves t from H, sets deq_n =
    max(delivery[H_n], t_n + theta), takes the rule's heads N at deq with a
    FIFO, at the releases t + theta without one (the rule's first heads if
    they were taken at those instants), and keeps the prefix on which N = H
    and lies before the sentinel. Whatever H is, deq never
    decreases, as t_{n+1} >= max(t_n + theta, delivery[H_n]) >= deq_n.
    On the prefix every head is the loop's, by induction on n: let heads
    0 .. n-1 of H be the loop's. Then t_0 .. t_n and deq_0 .. deq_{n-1} are
    the loop's, and deq_m >= t_n + theta = release_n for m >= n. With a
    FIFO the loop's head n is the FIFO head, decided by release_n, or, with
    the FIFO empty at release_n, the first frame decided after it. Every
    frame up to the first case's head is decided by release_n, so it sees
    no retrieval m >= n and the walk admits it as the loop did. In the
    second case the frames before the head are those, and the head itself
    finds the FIFO empty but for possibly earlier retrievals, which only add
    room, so the walk admits it too. Without a FIFO every frame the loop
    passed over before head n was decided by release_n, as release_n >=
    deq_{n-1} >= delivery[h_{n-1}] >= decision[h_{n-1}], so head n, the
    first frame decided after release_n, is max(ptr, searchsorted(decision,
    release_n, "right")). Either way N_n is the loop's head n, and H_n = N_n
    on the prefix. The state after p kept cycles is the loop's exactly:
    every frame decided by deq_{p-1} is passed, as the loop's
    deq-admission passes it, and the FIFO holds the admitted frames after
    head p - 1 decided by then, which see no retrieval m >= p; without a
    FIFO there are none, as N_p is decided after release_p >= deq_{p-1}.
    """
    held = len(queue)
    queued = np.fromiter(queue, np.int64, held)
    n_frames = len(delivery) - 1
    w = min(len(alpha), n_frames - ptr + held)
    alpha_sum = np.zeros(w + 1, dtype=np.int64)
    np.cumsum(alpha[:w], out=alpha_sum[1:])
    lag = tail[:w] - alpha_sum[1:]  # beta_n - S_{n+1} - delivery[h_n]
    if guess == "never_binds":
        # t = t_0 + S, so the releases, and the retrievals from a FIFO, fall
        # at t_0 + S + theta.
        read = now + alpha_sum[:w] + theta_ns
        line = _heads(decision, read, queue_size, queued, ptr)
    else:
        # The queued frames, then consecutive ones.
        read, line = None, np.concatenate((queued, ptr + np.arange(w - held)))
    m = min(w, len(line))
    heads = np.minimum(n_frames, np.concatenate((
        line[:m], (line[-1] + 1 if len(line) else ptr) + np.arange(w - m))))
    arrival = delivery[heads]
    start = _max_plus(now, alpha_sum, arrival, lag)
    dequeue = np.maximum(arrival, start[:w] + theta_ns)
    instants = dequeue if queue_size else start[:w] + theta_ns
    if not np.array_equal(instants, read):  # else the rule there returns `line` again
        line = _heads(decision, instants, queue_size, queued, ptr)
    m = min(w, len(line))
    ok = (line[:m] == heads[:m]) & (line[:m] < n_frames)
    p = int(np.append(ok, False).argmin())
    if not p:
        return line[:0], start[:0], now, ptr, queue
    ptr = int(np.searchsorted(decision, dequeue[p - 1], "right"))
    k = int(np.searchsorted(line, ptr))
    return line[:p], np.diff(start[:p + 1]), int(start[p]), ptr, deque(line[p:k].tolist())


def _cycles(dec, dlv, end, queue_size, theta_ns, base, now, ptr, queue, alpha, tail):
    """Run cycles one by one from the loop state `now`, `ptr` and `queue`
    (changed in place) with the per-cycle lists of alpha_n and f_n + a_n.
    `dec` and `dlv` list the decision and delivery instants of the frames
    from `base` on, through the first frame decided after every instant the
    cycles reach, or through a `_NEVER` sentinel (see `_run_cycles`). `ptr`
    and `end`, the number of frames, count from `base`; the FIFO holds
    absolute frame numbers.
    Returns the fetched frames, counted from `base`, the cycle starts from
    `now` on, one more than the cycles run, and `ptr`. It stops at the first
    cycle that finds no frame.

    A cycle steps t' = max(t + alpha, deq + f + a), which is t plus the
    cycle length max(deq + f - t, o) + a, as the retrieval instant deq =
    max(delivery[h], t + theta) is at least t + theta; as t + alpha >= t +
    theta + f + a, delivery[h] stands in for deq there.
    Admission is a forward scan, written out twice rather than called, which
    saves a call per cycle: in order, every frame decided by the instant is
    accepted while the FIFO has room and passed over as dropped (or skipped)
    once it is full, where it stays, as it only drains at retrievals. `ptr`
    never moves back, so the scans take one step per frame over a run.
    """
    room_after_fetch = queue_size - 1
    heads, starts = [], [now]
    for alpha_t, tail_t in zip(alpha, tail):
        release = now + theta_ns
        while dec[ptr] <= release:
            if len(queue) < queue_size:
                queue.append(ptr + base)
            ptr += 1
        if queue:
            head = queue.popleft() - base
        elif ptr < end:
            # Starved: the next frame to be decided is taken on arrival; with
            # a FIFO it is accepted and retrieved at once.
            head = ptr
            ptr += 1
        else:
            break
        # Frames decided up to the retrieval instant still find the head in
        # its buffer: Q - 1 buffers are left for them. A head delivered by
        # the release is retrieved at it, and the scan above passed every
        # frame decided by then.
        deq = dlv[head]
        while dec[ptr] <= deq:
            if len(queue) < room_after_fetch:
                queue.append(ptr + base)
            ptr += 1
        heads.append(head)
        now += alpha_t
        deq += tail_t
        if now < deq:
            now = deq
        starts.append(now)
    return heads, starts, ptr


def _run_cycles(decision, delivery, queue_size, theta_ns, draws):
    """The detector cycle loop of every variant (see the module docstring).

    `decision` and `delivery` are per-frame instants in ns, each followed by
    a `_NEVER` sentinel, as `_camera_timeline` builds them; `queue_size`
    is the FIFO size Q (0 for the queueless variants) and `theta_ns` the
    fetch release delay. `draws` yields, for cycles 0, 1, ... in chunks, the
    arrays of each cycle's alpha = max(theta + f, o) + a, its f + a and its
    o, from its fetch time f, its slowest other stage o running alongside
    the fetch and the time a that runs after both (the phased inference,
    else 0). It runs the fetching cycles and returns the fetched frames,
    their cycle lengths and the o of the first cycle that found no frame;
    `run` adds the drain cycles and derives everything else from these.

    Cycles run in per-cycle stretches (`_cycles`) and verified blocks
    (`_solve_block`), chosen by the predictor of the module docstring. A
    block is offered every cycle left in its draw chunk and keeps only
    verified cycles, so the result is the loop's.

    A stretch reads the instants from lists that hold the frames from
    `base`, the FIFO head (or the next undecided frame) at the last fill,
    as the loop never goes back. A fill runs through the first frame decided
    after `end`, or through the `_NEVER` sentinel. A retrieval waits at most
    W = max(delivery[0], delivery[k] - decision[k - 1] over k) past its
    release: a queued head k was decided by the release, and decisions never
    decrease; a starved head k is the first frame decided after it, so frame
    k - 1 was decided by it, and releases fall at or after 0. So a cycle
    lasts at most alpha + W, as deq + f + a <= t + theta + W + f + a <= t +
    alpha + W, and no release or retrieval of the stretch passes `end`, now
    plus the sum of these over its cycles. Admissions stop at the first
    frame decided after their instant, and a head is decided by its
    retrieval, so no read passes the fill.
    """
    n_frames = len(decision) - 1
    # W, the longest a retrieval waits past its release (see the docstring).
    wait = int(np.max(delivery[1:-1] - decision[:-2], initial=delivery[0])) if n_frames else 0
    # The instants of the frames from `base` on that the stretches read.
    dec, dlv = [], []
    base = 0
    queue = deque()
    ptr = now = 0
    heads, lens = [], []
    stretch = _FIRST_CHUNK
    guess = None

    for alpha, tail, other in draws:
        i = 0
        while i < len(alpha):
            if guess is not None:
                h, c, now, ptr, queue = _solve_block(
                    guess, decision, delivery, queue_size, theta_ns, now, ptr, queue,
                    alpha[i:], tail[i:])
                heads.append(h)
                lens.append(c)
                i += len(c)
                if i == len(alpha):
                    stretch = _FIRST_CHUNK
                    continue
                if len(c) < _FIRST_CHUNK // 2:
                    stretch = min(2 * stretch, _CHUNK)
                guess = None
            j = min(len(alpha), i + stretch)
            # Terms below 2^50 ns sum exactly in int64 over a stretch's at
            # most 4096 cycles; with a longer one the fill runs to the sentinel.
            alphas = alpha[i:j]
            end = now + int(alphas.sum()) + (j - i) * wait if alphas.max() < 1 << 50 else _NEVER
            # Fill through the first frame decided after `end`, or the sentinel.
            top = int(np.searchsorted(decision[:-1], min(end, _NEVER), "right")) + 1
            if top > base + len(dec):
                # Frames behind the FIFO head or `ptr` are read no more.
                low = queue[0] if queue else ptr
                for filled, source in ((dec, decision), (dlv, delivery)):
                    del filled[:low - base]
                    filled += source[low + len(filled):top].tolist()
                base = low
            h, starts, ptr = _cycles(dec, dlv, n_frames - base, queue_size, theta_ns, base, now,
                                     ptr - base, queue, alphas.tolist(), tail[i:j].tolist())
            now, ptr = starts[-1], ptr + base
            heads.append(np.array(h, dtype=np.int64) + base)
            lens.append(np.diff(starts))
            if len(h) < j - i:
                return np.concatenate(heads), np.concatenate(lens), int(other[i + len(h)])
            # The predictor reads the second half of the stretch, at most its
            # last 64 cycles: past a start-up or a change of regime.
            m = max((j - i) // 2, j - i - _FIRST_CHUNK)
            if h[-1] - h[m] == j - i - 1 - m:
                guess = "no_drop"
            elif len(queue) == max(queue_size - 1, 0) and now - starts[m] == alphas[m:].sum():
                guess = "never_binds"
            elif queue_size:
                guess = "no_drop"
            else:
                stretch = min(2 * stretch, _CHUNK)
            i = j


def _occupancy(accept, retrieve):
    """The FIFO depths from the nondecreasing accept and retrieval instants
    of the same frames, in order: the depth each frame found at its accept
    (`ahead`) and left behind at its retrieval.

    A stable sort of the two runs merges them in linear time (Knuth, TAOCP
    vol. 3, 5.2.4), an accept first at a tie, as a frame decided at a
    retrieval instant still finds that retrieval's head in its buffer. So
    accept k lands at k + (retrievals before it), and retrieval m at m +
    (accepts up to it): accept k found 2k minus its position ahead of it,
    and retrieval m left its position minus 2m - 1 behind.
    """
    is_accept = np.argsort(np.concatenate((accept, retrieve)), kind="stable") < len(accept)
    twice = 2 * np.arange(len(accept))
    return twice - np.flatnonzero(is_accept), np.flatnonzero(~is_accept) - twice - 1


def _sorted_trace(events) -> Trace:
    """The trace of the events given by kind, each kind's as int64
    (time_ns, frame, detail) columns: one lexsort orders them by time, kind
    code and frame, as the (time_ns, kind name, frame, detail) tuples sort,
    since each frame meets each kind at most once."""
    kind = np.repeat(np.array([Trace.KINDS.index(k) for k in events], dtype=np.int8),
                     [len(cols[0]) for cols in events.values()])
    time_ns, frame, detail = (np.concatenate(col) for col in zip(*events.values()))
    order = np.lexsort((frame, kind, time_ns))
    return Trace(time_ns[order], kind[order], frame[order], detail[order])


def _stage_dists(profile: StageProfile) -> list[DelayDist]:
    """The six stage distributions in stream order: fetch, inference and
    display, each contended and then uncontended. A contended stage sums its
    uncontended parts and then its inflation term, so it is built from the
    uncontended distribution with one convolution (the same fold)."""
    dists = []
    for uncontended, inflation in ((profile.fetch_delay_dist(False), profile.fetch_inflation),
                                   (profile.infer_delay_dist(False), profile.infer_inflation),
                                   (profile.disp_delay_dist(False), profile.disp_inflation)):
        dists += (uncontended.convolve(inflation), uncontended)
    return dists


def _streams(cfg: SimConfig) -> list:
    """The run's six seeded stage streams, in `_stage_dists` order."""
    ss_stages = np.random.SeedSequence(cfg.seed).spawn(3)[2]
    return [_chunks(d, np.random.default_rng(s))
            for d, s in zip(_stage_dists(cfg.profile), ss_stages.spawn(6))]


def _replay(drawn: list, source):
    """The chunks of a stream `drawn` so far, then the next ones of its
    `source`, each appended to `drawn` as it is drawn; every chunk is
    read-only, as later runs read it again."""
    yield from drawn
    for chunk in source:
        chunk.flags.writeable = False
        drawn.append(chunk)
        yield chunk


def run(cfg: SimConfig, shared: dict | None = None) -> SimResult:
    """Simulate one scenario; identical configs give identical results.

    Runs given one `shared` dict, which the caller makes for one command,
    build the camera timeline, kept under (camera, usb, duration_ms, seed,
    capture_jitter_ms), and draw the six stage streams, kept under the seed
    and the ids of the profile's distributions, once (see the module
    docstring); each result is still bit-identical to `run(cfg)`'s. The
    dict keeps the last of each, so a frame-rate sweep holds one timeline,
    not one per point, and the stream entry keeps the distributions, so
    their ids name them while it lives."""
    if shared is None:
        return _simulate(cfg, _streams(cfg))
    key = (cfg.camera, cfg.usb, cfg.duration_ms, cfg.seed, cfg.capture_jitter_ms)
    if shared.get("timeline", (None,))[0] != key:
        ss_cam = np.random.SeedSequence(cfg.seed).spawn(3)[0]
        timeline = _camera_timeline(cfg, np.random.default_rng(ss_cam))
        for a in timeline:
            a.flags.writeable = False
        shared["timeline"] = key, timeline
    parts = tuple(getattr(cfg.profile, f.name) for f in fields(cfg.profile))
    key = (cfg.seed, *map(id, parts))
    if shared.get("streams", (None,))[0] != key:
        shared["streams"] = key, parts, [([], s) for s in _streams(cfg)]
    return _simulate(cfg, [_replay(*memo) for memo in shared["streams"][2]],
                     shared["timeline"][1])


def _simulate(cfg: SimConfig, streams, timeline=None) -> SimResult:
    """`run` on the given stage streams: six iterators of ns-valued int64
    chunks in `_stage_dists` order, as `_chunks` yields them. The objects,
    and the camera timeline unless `timeline` gives it as `_camera_timeline`
    returns it, come from the seed."""
    ss_cam, ss_obj, _ = np.random.SeedSequence(cfg.seed).spawn(3)
    # No name holds the tuple, so the epilogue can free an unshared timeline.
    capture, decision, delivery = (_camera_timeline(cfg, np.random.default_rng(ss_cam))
                                   if timeline is None else timeline)
    n_frames = len(capture)
    fetch_c, fetch_u, infer_c, infer_u, disp_c, disp_u = streams

    variant = cfg.variant
    queue_size, phased = variant.queue_size, variant.phased
    theta_ns = int(round(variant.theta * _MS))
    # Each stage's draws by the cycle that reads them (see the module
    # docstring); a stage that does not run in a cycle reads 0 there.
    idle = np.zeros(2, dtype=np.int64)
    if phased:
        fetch, infer, disp = fetch_u, infer_u, _delayed(disp_u, idle[:1])
    else:
        fetch = _delayed(fetch_c, next(fetch_u)[:1])
        infer = _delayed(infer_c, idle[:1])
        disp = _delayed(disp_c, idle)
    disp_read = []   # the display draws, kept for the display ends

    def cycle_draws():
        for f, i, d in zip(fetch, infer, disp):
            disp_read.append(d)
            other, after = (d, i) if phased else (np.maximum(i, d), 0)
            yield np.maximum(f + theta_ns, other) + after, f + after, other

    # A FIFO never holds more frames than the run captures, so the loop runs
    # a larger one as one of n_frames buffers (at least one), in int64.
    fifo_size = min(queue_size, max(n_frames, 1))
    fetched, cyc_len, last_other = _run_cycles(
        decision, delivery, fifo_size, theta_ns, cycle_draws())
    # Past the loop, the instants without their sentinel.
    decision, delivery = decision[:-1], delivery[:-1]

    n_fetched = len(fetched)
    warnings: list[str] = []
    if n_fetched == 0:
        warnings.append("no frame was ever retrieved; run too short")
    # Fetched frame k is displayed in cycle k + lag, the pipeline's depth
    # behind the fetch. The first drain cycle read the draws of the first
    # cycle that found no frame, except that a lone pipelined frame is
    # inferred uncontended; the pipelined shape then displays the last
    # frame alone.
    lag = 1 if phased else 2
    disp_ns = np.concatenate(disp_read)[lag:n_fetched + 1]
    disp_read.clear()
    if n_fetched and phased:
        cyc_len = np.append(cyc_len, last_other)
    elif n_fetched:
        last_disp = int(next(disp_u)[0])
        cyc_len = np.append(cyc_len, (last_other if n_fetched > 1 else int(next(infer_u)[0]),
                                      last_disp))
        disp_ns = np.append(disp_ns, last_disp)

    # Every cycle starts where the previous one ends, and the fetching
    # cycles come first.
    cyc_start = np.cumsum(cyc_len) - cyc_len
    dequeue_ns = np.maximum(delivery[fetched], cyc_start[:n_fetched] + theta_ns)
    disp_ns += cyc_start[lag:]

    # With a queue, the accepted frames are exactly the fetched ones, in
    # order; without a queue there is no occupancy.
    if queue_size:
        ahead, left_behind = _occupancy(decision[fetched], dequeue_ns)
    else:
        ahead = left_behind = np.zeros(n_fetched, dtype=np.int64)
    # Only an accept fills the FIFO: it is first full at the first accept
    # that finds Q - 1 frames ahead.
    filled = ahead == queue_size - 1
    first_full = int(decision[fetched[filled.argmax()]]) / _MS if filled.any() else None

    trace = None
    if cfg.trace:
        # Q is the loop's FIFO size, in int64: a larger FIFO drops nothing.
        dropped = np.ones(n_frames, dtype=bool)
        dropped[fetched] = False
        dropped = np.flatnonzero(dropped)
        events = {"capture": (capture, np.arange(n_frames), np.zeros(n_frames, dtype=np.int64)),
                  "drop" if queue_size else "skip": (
                      decision[dropped], dropped, np.full(len(dropped), fifo_size, dtype=np.int64)),
                  "retrieve": (dequeue_ns, fetched, left_behind)}
        if queue_size:
            events["accept"] = (decision[fetched], fetched, ahead + 1)
        trace = _sorted_trace(events)
        del events, dropped

    # A cycle has every slot occupied once the pipeline has filled and
    # while it still fetches. Frames with a fully occupied pipeline on both
    # sides of their journey are steady; analytical steady-state bounds
    # apply to these.
    cyc_steady = np.zeros(len(cyc_len), dtype=bool)
    cyc_steady[lag:n_fetched] = True
    steady = np.zeros(n_fetched, dtype=bool)
    steady[lag:n_fetched - 1 + phased] = True

    # Map objects to the first retrieved frame captured at or after their
    # appearance (plus the configured exposure floor).
    if cfg.object_times_ms is not None:
        obj_ns = np.rint(np.asarray(sorted(cfg.object_times_ms), dtype=np.float64) * _MS).astype(np.int64)
    else:
        rng_obj = np.random.default_rng(ss_obj)
        window = cfg.duration_ms * _OBJECT_WINDOW_FRAC * _MS
        obj_ns = np.sort(rng_obj.integers(0, max(1, int(window)), cfg.n_objects))
    floor_ns = int(round(cfg.camera.min_capture_delay * _MS))
    pos = np.searchsorted(capture[fetched], obj_ns + floor_ns, side="left")
    hit = pos < n_fetched
    hit_pos = pos[hit]
    object_frame = np.full(len(obj_ns), -1, dtype=np.int64)
    object_frame[hit] = fetched[hit_pos]
    e2e = np.full(len(obj_ns), np.nan)
    cam_delay = np.full(len(obj_ns), np.nan)
    e2e[hit] = (disp_ns[hit_pos] - obj_ns[hit]) / _MS
    cam_delay[hit] = (delivery[object_frame[hit]] - obj_ns[hit]) / _MS

    # The fields in ms by their ns sources, each the size of its field. Each
    # field replaces its source as it is built, so the conversions hold at
    # most one array beyond the result.
    ns = dict(b_fetch_ms=dequeue_ns - cyc_start[:n_fetched] - theta_ns,
              queue_delays=dequeue_ns - delivery[fetched], detector_delays=disp_ns - dequeue_ns,
              capture_ms=capture, decision_ms=decision, delivery_ms=delivery,
              dequeue_ms=dequeue_ns, cycle_times=cyc_len)
    del capture, decision, delivery, dequeue_ns, disp_ns, cyc_start, cyc_len, left_behind

    return SimResult(
        variant_name=cfg.variant.name,
        seed=cfg.seed,
        duration_ms=cfg.duration_ms,
        fetched_frames=fetched,
        admit_ahead=ahead,
        steady_frame_mask=steady,
        cycle_steady_mask=cyc_steady,
        first_full_ms=first_full,
        object_frame=object_frame,
        e2e_delays=e2e,
        camera_delays=cam_delay,
        objects_missed=int(len(obj_ns) - hit.sum()),
        drops=n_frames - n_fetched,
        frames_captured=n_frames,
        warnings=warnings,
        trace=trace,
        **{name: ns.pop(name) / _MS for name in list(ns)},
    )
