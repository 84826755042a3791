"""One client's stream, supervised: ADMITTED → … → CLOSED.

A :class:`StreamSessionRunner` owns everything that happens to a single
client: fetching the encoded asset through the shared single-flight
cache, packetizing it, pacing picture groups across that client's
private seeded :class:`~repro.transport.channel.LossyChannel`, feeding a
bounded send queue read by a (possibly slow, possibly chaotic) reader
task, and finally draining and running the hardened decode over whatever
arrived.  The state machine::

    ADMITTED ──fetch ok──▶ STREAMING ◀──recovered── DEGRADED
                               │                        │
                               └──pressure──────────────┘
                               │                        │ ladder exhausted
                               ▼                        ▼
                           DRAINING ──decode──▶ CLOSED   (shed: SessionAborted)

Robustness mechanics, all deterministic under the virtual-time loop:

* every transient delivery failure (malformed ack, backpressure put
  timeout, cache encode failure) is retried with jittered exponential
  backoff against a per-session **failure budget**; exhausting the
  budget raises :class:`~repro.errors.SessionAborted`;
* sustained deadline-miss rate or a saturated send queue enters
  **DEGRADED** and walks the degradation ladder — shed FEC depth, drop
  a resolution rung, drop non-I pictures, finally shed the session;
* cancellation (the chaos layer kills session tasks mid-stream) always
  tears down cleanly: the reader is reaped, the queue is torn down, the
  state machine lands in CLOSED, and ``CancelledError`` is re-raised so
  the supervisor records a cancellation rather than a failure.

Rung switches cannot splice two differently-encoded bitstreams, so each
rung opens a new *epoch*: the new rung's full stream is fetched (cache
hit for every session after the first) and only the not-yet-played
coding positions are transmitted.  Each epoch decodes independently with
arrival times relative to the epoch start; picture slots never sent —
the already-played prefix, deliberately dropped B/P pictures, load-shed
tails — are concealed by exactly the machinery that absorbs packet loss.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

from repro.codecs.base import EncodedVideo
from repro.common.gop import FrameType
from repro.errors import OriginError, ReproError, SessionAborted
from repro.origin.cache import SegmentCache, SegmentKey
from repro.origin.supervise import Supervisor
from repro.robustness.inject import FaultInjector
from repro.telemetry import events as _events
from repro.telemetry import flightrec
from repro.telemetry.events import correlation_scope
from repro.telemetry.metrics import (
    DEPTH_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.trace import state as telemetry_state
from repro.transport.channel import Arrival, LossyChannel
from repro.transport.fec import fec_encode
from repro.transport.packetize import Packet, StreamSession, packetize
from repro.transport.receiver import TransportResult, receive


class SessionState(Enum):
    """Supervisor states; values appear in errors and reports."""

    ADMITTED = "admitted"
    STREAMING = "streaming"
    DEGRADED = "degraded"
    DRAINING = "draining"
    CLOSED = "closed"


@dataclass(frozen=True)
class Rung:
    """One resolution/quality operating point of the encoding ladder."""

    width: int
    height: int
    qp: int

    def key(self, sequence: str, codec: str) -> SegmentKey:
        return SegmentKey(sequence=sequence, codec=codec, qp=self.qp,
                          width=self.width, height=self.height)


#: The bitrate ladder, top rung first.  Degradation steps *down* the
#: tuple; every session starts on the rung its profile asks for.
DEFAULT_RUNGS: Tuple[Rung, ...] = (
    Rung(width=48, height=32, qp=6),
    Rung(width=32, height=32, qp=10),
    Rung(width=16, height=16, qp=14),
)

#: Degradation ladder actions, mildest first.
LADDER_STEPS: Tuple[str, ...] = ("fec", "rung", "frames", "shed")


@dataclass(frozen=True)
class SessionConfig:
    """Tuning knobs shared by every session of one origin."""

    mtu: int = 64
    fec_group: int = 4
    fec_depth: int = 2
    packet_interval: float = 0.0005   # pacing between packets of one picture
    queue_limit: int = 6              # bounded send-queue depth
    put_timeout: float = 0.25         # backpressure patience (virtual s)
    drain_timeout: float = 2.0        # DRAINING: patience for the reader
    failure_budget: int = 4           # transient failures before abort
    backoff_base: float = 0.02        # first retry delay (virtual s)
    backoff_cap: float = 0.5          # retry delay ceiling
    startup_depth: float = 0.12       # playout buffer: deadline slack (s)
    degrade_window: int = 5           # frames in the miss-rate window
    degrade_enter: float = 0.4        # window miss rate that enters DEGRADED
    degrade_exit_depth: int = 1       # max queue depth to leave DEGRADED
    degrade_patience: int = 3         # frames between ladder steps
    jitter_depth: float = 4.0         # receiver admission slack (epoch s)
    conceal: str = "copy-last"
    backend: str = "simd"
    decode: bool = True               # run the hardened decode per epoch


@dataclass(frozen=True)
class ClientProfile:
    """One client's network personality and chaos schedule."""

    session_id: str
    seed: int
    codec: str
    rung_index: int = 0
    loss_rate: float = 0.0
    burst_length: float = 1.0
    delay: float = 0.01
    jitter: float = 0.0
    render_seconds: float = 0.02      # reader consumption per frame
    arrival_offset: float = 0.0       # virtual s after serve start
    #: frame index → chaos events at that frame.  Events: ("flap", loss,
    #: burst), ("heal",), ("stall", seconds), ("nack",).
    chaos: Dict[int, Tuple[Tuple[object, ...], ...]] = field(
        default_factory=dict)
    corrupt: bool = False             # inject a seeded bitstream fault
    cancel_after: Optional[float] = None   # chaos: kill the task (virtual s)


@dataclass
class SessionResult:
    """Everything one session's lifetime produced (always populated,
    even when the session was cancelled or shed mid-flight)."""

    session_id: str
    final_state: str = SessionState.ADMITTED.value
    states: List[str] = field(default_factory=list)
    frames_sent: int = 0
    frames_delivered: int = 0
    deadline_misses: int = 0
    miss_seconds: List[float] = field(default_factory=list)
    retries: int = 0
    backoff_seconds: float = 0.0
    degrade_steps: List[str] = field(default_factory=list)
    degrade_entries: int = 0
    dropped_frames: int = 0           # ladder L3 deliberate drops
    epochs: int = 0
    concealed: int = 0
    decodes: int = 0
    shed: bool = False
    aborted: bool = False
    cancelled: bool = False
    error: Optional[str] = None
    chaos_faults: List[str] = field(default_factory=list)

    @property
    def graceful(self) -> bool:
        """True when the session ended without a raw (non-taxonomy) escape.

        Cancelled, shed and aborted sessions are all *graceful*: their
        failures carry ReproError context.  Only supervisor-recorded
        unhandled escapes (tracked origin-wide) are non-graceful.
        """
        return True

    @property
    def miss_rate(self) -> float:
        if not self.frames_delivered:
            return 0.0
        return self.deadline_misses / self.frames_delivered


class _Eos:
    """Queue sentinel: the stream is over, reader should exit."""


_EOS = _Eos()


@dataclass
class _Epoch:
    """One contiguously-decodable stretch of the session (a single rung
    and FEC configuration's manifest, plus what arrived during it)."""

    rung: Rung
    manifest: StreamSession
    pictures: List[List[Packet]]      # media packets per coding index
    t0: float                         # virtual time the epoch started
    arrivals: List[Arrival] = field(default_factory=list)


@dataclass
class _Stats:
    """Delivery accounting shared between the sender and the reader."""

    window: int
    recent: Deque[bool] = field(default_factory=deque)   # True = missed
    delivered: int = 0
    misses: int = 0

    def record(self, missed: bool) -> None:
        self.delivered += 1
        if missed:
            self.misses += 1
        self.recent.append(missed)
        while len(self.recent) > self.window:
            self.recent.popleft()

    @property
    def window_miss_rate(self) -> float:
        if len(self.recent) < self.window:
            return 0.0
        return sum(self.recent) / len(self.recent)


class StreamSessionRunner:
    """Drives one client's session through the state machine."""

    def __init__(
        self,
        profile: ClientProfile,
        config: SessionConfig,
        cache: SegmentCache,
        supervisor: Supervisor,
        *,
        sequence: str = "bench",
        rungs: Sequence[Rung] = DEFAULT_RUNGS,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.profile = profile
        self.config = config
        self.cache = cache
        self.supervisor = supervisor
        self.sequence = sequence
        self.rungs = tuple(rungs)
        self.metrics = metrics
        self.state = SessionState.ADMITTED
        self.result = SessionResult(session_id=profile.session_id)
        self.result.states.append(self.state.value)
        # Session-private randomness: backoff jitter must not perturb the
        # channel's RNG stream, or a retry would change the loss pattern.
        self._rng = random.Random(profile.seed ^ 0x5EED)
        self.channel = LossyChannel(
            loss_rate=profile.loss_rate, burst_length=profile.burst_length,
            delay=profile.delay, jitter=profile.jitter, seed=profile.seed,
        )
        self._rung_index = min(profile.rung_index, len(self.rungs) - 1)
        self._fec_group = config.fec_group
        self._fec_depth = config.fec_depth
        self._drop_non_i = False
        self._ladder_level = 0
        self._frames_since_step = 0
        self._failures = 0
        self._attempt = 0
        self._stats = _Stats(window=config.degrade_window)
        self._queue: Optional["asyncio.Queue[object]"] = None
        self._reader_task: Optional["asyncio.Task[object]"] = None
        self._epochs: List[_Epoch] = []
        self._parity_seq = 0
        self._play_start = 0.0
        # set by the ladder's "rung" action; the send loop (which may
        # await) performs the actual switch.
        self._pending_rung: Optional[int] = None

    # ------------------------------------------------------------------
    # state machine

    def _set_state(self, state: SessionState) -> None:
        if state is self.state:
            return
        if state is SessionState.DEGRADED:
            self.result.degrade_entries += 1
        self.state = state
        self.result.states.append(state.value)
        self.result.final_state = state.value
        self._emit("session.state", state=state.value)

    def _emit(self, name: str, **fields: object) -> None:
        """Emit an event stamped with virtual time (one flag check when
        telemetry is disabled, before any loop access)."""
        if not telemetry_state.enabled:
            return
        try:
            t = asyncio.get_running_loop().time()
        except RuntimeError:
            t = None
        _events.emit(name, t=t, **fields)

    def _abort(self, reason: str) -> SessionAborted:
        return SessionAborted(
            reason, session_id=self.profile.session_id, state=self.state.value)

    # ------------------------------------------------------------------
    # entry point

    async def run(self) -> SessionResult:
        """Run the session to completion; never lets a raw exception out.

        The whole lifetime runs inside a ``correlation_scope`` bound to
        the session id, so every event, span, error and flight-record
        dump produced here (including by tasks spawned within, like the
        reader) is attributable to this one client.
        """
        with correlation_scope(session_id=self.profile.session_id):
            return await self._run_supervised()

    async def _run_supervised(self) -> SessionResult:
        try:
            await self._run_pipeline()
        except asyncio.CancelledError:
            self.result.cancelled = True
            await self._teardown()
            self._set_state(SessionState.CLOSED)
            raise
        except SessionAborted as error:
            self.result.aborted = True
            self.result.error = str(error)
            self._emit("session.abort", kind=type(error).__name__,
                       reason=error.message)
            flightrec.recorder.dump("session.aborted", error=error)
            await self._teardown()
            self._set_state(SessionState.CLOSED)
        except ReproError as error:
            if error.session_id is None:
                error.session_id = self.profile.session_id
            self.result.aborted = True
            self.result.error = str(error)
            self._emit("session.abort", kind=type(error).__name__,
                       reason=error.message)
            flightrec.recorder.dump("session.aborted", error=error)
            await self._teardown()
            self._set_state(SessionState.CLOSED)
        return self.result

    async def _run_pipeline(self) -> None:
        loop = asyncio.get_running_loop()
        stream = await self._fetch_rung(self._rung_index)
        if self.profile.corrupt:
            stream, fault = FaultInjector(seed=self.profile.seed).inject(stream)
            self.result.chaos_faults.append(str(fault))
            self._emit("session.corrupt", fault=str(fault))
        self._set_state(SessionState.STREAMING)
        self._play_start = loop.time()
        queue: "asyncio.Queue[object]" = asyncio.Queue(
            maxsize=self.config.queue_limit)
        self._queue = queue
        self._reader_task = self.supervisor.spawn(
            self._reader(queue), f"{self.profile.session_id}.reader")
        self._open_epoch(stream)
        await self._stream_frames()
        self._set_state(SessionState.DRAINING)
        await self._drain(queue)
        self._decode_epochs()
        self._set_state(SessionState.CLOSED)

    # ------------------------------------------------------------------
    # epochs

    def _open_epoch(self, stream: EncodedVideo) -> None:
        manifest, packets = packetize(stream, mtu=self.config.mtu)
        pictures: List[List[Packet]] = [[] for _ in manifest.pictures]
        for packet in packets:
            pictures[packet.picture_index].append(packet)
        self._epochs.append(_Epoch(
            rung=self.rungs[self._rung_index], manifest=manifest,
            pictures=pictures, t0=asyncio.get_running_loop().time(),
        ))
        # Parity sequence numbers live above the media range so per-picture
        # FEC blocks never collide across pictures.
        self._parity_seq = manifest.packet_count
        self.result.epochs = len(self._epochs)
        rung = self.rungs[self._rung_index]
        self._emit("session.epoch", index=len(self._epochs),
                   rung=f"{rung.width}x{rung.height}@qp{rung.qp}")

    async def _fetch_rung(self, rung_index: int) -> EncodedVideo:
        rung = self.rungs[rung_index]
        key = rung.key(self.sequence, self.profile.codec)

        async def fetch() -> EncodedVideo:
            kind = self.cache.lookup_state(key)
            stream = await self.cache.get(key)
            if kind == "hit":
                self._emit("cache.hit", key=str(key))
            elif kind == "wait":
                self._emit("cache.wait", key=str(key))
            else:
                self._emit("cache.encode", key=str(key))
            return stream

        return await self._with_retries(f"fetch {key}", fetch)

    # ------------------------------------------------------------------
    # sending

    async def _stream_frames(self) -> None:
        loop = asyncio.get_running_loop()
        epoch = self._epochs[-1]
        coding_index = 0
        while coding_index < epoch.manifest.picture_count:
            display, frame_type, _ = epoch.manifest.pictures[coding_index]
            due = self._play_start + self.result.frames_sent / epoch.manifest.fps
            now = loop.time()
            if due > now:
                await asyncio.sleep(due - now)
            events = self.profile.chaos.get(self.result.frames_sent, ())
            for event in events:
                self._apply_chaos(event)
            if self._drop_non_i and frame_type is not FrameType.I:
                self.result.dropped_frames += 1
            else:
                await self._deliver_picture(epoch, coding_index, display,
                                            events)
            self.result.frames_sent += 1
            coding_index += 1
            if self._evaluate_pressure() and self._pending_rung is not None:
                await self._switch_rung(self._pending_rung)
                self._pending_rung = None
                epoch = self._epochs[-1]
                # resume from the same coding position on the new rung
                # (every rung encodes the same clip schedule).
                coding_index = min(coding_index,
                                   epoch.manifest.picture_count)

    async def _switch_rung(self, rung_index: int) -> None:
        stream = await self._fetch_rung(rung_index)
        self._rung_index = rung_index
        self._open_epoch(stream)

    async def _deliver_picture(self, epoch: _Epoch, coding_index: int,
                               display: int, events: Tuple[Tuple[object, ...],
                                                           ...]) -> None:
        loop = asyncio.get_running_loop()
        queue = self._queue
        assert queue is not None
        nacked = any(event and event[0] == "nack" for event in events)

        async def attempt() -> None:
            nonlocal nacked
            if nacked:
                # Malformed ack from the client: the send is not
                # confirmed, so the origin retries the whole picture.
                nacked = False
                raise OriginError(
                    "malformed ack for picture "
                    f"{coding_index}",
                    session_id=self.profile.session_id,
                    picture_index=coding_index)
            packets = self._coded_packets(epoch.pictures[coding_index])
            offset = loop.time() - epoch.t0
            arrivals, _ = self.channel.transmit(
                packets, self.config.packet_interval, start_time=offset)
            epoch.arrivals.extend(arrivals)
            last = max((a.time for a in arrivals), default=offset)
            deadline = (self._play_start + self.config.startup_depth
                        + (display + 1) / epoch.manifest.fps)
            item = (display, deadline, epoch.t0 + last, events)
            await asyncio.wait_for(queue.put(item),
                                   timeout=self.config.put_timeout)

        await self._with_retries(f"deliver picture {coding_index}", attempt)
        if self.metrics is not None:
            self.metrics.histogram(
                "origin.queue.depth", DEPTH_BUCKETS).observe(queue.qsize())

    def _coded_packets(self, media: List[Packet]) -> List[Packet]:
        """Apply the *current* FEC configuration to one picture group."""
        coded = fec_encode(media, group_size=self._fec_group,
                           depth=self._fec_depth)
        out: List[Packet] = []
        for packet in coded:
            if packet.is_parity:
                out.append(replace(packet, seq=self._parity_seq))
                self._parity_seq += 1
            else:
                out.append(packet)
        return out

    def _apply_chaos(self, event: Tuple[object, ...]) -> None:
        if not event:
            return
        kind = event[0]
        if kind == "flap":
            self.channel.set_loss(float(event[1]), float(event[2]))
            self.result.chaos_faults.append(
                f"flap loss={event[1]} burst={event[2]}")
            self._emit("session.chaos", kind="flap", loss=float(event[1]),
                       burst=float(event[2]))
        elif kind == "heal":
            self.channel.set_loss(self.profile.loss_rate,
                                  self.profile.burst_length)
            self.result.chaos_faults.append("heal")
            self._emit("session.chaos", kind="heal")

    # ------------------------------------------------------------------
    # retry / failure budget

    async def _with_retries(self, label: str, attempt_fn) -> object:
        while True:
            try:
                return await attempt_fn()
            except asyncio.CancelledError:
                raise
            except (OriginError, asyncio.TimeoutError) as error:
                self._failures += 1
                if isinstance(error, SessionAborted):
                    raise
                if self._failures > self.config.failure_budget:
                    raise self._abort(
                        f"failure budget ({self.config.failure_budget}) "
                        f"exhausted during {label}: {error}") from error
                delay = self.next_backoff()
                self.result.retries += 1
                self.result.backoff_seconds += delay
                self._emit("session.retry", label=label,
                           failures=self._failures, delay=delay)
                await asyncio.sleep(delay)

    def next_backoff(self) -> float:
        """Jittered exponential backoff: base·2^attempt, clamped, ±50%."""
        raw = min(self.config.backoff_cap,
                  self.config.backoff_base * (2 ** self._attempt))
        self._attempt += 1
        return raw * (0.5 + self._rng.random() / 2.0)

    # ------------------------------------------------------------------
    # degradation ladder

    def _evaluate_pressure(self) -> bool:
        """Check queue depth and miss rate; walk the ladder. Returns True
        when a rung switch opened a new epoch."""
        queue = self._queue
        assert queue is not None
        depth = queue.qsize()
        rate = self._stats.window_miss_rate
        pressured = (rate >= self.config.degrade_enter
                     or depth >= self.config.queue_limit - 1)
        self._frames_since_step += 1
        if self.state is SessionState.STREAMING and pressured:
            self._set_state(SessionState.DEGRADED)
            return self._ladder_step()
        if self.state is SessionState.DEGRADED:
            if (rate < self.config.degrade_enter
                    and depth <= self.config.degrade_exit_depth):
                self._set_state(SessionState.STREAMING)
                return False
            if self._frames_since_step >= self.config.degrade_patience:
                return self._ladder_step()
        return False

    def _ladder_step(self) -> bool:
        """Apply the next degradation action; True when the rung changed."""
        self._frames_since_step = 0
        while self._ladder_level < len(LADDER_STEPS):
            action = LADDER_STEPS[self._ladder_level]
            self._ladder_level += 1
            if action == "fec":
                if self._fec_depth > 1:
                    self._fec_depth -= 1
                else:
                    self._fec_group = 0
                self.result.degrade_steps.append("fec")
                self._count("origin.degrade.fec")
                self._emit("session.degrade", action="fec")
                return False
            if action == "rung":
                if self._rung_index + 1 >= len(self.rungs):
                    continue     # already at the bottom rung: next action
                self.result.degrade_steps.append("rung")
                self._count("origin.degrade.rung")
                self._emit("session.degrade", action="rung")
                self._pending_rung = self._rung_index + 1
                return True      # caller awaits the actual switch
            if action == "frames":
                self._drop_non_i = True
                self.result.degrade_steps.append("frames")
                self._count("origin.degrade.frames")
                self._emit("session.degrade", action="frames")
                return False
            self.result.degrade_steps.append("shed")
            self.result.shed = True
            self._count("origin.degrade.shed")
            self._emit("session.degrade", action="shed")
            raise self._abort(
                "degradation ladder exhausted under sustained pressure: "
                "session shed")
        return False

    # ------------------------------------------------------------------
    # reader

    async def _reader(self, queue: "asyncio.Queue[object]") -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await queue.get()
            try:
                if item is _EOS:
                    return
                display, deadline, ready_at, events = item  # type: ignore[misc]
                now = loop.time()
                if ready_at > now:
                    await asyncio.sleep(ready_at - now)
                for event in events:                 # type: ignore[union-attr]
                    if event and event[0] == "stall":
                        self.result.chaos_faults.append(
                            f"stall {event[1]}s")
                        await asyncio.sleep(float(event[1]))
                await asyncio.sleep(self.profile.render_seconds)
                now = loop.time()
                missed = now > deadline
                self._stats.record(missed)
                self.result.frames_delivered += 1
                if missed:
                    self.result.deadline_misses += 1
                    self.result.miss_seconds.append(now - deadline)
                    self._count("origin.deadline.missed")
                    self._emit("session.deadline_miss", display=display,
                               lateness=now - deadline)
                if self.metrics is not None:
                    self.metrics.histogram(
                        "origin.deadline.lateness", LATENCY_BUCKETS,
                    ).observe(max(0.0, now - deadline))
            finally:
                queue.task_done()

    # ------------------------------------------------------------------
    # draining and decode

    async def _drain(self, queue: "asyncio.Queue[object]") -> None:
        reader = self._reader_task
        assert reader is not None
        try:
            await asyncio.wait_for(queue.put(_EOS),
                                   timeout=self.config.drain_timeout)
            await asyncio.wait_for(asyncio.shield(reader),
                                   timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            # A terminally stalled reader: force it down; drained frames
            # already delivered keep their accounting.
            reader.cancel()
            await asyncio.gather(reader, return_exceptions=True)

    def _decode_epochs(self) -> None:
        if not self.config.decode:
            return
        for epoch in self._epochs:
            result: TransportResult = receive(
                epoch.manifest, epoch.arrivals,
                conceal=self.config.conceal,
                jitter_depth=self.config.jitter_depth,
                backend=self.config.backend,
                session_id=self.profile.session_id,
            )
            self.result.decodes += 1
            self.result.concealed += result.concealed_count

    # ------------------------------------------------------------------
    # teardown

    async def _teardown(self) -> None:
        reader = self._reader_task
        if reader is not None and not reader.done():
            reader.cancel()
            await asyncio.gather(reader, return_exceptions=True)
        self._reader_task = None
        self._queue = None

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()
