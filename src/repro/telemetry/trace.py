"""The telemetry record log: spans, events, one switch and one reset.

The paper's headline output is *attribution* — Figure 1 only exists
because time could be charged to codec stages.  This module owns the
raw material for that attribution and for the event timeline:

* **the record log** (:class:`Trace`): one bounded, locked buffer of
  completed spans and the events :func:`repro.telemetry.events.emit`
  records, with one ``max_records`` bound and one drop counter.
  :meth:`Trace.spans` and :meth:`Trace.events` filter it, and every
  export reads those filters: :meth:`Trace.to_json` (the library's own
  ``repro.telemetry.trace/1`` schema), :meth:`Trace.to_chrome`
  (``chrome://tracing`` / Perfetto) and :meth:`Trace.to_jsonl` (the
  canonical event log);
* **the switch** (:func:`enable` / :func:`disable`), **off by default**:
  while disabled, :func:`span` returns a shared no-op context manager,
  so an instrumented seam costs one flag check.  :func:`enable`
  installs the flight recorder (:mod:`repro.telemetry.flightrec`) as
  the log's only sink;
* **the reset** (:func:`reset`).

::

    from repro.telemetry import enable, span

    enable()
    with span("mpeg2.encode", backend="simd") as sp:
        with span("mpeg2.encode.picture", frame_type="I"):
            ...
        sp.set(frames=9)

A span that exits through an exception still closes and records the
exception class under the ``error`` attribute (the exception propagates).
A span nests under the innermost open span of its own thread or
``asyncio`` task (a :class:`~contextvars.ContextVar`).  Each process
keeps its own log; worker processes ship metrics back explicitly
(:meth:`repro.telemetry.metrics.MetricsRegistry.merge`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import registry

__all__ = [
    "NOOP_SPAN",
    "Span",
    "SpanRecord",
    "Trace",
    "TelemetryState",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "reset",
    "span",
    "state",
]

#: Schema identifier stamped into the library's own JSON export.
TRACE_SCHEMA = "repro.telemetry.trace/1"

#: Default cap on buffered records, spans and events together (room for
#: 250k spans plus 200k events); beyond it records are counted but
#: dropped, so long enabled runs cannot grow without bound.
DEFAULT_MAX_RECORDS = 450_000


class SpanRecord:
    """One completed span, as stored in the record log."""

    __slots__ = ("span_id", "parent_id", "name", "start", "end", "pid",
                 "tid", "attrs")

    kind = "span"

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 start: float, end: float, pid: int, tid: int,
                 attrs: Dict[str, Any]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.pid = pid
        self.tid = tid
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecord({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"attrs={self.attrs})")


class Trace:
    """The per-process record log: completed spans and events, in order.

    Span ids and event ``seq`` numbers are allocated here; ``seq``
    counts events only, so a reset log numbers its first event 1.
    """

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS,
                 sink: Optional[Any] = None) -> None:
        self._lock = threading.Lock()
        self._records: List[Any] = []
        self._next_id = 1
        self._next_seq = 1
        self.max_records = max_records
        self.dropped = 0
        #: Receives every record (even one dropped at the cap) and every
        #: span open: the flight recorder once :func:`enable` ran.
        self.sink = sink
        #: wall-clock (``time.time``) and monotonic (``perf_counter``)
        #: origins, used to place spans on an absolute timeline.
        self.epoch = time.time()
        self.origin = time.perf_counter()

    def allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def allocate_seq(self) -> int:
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            return seq

    def record(self, record: Any) -> None:
        """Append a completed span or an event, then feed the sink."""
        with self._lock:
            if len(self._records) >= self.max_records:
                self.dropped += 1
            else:
                self._records.append(record)
        sink = self.sink
        if sink is not None:
            sink.record(record)

    def _select(self, kind: str, name: Optional[str]) -> List[Any]:
        with self._lock:
            records = list(self._records)
        return [record for record in records
                if record.kind == kind and (name is None
                                            or record.name == name)]

    def spans(self, name: Optional[str] = None) -> List[SpanRecord]:
        """Completed spans (optionally only those called ``name``)."""
        return self._select("span", name)

    def events(self, name: Optional[str] = None) -> List[Any]:
        """Recorded events (optionally only those called ``name``)."""
        return self._select("event", name)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The library's own JSON-serialisable schema."""
        return {
            "schema": TRACE_SCHEMA,
            "epoch": self.epoch,
            "dropped": self.dropped,
            "spans": [record.to_dict() for record in self.spans()],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)

    def to_chrome(self, metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Chrome trace-event format (``chrome://tracing`` loadable).

        Spans become complete events (``"ph": "X"``); timestamps are
        microseconds relative to the trace origin.
        """
        events: List[Dict[str, Any]] = []
        names_seen = set()
        for record in self.spans():
            if record.pid not in names_seen:
                names_seen.add(record.pid)
                events.append({
                    "name": "process_name",
                    "ph": "M",
                    "pid": record.pid,
                    "tid": record.tid,
                    "args": {"name": f"repro pid {record.pid}"},
                })
            events.append({
                "name": record.name,
                "cat": record.name.split(".", 1)[0],
                "ph": "X",
                "ts": (record.start - self.origin) * 1e6,
                "dur": record.duration * 1e6,
                "pid": record.pid,
                "tid": record.tid,
                "args": {key: _jsonable(value)
                         for key, value in record.attrs.items()},
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata or {}, schema=TRACE_SCHEMA,
                              epoch=self.epoch, dropped=self.dropped),
        }

    def to_chrome_json(self, indent: Optional[int] = None,
                       metadata: Optional[Dict[str, Any]] = None) -> str:
        return json.dumps(self.to_chrome(metadata), indent=indent, default=str)

    def to_jsonl(self) -> str:
        """The events, one canonical JSON document per line (the
        reproducible export)."""
        return "".join(event.canonical_json() + "\n"
                       for event in self.events())


def _jsonable(value: Any) -> Any:
    """``value`` as JSON-native data: containers recursively, others via
    ``str``.  Shared by the trace, event and flight-dump exports."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return str(value)


class TelemetryState:
    """Process-global telemetry switch plus the record log."""

    def __init__(self) -> None:
        self.enabled = False
        self.trace = Trace()


#: The process-global state.  Hot seams read ``state.enabled`` directly.
state = TelemetryState()

#: Id of the innermost open span in this thread or task (``None`` at
#: the root).  A new thread starts from the default; an ``asyncio`` task
#: starts from a copy of its creator's context.
_open_parent: ContextVar[Optional[int]] = ContextVar(
    "hdvb_span_parent", default=None)


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class Span:
    """A live span; use via ``with span(...)``."""

    __slots__ = ("name", "attrs", "_span_id", "_parent_id", "_token",
                 "_start")

    def __init__(self, name: str, attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach or update user attributes on the live span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        trace = state.trace
        self._span_id = trace.allocate_id()
        self._parent_id = _open_parent.get()
        self._token = _open_parent.set(self._span_id)
        sink = trace.sink
        if sink is not None:
            sink.span_opened(self._span_id, self.name, self.attrs)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        # Restores this span's parent even if an inner span leaked.
        _open_parent.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        state.trace.record(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self.name,
                start=self._start,
                end=end,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=self.attrs,
            )
        )
        return False


def span(name: str, **attrs: Any):
    """Open a span named ``name``; no-op when telemetry is disabled."""
    if not state.enabled:
        return NOOP_SPAN
    return Span(name, attrs)


def enable(max_records: Optional[int] = None) -> None:
    """Turn telemetry on: spans, events, metrics, instrumented seams and
    the flight recorder."""
    if max_records is not None:
        state.trace.max_records = max_records
    # Deferred so the disabled path (and the codec import path) never
    # loads the flight recorder or the chaos IO seam it writes through.
    from repro.telemetry import flightrec
    state.trace.sink = flightrec.recorder
    state.enabled = True


def disable() -> None:
    """Turn telemetry off; recorded data is kept until :func:`reset`."""
    state.enabled = False


def enabled() -> bool:
    return state.enabled


def current_trace() -> Trace:
    """The process-global record log."""
    return state.trace


def reset() -> None:
    """Empty the record log (span ids and event ``seq`` restart at 1),
    the flight recorder's rings, open spans and dump ledger, and the
    metrics registry.  The switch and the ``max_records`` bound stay."""
    previous = state.trace
    state.trace = Trace(previous.max_records, sink=previous.sink)
    if previous.sink is not None:
        previous.sink.clear()
    registry().clear()
