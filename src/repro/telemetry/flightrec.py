"""Always-on flight recorder (``repro.telemetry.flightdump/1``).

A bounded in-memory ring buffer of the last N events plus the currently
open trace spans, keyed per correlation scope.  The recorder is the only
sink of the record log (:mod:`repro.telemetry.trace`):
:func:`repro.telemetry.enable` installs it, and from then on it sees
every event, every span open and every span close.  At steady state the
cost is O(ring), and the rings are exactly as enabled as telemetry
itself — no separate switch to forget.

When something dies — a ``SessionAborted``, a ``CrashInjected`` chaos
point, an unhandled supervisor escape, a failed observe gate — the
recorder dumps the relevant ring **atomically**
(:func:`repro.chaos.fsops.atomic_write`) into
``.hdvb-bench-history/flightrec/`` so the post-mortem is a file, not a
memory.  Dumps carry the trigger, the error's
:meth:`~repro.errors.ReproError.to_context_dict`, the ring events in
canonical (bit-reproducible) form, and the spans the dumped scope still
had open at the time of death.  A dump that cannot be written is
dropped: the failure being recorded matters more than its post-mortem.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from repro.chaos.fsops import atomic_write
from repro.telemetry import events as _events
from repro.telemetry.trace import _jsonable, state as _state

__all__ = [
    "DEFAULT_DUMP_DIR",
    "DEFAULT_RING_EVENTS",
    "FLIGHTDUMP_SCHEMA",
    "FlightRecorder",
    "recorder",
]

#: Schema identifier stamped on every dump file.
FLIGHTDUMP_SCHEMA = "repro.telemetry.flightdump/1"

#: Events retained per correlation scope (and in the global ring).
DEFAULT_RING_EVENTS = 256

#: Where dumps land unless the recorder is configured elsewhere; kept in
#: the same hidden directory as the observe history store.
DEFAULT_DUMP_DIR = os.path.join(".hdvb-bench-history", "flightrec")

#: Ring key for events emitted outside any correlation scope.
GLOBAL_RING = ""


class FlightRecorder:
    """Per-correlation ring buffers plus open-span bookkeeping."""

    def __init__(self, ring_events: int = DEFAULT_RING_EVENTS,
                 dump_dir: Optional[str] = None) -> None:
        self.ring_events = ring_events
        self.dump_dir = dump_dir or DEFAULT_DUMP_DIR
        self._lock = threading.Lock()
        self._rings: Dict[str, Deque[_events.Event]] = {}
        self._open_spans: Dict[int, Dict[str, Any]] = {}
        self._dump_seq = 0
        #: paths written this process, in dump order (tests and the
        #: timeline CLI read this to find the latest post-mortem).
        self.dumps: List[str] = []

    def configure(self, *, dump_dir: Optional[str] = None,
                  ring_events: Optional[int] = None) -> None:
        if dump_dir is not None:
            self.dump_dir = dump_dir
        if ring_events is not None:
            self.ring_events = ring_events

    # ------------------------------------------------------------------
    # the record log's sink
    # ------------------------------------------------------------------

    def record(self, record: Any) -> None:
        """A closed span leaves the open set; an event joins its scope's
        ring and the global one."""
        if record.kind == "span":
            with self._lock:
                self._open_spans.pop(record.span_id, None)
            return
        key = _events.correlation_id(record.correlation) or GLOBAL_RING
        with self._lock:
            ring = self._rings.get(key)
            if ring is None:
                ring = deque(maxlen=self.ring_events)
                self._rings[key] = ring
            ring.append(record)
            if key != GLOBAL_RING:
                shared = self._rings.get(GLOBAL_RING)
                if shared is None:
                    shared = deque(maxlen=self.ring_events)
                    self._rings[GLOBAL_RING] = shared
                shared.append(record)

    def span_opened(self, span_id: int, name: str,
                    attrs: Dict[str, Any]) -> None:
        with self._lock:
            self._open_spans[span_id] = {
                "id": span_id,
                "name": name,
                "attrs": {key: _jsonable(value)
                          for key, value in sorted(attrs.items())},
                "correlation": _events.current_correlation(),
            }

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def ring(self, correlation_id: Optional[str] = None) -> List[_events.Event]:
        key = GLOBAL_RING if correlation_id is None else correlation_id
        with self._lock:
            ring = self._rings.get(key)
            return list(ring) if ring is not None else []

    def open_spans(self, correlation_id: Optional[str] = None
                   ) -> List[Dict[str, Any]]:
        """Open spans in id order; with ``correlation_id``, only those
        opened in a scope whose ids include it."""
        with self._lock:
            return [dict(record) for _, record in
                    sorted(self._open_spans.items())
                    if correlation_id is None
                    or correlation_id in record["correlation"].values()]

    def clear(self) -> None:
        with self._lock:
            self._rings.clear()
            self._open_spans.clear()
            self._dump_seq = 0
            self.dumps = []

    # ------------------------------------------------------------------
    # dumps
    # ------------------------------------------------------------------

    def dump(self, trigger: str, *, correlation_id: Optional[str] = None,
             error: Optional[BaseException] = None,
             extra: Optional[Dict[str, Any]] = None) -> Optional[str]:
        """Atomically write the relevant ring to a post-mortem file.

        A no-op (returns ``None``) while telemetry is disabled: with
        nothing feeding the rings there is nothing worth persisting, and
        the disabled path must stay free of filesystem traffic.  Also
        ``None`` when the dump cannot be written, so the caller goes on
        to report the failure that triggered it.
        """
        if not _state.enabled:
            return None
        if correlation_id is None:
            correlation_id = _events.correlation_id()
        events = self.ring(correlation_id)
        if correlation_id is not None and not events:
            events = self.ring(None)
        document = {
            "schema": FLIGHTDUMP_SCHEMA,
            "trigger": trigger,
            "correlation_id": correlation_id,
            "correlation": _events.current_correlation(),
            "error": _error_context(error),
            "extra": {key: _jsonable(value)
                      for key, value in sorted((extra or {}).items())},
            "events": [event.canonical_dict() for event in events],
            "open_spans": self.open_spans(correlation_id),
        }
        with self._lock:
            self._dump_seq += 1
            seq = self._dump_seq
        name = "{0}-{1}-{2:04d}.json".format(
            _safe(correlation_id or "global"), _safe(trigger), seq)
        path = os.path.join(self.dump_dir, name)
        payload = json.dumps(document, sort_keys=True, indent=2,
                             default=str).encode("utf-8")
        try:
            atomic_write(path, payload)
        except OSError:
            return None
        with self._lock:
            self.dumps.append(path)
        return path


def _error_context(error: Optional[BaseException]) -> Optional[Dict[str, Any]]:
    if error is None:
        return None
    to_context = getattr(error, "to_context_dict", None)
    if callable(to_context):
        return {key: _jsonable(value)
                for key, value in to_context().items()}
    return {"error": type(error).__name__, "message": str(error)}


def _safe(text: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "-"
                   for ch in text) or "global"


#: The process-global recorder.
recorder = FlightRecorder()
