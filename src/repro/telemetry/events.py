"""Correlated structured events (``repro.telemetry.event/1``).

Where spans answer *where did the time go*, events answer *what
happened, in what order, to which session*.  Events are discrete,
schema-versioned records emitted at state transitions — a session
degrading a rung, a cell failing, a chunk falling back to the serial
path — and every event carries the **correlation ids** of the scope it
happened in::

    from repro.telemetry import enable
    from repro.telemetry.events import correlation_scope, emit

    enable()
    with correlation_scope(session_id="s0042"):
        emit("session.state", state="streaming")

This module keeps the event vocabulary, the correlation scopes and
:func:`emit`; the events themselves go into the one record log of
:mod:`repro.telemetry.trace`, behind its one switch.  :func:`emit`
costs a single flag check while telemetry is disabled (no allocation,
no contextvar read), so instrumented seams stay inside the telemetry
overhead gate.

Determinism: the canonical export (:meth:`Event.canonical_dict`,
:meth:`~repro.telemetry.trace.Trace.to_jsonl`) deliberately excludes
wall-clock time, pid and tid so a seeded run produces a
**bit-identical** event log; virtual time from the deterministic origin
loop travels as an ordinary ``t`` field supplied by the emitter.

Event names come from the frozen :data:`EVENT_NAMES` registry (enforced
here at runtime and by lint rule HDVB210 statically); correlation scopes
nest and merge via a :mod:`contextvars` variable, so they propagate
through ``asyncio`` task creation and ``with`` blocks alike.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.telemetry.trace import _jsonable, state as _state

__all__ = [
    "EVENT_NAMES",
    "EVENT_SCHEMA",
    "Event",
    "correlation_id",
    "correlation_scope",
    "current_correlation",
    "emit",
]

#: Schema identifier stamped on every exported event.
EVENT_SCHEMA = "repro.telemetry.event/1"

#: The frozen event-name registry.  ``emit()`` rejects names outside it
#: and lint rule HDVB210 enforces the same set statically, so the
#: timeline vocabulary cannot drift per call site.
EVENT_NAMES: Tuple[str, ...] = (
    # origin session lifecycle
    "session.state",
    "session.epoch",
    "session.retry",
    "session.degrade",
    "session.abort",
    "session.chaos",
    "session.corrupt",
    "session.deadline_miss",
    # origin server / admission
    "origin.admit",
    "origin.reject",
    "origin.escape",
    # segment cache
    "cache.hit",
    "cache.wait",
    "cache.encode",
    # orchestrate cells
    "cell.start",
    "cell.done",
    "cell.fail",
    # parallel encode chunks
    "chunk.retry",
    "chunk.fallback",
    # chaos / gates / SLO plane
    "crash.injected",
    "gate.fail",
    "slo.breach",
    "flight.dump",
)

_EVENT_NAME_SET = frozenset(EVENT_NAMES)

#: Correlation-id keys ordered most-specific first; :func:`correlation_id`
#: picks the first one present.
_ID_PRECEDENCE = ("session_id", "cell_id", "run_id")


class Event:
    """One emitted event, as stored in the record log."""

    __slots__ = ("seq", "name", "wall", "pid", "tid", "correlation",
                 "fields")

    kind = "event"

    def __init__(self, seq: int, name: str, wall: float, pid: int,
                 tid: int, correlation: Dict[str, str],
                 fields: Dict[str, Any]) -> None:
        self.seq = seq
        self.name = name
        self.wall = wall
        self.pid = pid
        self.tid = tid
        self.correlation = correlation
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """Full record, including the non-reproducible wall/pid/tid."""
        data = self.canonical_dict()
        data["wall"] = self.wall
        data["pid"] = self.pid
        data["tid"] = self.tid
        return data

    def canonical_dict(self) -> Dict[str, Any]:
        """The deterministic export: no wall clock, pid or tid, fields in
        sorted key order — bit-identical across seeded runs."""
        return {
            "schema": EVENT_SCHEMA,
            "seq": self.seq,
            "name": self.name,
            "correlation": {key: self.correlation[key]
                            for key in sorted(self.correlation)},
            "fields": {key: _jsonable(self.fields[key])
                       for key in sorted(self.fields)},
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event({self.seq}, {self.name!r}, "
                f"correlation={self.correlation}, fields={self.fields})")


#: Active correlation ids, as an immutable sorted tuple of pairs so
#: nested scopes copy cheaply and compare deterministically.
_scope_var: ContextVar[Tuple[Tuple[str, str], ...]] = ContextVar(
    "hdvb_correlation", default=())


@contextmanager
def correlation_scope(**ids: Any) -> Iterator[Dict[str, str]]:
    """Bind correlation ids for the dynamic extent of the ``with`` block.

    Scopes nest and merge — an inner ``correlation_scope(cell_id=...)``
    inherits the outer ``run_id`` and overrides any clashing key.  The
    binding lives in a :class:`~contextvars.ContextVar`, so tasks created
    inside the scope inherit it (``asyncio`` copies the context at
    ``create_task`` time).
    """
    merged = dict(_scope_var.get())
    for key, value in ids.items():
        if value is None:
            continue
        merged[key] = str(value)
    token = _scope_var.set(tuple(sorted(merged.items())))
    try:
        yield merged
    finally:
        _scope_var.reset(token)


def current_correlation() -> Dict[str, str]:
    """The active correlation ids (empty outside any scope)."""
    return dict(_scope_var.get())


def correlation_id(
        correlation: Optional[Mapping[str, str]] = None) -> Optional[str]:
    """The most specific id (session > cell > run, else the first key in
    sorted order) of ``correlation``, or of the active scope if omitted;
    ``None`` when there are no ids."""
    ids = dict(_scope_var.get()) if correlation is None else correlation
    for key in _ID_PRECEDENCE:
        value = ids.get(key)
        if value is not None:
            return value
    return ids[min(ids)] if ids else None


def emit(name: str, **fields: Any) -> Optional[Event]:
    """Record event ``name``; a single flag check when disabled."""
    if not _state.enabled:
        return None
    return _emit(name, fields)


def _emit(name: str, fields: Dict[str, Any]) -> Event:
    if name not in _EVENT_NAME_SET:
        # Lazy import: telemetry stays dependency-free on the fast path
        # and repro.errors itself lazily reads the correlation scope.
        from repro.errors import ConfigError
        raise ConfigError(
            f"unregistered event name {name!r}; add it to "
            f"repro.telemetry.events.EVENT_NAMES (HDVB210)")
    log = _state.trace
    event = Event(
        seq=log.allocate_seq(),
        name=name,
        wall=time.time(),
        pid=os.getpid(),
        tid=threading.get_ident(),
        correlation=current_correlation(),
        fields=fields,
    )
    log.record(event)
    return event
