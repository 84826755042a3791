"""``repro.telemetry`` — tracing, metrics and profiling for the codec stack.

A zero-dependency observability subsystem, **off by default**:

* :mod:`repro.telemetry.trace` — the one record log (nestable,
  thread-, task- and process-safe spans plus the correlated events),
  the one on/off switch and the one reset; JSON, Chrome
  ``chrome://tracing`` and canonical event JSONL exports;
* :mod:`repro.telemetry.events` — the event vocabulary, correlation
  scopes and ``emit()``;
* :mod:`repro.telemetry.flightrec` — the flight recorder, the log's
  sink, which dumps post-mortems when something dies;
* :mod:`repro.telemetry.metrics` — counters, gauges and fixed-bucket
  histograms in a process-global registry with snapshot/merge for
  multiprocess aggregation;
* :mod:`repro.telemetry.profile` — per-stage time tables (the
  Figure-1-style "where did the time go" report);
* :mod:`repro.telemetry.instrument` — the decorators/wrappers the codec
  seams use (encode/decode loops, kernel dispatch, motion search,
  parallel chunks).

Quickstart::

    import repro.telemetry as telemetry

    telemetry.enable()
    encoder = get_encoder("mpeg2", width=96, height=80)   # seams arm now
    encoder.encode_sequence(video)

    print(telemetry.render_stage_table(
        telemetry.stage_table(telemetry.current_trace())))
    bits = telemetry.registry().value("encode.mpeg2.bits")
    open("out.json", "w").write(telemetry.current_trace().to_chrome_json())

Front ends: ``hdvb-bench performance --trace out.json``,
``hdvb-bench serve --events ev.jsonl`` and ``hdvb-player FILE --stats``.
See ``docs/TELEMETRY.md``.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    registry,
)
from repro.telemetry.profile import (
    StageRow,
    coverage,
    render_stage_table,
    stage_table,
)
from repro.telemetry.trace import (
    NOOP_SPAN,
    Span,
    SpanRecord,
    Trace,
    current_trace,
    disable,
    enable,
    enabled,
    reset,
    span,
    state,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NOOP_SPAN",
    "Span",
    "SpanRecord",
    "StageRow",
    "Trace",
    "coverage",
    "current_trace",
    "disable",
    "enable",
    "enabled",
    "registry",
    "render_stage_table",
    "reset",
    "span",
    "stage_table",
    "state",
]

