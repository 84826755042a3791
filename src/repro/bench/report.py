"""Plain-text rendering of benchmark tables, bar charts and telemetry."""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence

#: A table cell that reads as a measurement: an optionally signed number,
#: optionally followed by a unit suffix (``%``, ``dB``, ``fps``, ``x``,
#: ``kbit/s``).  Placeholders (``-``, empty) do not break a numeric column.
_NUMERIC_CELL = re.compile(
    r"^[+-]?\d+(\.\d+)?\s*(%|dB|fps|x|kbit/s)?$"
)


def _is_numeric_column(cells: Sequence[str]) -> bool:
    seen_number = False
    for cell in cells:
        text = cell.strip()
        if text in ("", "-"):
            continue
        if not _NUMERIC_CELL.match(text):
            return False
        seen_number = True
    return seen_number


def render_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned ASCII table.

    Columns whose cells are all numeric (a value with an optional unit)
    are right-aligned so magnitudes line up — a 4-digit fps next to a
    2-digit fps reads off the same column edge instead of drifting left.
    """
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    numeric = [
        _is_numeric_column([row[index] for row in materialised if index < len(row)])
        for index in range(len(headers))
    ]

    def align(cell: str, index: int) -> str:
        if numeric[index]:
            return cell.rjust(widths[index])
        return cell.ljust(widths[index])

    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(align(h, i) for i, h in enumerate(headers)))
    lines.append(separator)
    for row in materialised:
        lines.append(" | ".join(align(cell, i) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_bars(labels: Sequence[str], values: Sequence[float],
                unit: str = "fps", width: int = 46,
                reference: float = 0.0, reference_label: str = "") -> str:
    """Render a horizontal ASCII bar chart (Figure 1 style).

    ``reference`` draws a marker column (the 25 fps real-time line in the
    paper's plots).
    """
    if not labels:
        return "(no data)"
    peak = max(list(values) + [reference if reference else 0.0])
    if peak <= 0:
        peak = 1.0
    label_width = max(len(label) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        length = int(round(width * value / peak))
        bar = "#" * length
        if reference:
            marker = int(round(width * reference / peak))
            if marker >= len(bar):
                bar = bar.ljust(marker) + "|"
        lines.append(f"{label.ljust(label_width)} {bar} {value:.2f} {unit}")
    if reference and reference_label:
        lines.append(f"{'':{label_width}} ('|' marks {reference_label})")
    return "\n".join(lines)


def render_telemetry_section(trace, registry,
                             wall_seconds: Optional[float] = None) -> str:
    """Render the telemetry section of a performance report.

    ``trace`` is a :class:`repro.telemetry.Trace`, ``registry`` a
    :class:`repro.telemetry.MetricsRegistry`.  Produces the Figure-1-style
    stage table (where did the time go), a coverage line against
    ``wall_seconds``, and the collected counters/gauges/histograms.
    """
    from repro.telemetry.profile import coverage, render_stage_table, stage_table

    rows = stage_table(trace)
    if not rows:
        return "Telemetry: no spans recorded (is telemetry enabled?)"
    parts = [render_stage_table(rows, title="Telemetry: stage profile")]
    if wall_seconds is not None and wall_seconds > 0:
        covered = coverage(trace, wall_seconds)
        parts.append(
            f"Stage coverage: root spans account for {100.0 * covered:.1f}% "
            f"of {wall_seconds:.3f}s measured wall time"
        )
    metric_rows = []
    for name in registry.names():
        instrument = registry.get(name)
        data = instrument.to_dict()
        if data["kind"] == "histogram":
            value = (f"count={data['count']} sum={data['sum']:.0f} "
                     f"mean={instrument.mean:.1f}")
        elif data["kind"] == "gauge":
            value = f"{data['value']} (max {data['max']})"
        else:
            value = str(data["value"])
        metric_rows.append((name, data["kind"], value))
    if metric_rows:
        parts.append(render_table(["metric", "kind", "value"], metric_rows,
                                  title="Telemetry: metrics"))
    if trace.dropped:
        parts.append(f"(note: {trace.dropped} records dropped at the "
                     f"{trace.max_records}-record buffer cap)")
    return "\n\n".join(parts)
