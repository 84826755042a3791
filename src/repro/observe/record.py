"""The frozen, schema-versioned benchmark record (``repro.observe.record/1``).

Every number a bench harness produces — a Figure 1 throughput bar, a
Table V rate-distortion cell, a robustness or streaming sweep point —
becomes one :class:`BenchRecord`: the *axes* that identify the
measurement (codec, sequence, resolution, backend, loss rate, ...), the
*metrics* measured along those axes (fps, PSNR, bitrate, graceful rate),
and the run identity (run id, git SHA, creation time, campaign context).
A record can optionally attach the run's telemetry
:class:`~repro.telemetry.metrics.MetricsRegistry` snapshot and the
``parallel_encode`` ``return_stats`` dict, so one document answers both
"what did we measure" and "how did the run behave".

Records are what :mod:`repro.observe.store` persists, what
:mod:`repro.observe.gate` gates, and what
:mod:`repro.observe.export` exposes as OpenMetrics.
"""

from __future__ import annotations

import math
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ObserveError

#: Schema of one record.
RECORD_SCHEMA = "repro.observe.record/1"

#: Schema of a document bundling several records (the ``--json`` output
#: of ``hdvb-bench`` and the input of ``hdvb-observe record``).
DOCUMENT_SCHEMA = "repro.observe.records/1"

#: The bench harnesses that feed the store.
KNOWN_BENCHES = (
    "performance", "ratedistortion", "robustness", "streaming", "serve",
    "orchestrate", "orchestrate_run", "orchestrate_scaling",
    "speedups", "bdrate", "characterize",
    "table1", "table2", "table3", "table4", "perfbench",
)

#: Axes of a ``perfbench`` record.  ``perfbench/run.py`` prints no identity
#: of its own, so ``hdvb-observe record --axes`` supplies them.
PERFBENCH_AXES = ("workload", "seed", "trace")

_SCALAR_TYPES = (str, int, float, bool)


def new_run_id() -> str:
    """A fresh, collision-safe run identifier (UTC timestamp + entropy)."""
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    return f"{stamp}-{uuid.uuid4().hex[:8]}"


def current_git_sha(start: Optional[Path] = None) -> str:
    """The checked-out commit SHA, or ``""`` outside a git work tree.

    Resolved by reading ``.git/HEAD`` (and, for symbolic refs, the loose
    ref file or ``packed-refs``) so no subprocess is spawned on the
    benchmark path.
    """
    directory = (start or Path.cwd()).resolve()
    for candidate in (directory, *directory.parents):
        git_dir = candidate / ".git"
        head = git_dir / "HEAD"
        if not head.is_file():
            continue
        try:
            content = head.read_text(encoding="utf-8").strip()
            if not content.startswith("ref:"):
                return content
            ref = content.split(":", 1)[1].strip()
            loose = git_dir / ref
            if loose.is_file():
                return loose.read_text(encoding="utf-8").strip()
            packed = git_dir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    line = line.strip()
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
        except OSError as error:
            raise ObserveError(f"cannot read git metadata under {git_dir}: "
                               f"{error}") from error
        return ""
    return ""


def _check_scalar_mapping(kind: str, mapping: Mapping[str, Any],
                          numeric: bool) -> Dict[str, Any]:
    checked: Dict[str, Any] = {}
    for key, value in mapping.items():
        if not isinstance(key, str) or not key:
            raise ObserveError(f"record {kind} keys must be non-empty "
                               f"strings, got {key!r}")
        if numeric:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ObserveError(
                    f"record metric {key!r} must be numeric, got {value!r}")
            if not math.isfinite(value):
                raise ObserveError(
                    f"record metric {key!r} must be finite, got {value!r}")
        elif not isinstance(value, _SCALAR_TYPES):
            raise ObserveError(
                f"record {kind[:-1]} {key!r} must be a scalar, got {value!r}")
        checked[key] = value
    return checked


@dataclass(frozen=True)
class BenchRecord:
    """One measurement of one benchmark along one axis combination."""

    run_id: str
    bench: str
    axes: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)
    created: float = 0.0          #: unix seconds; 0.0 = unknown
    git_sha: str = ""
    context: Dict[str, Any] = field(default_factory=dict)
    parallel: Optional[Dict[str, Any]] = None
    telemetry: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.run_id or not isinstance(self.run_id, str):
            raise ObserveError(f"record needs a non-empty run_id, "
                               f"got {self.run_id!r}")
        if not self.bench or not isinstance(self.bench, str):
            raise ObserveError(f"record needs a non-empty bench name, "
                               f"got {self.bench!r}")
        object.__setattr__(
            self, "axes", _check_scalar_mapping("axes", self.axes, False))
        object.__setattr__(
            self, "metrics", _check_scalar_mapping("metrics", self.metrics, True))
        object.__setattr__(
            self, "context", _check_scalar_mapping("context", self.context, False))

    @property
    def axis_key(self) -> str:
        """Canonical identity of the axis combination, stable across runs."""
        return "|".join(f"{key}={self.axes[key]}" for key in sorted(self.axes))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": RECORD_SCHEMA,
            "run_id": self.run_id,
            "bench": self.bench,
            "created": self.created,
            "git_sha": self.git_sha,
            "axes": dict(self.axes),
            "metrics": dict(self.metrics),
            "context": dict(self.context),
        }
        if self.parallel is not None:
            data["parallel"] = self.parallel
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchRecord":
        if not isinstance(data, Mapping):
            raise ObserveError(f"record must be a mapping, got {type(data).__name__}")
        schema = data.get("schema")
        if schema != RECORD_SCHEMA:
            raise ObserveError(f"not a bench record: schema {schema!r} "
                               f"(expected {RECORD_SCHEMA!r})")
        try:
            return cls(
                run_id=data["run_id"],
                bench=data["bench"],
                axes=dict(data.get("axes", {})),
                metrics=dict(data.get("metrics", {})),
                created=float(data.get("created", 0.0)),
                git_sha=str(data.get("git_sha", "")),
                context=dict(data.get("context", {})),
                parallel=data.get("parallel"),
                telemetry=data.get("telemetry"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ObserveError(f"malformed bench record: {error!r}") from error


# ----------------------------------------------------------------------
# document bundling (the ``--json`` wire format)
# ----------------------------------------------------------------------


def records_document(records: Sequence[BenchRecord],
                     run_id: Optional[str] = None) -> Dict[str, Any]:
    """Bundle records into one ``repro.observe.records/1`` document."""
    return {
        "schema": DOCUMENT_SCHEMA,
        "run_id": run_id or (records[0].run_id if records else ""),
        "records": [record.to_dict() for record in records],
    }


def records_from_document(data: Mapping[str, Any]) -> List[BenchRecord]:
    """Parse a document (or a bare record) back into records."""
    if not isinstance(data, Mapping):
        raise ObserveError(f"records document must be a mapping, "
                           f"got {type(data).__name__}")
    schema = data.get("schema")
    if schema == RECORD_SCHEMA:
        return [BenchRecord.from_dict(data)]
    if schema != DOCUMENT_SCHEMA:
        raise ObserveError(f"not a records document: schema {schema!r} "
                           f"(expected {DOCUMENT_SCHEMA!r})")
    entries = data.get("records")
    if not isinstance(entries, list):
        raise ObserveError("records document has no 'records' list")
    return [BenchRecord.from_dict(entry) for entry in entries]


# ----------------------------------------------------------------------
# converters: harness results -> records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunInfo:
    """Shared identity stamped onto every record of one recording run."""

    run_id: str = ""
    created: float = 0.0
    git_sha: str = ""
    context: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(cls, context: Optional[Dict[str, Any]] = None,
                run_id: str = "") -> "RunInfo":
        """Stamp a new run: fresh id, wall-clock time, current git SHA."""
        return cls(
            run_id=run_id or new_run_id(),
            created=time.time(),
            git_sha=current_git_sha(),
            context=dict(context or {}),
        )


def context_from_config(config: Any) -> Dict[str, Any]:
    """The campaign knobs worth keeping next to each measurement."""
    return {
        "scale": str(config.scale),
        "frames": config.frames,
        "runs": config.runs,
        "qscale": config.qscale,
        "pid": os.getpid(),
    }


def _build(info: RunInfo, bench: str, axes: Dict[str, Any],
           metrics: Dict[str, float],
           parallel: Optional[Dict[str, Any]] = None,
           telemetry: Optional[Dict[str, Any]] = None) -> BenchRecord:
    return BenchRecord(
        run_id=info.run_id,
        bench=bench,
        axes=axes,
        metrics=metrics,
        created=info.created,
        git_sha=info.git_sha,
        context=dict(info.context),
        parallel=parallel,
        telemetry=telemetry,
    )


def records_from_performance(rows: Sequence[Any], info: RunInfo,
                             telemetry: Optional[Dict[str, Any]] = None,
                             parallel: Optional[Dict[str, Any]] = None,
                             ) -> List[BenchRecord]:
    """One record per :class:`~repro.bench.performance.FpsRow`."""
    return [
        _build(
            info, "performance",
            axes={
                "operation": row.operation,
                "backend": row.backend,
                "codec": row.codec,
                "sequence": row.sequence,
                "resolution": row.resolution,
            },
            metrics={"fps": row.fps, "real_time": 1.0 if row.real_time else 0.0},
            telemetry=telemetry,
            parallel=parallel,
        )
        for row in rows
    ]


def records_from_rate_distortion(rows: Sequence[Any],
                                 info: RunInfo) -> List[BenchRecord]:
    """One record per :class:`~repro.bench.ratedistortion.RdRow`."""
    return [
        _build(
            info, "ratedistortion",
            axes={
                "codec": row.codec,
                "sequence": row.sequence,
                "resolution": row.resolution,
            },
            metrics={
                "psnr_db": row.psnr.combined,
                "psnr_y_db": row.psnr.y,
                "bitrate_kbps": row.bitrate_kbps,
                "total_bytes": float(row.total_bytes),
            },
        )
        for row in rows
    ]


def records_from_robustness(reports: Sequence[Any],
                            info: RunInfo) -> List[BenchRecord]:
    """One record per :class:`~repro.robustness.bench.RobustnessReport`."""
    return [
        _build(info, "robustness", **report.to_record_fields())
        for report in reports
    ]


def records_from_streaming(reports: Sequence[Any],
                           info: RunInfo) -> List[BenchRecord]:
    """One record per :class:`~repro.transport.bench.StreamingReport`."""
    return [
        _build(info, "streaming", **report.to_record_fields())
        for report in reports
    ]


def records_from_serve(reports: Sequence[Any],
                       info: RunInfo) -> List[BenchRecord]:
    """One record per :class:`~repro.origin.bench.ServeReport` (the
    telemetry attachment carries the deadline-lateness and queue-depth
    histograms into the OpenMetrics exporter)."""
    return [
        _build(info, "serve", **report.to_record_fields())
        for report in reports
    ]


def records_from_speedups(operation: str, speedups: Mapping[str, float],
                          info: RunInfo) -> List[BenchRecord]:
    """One record per codec from a SIMD speed-up aggregate."""
    return [
        _build(info, "speedups",
               axes={"operation": operation, "codec": codec},
               metrics={"simd_speedup": value})
        for codec, value in sorted(speedups.items())
    ]


def record_from_perfbench(result: Mapping[str, Any], axes: Mapping[str, Any],
                          info: RunInfo) -> BenchRecord:
    """One ``perfbench`` record from a ``perfbench/run.py`` result, the last
    line of its stdout: each ``metrics[*].value``, plus ``attempted`` and
    ``failed``."""
    missing = [key for key in PERFBENCH_AXES if key not in axes]
    if missing:
        raise ObserveError(f"a perfbench result needs the axes {', '.join(missing)}")
    values = result.get("metrics")
    if not isinstance(values, Mapping):
        raise ObserveError("perfbench result has no 'metrics' mapping")
    metrics: Dict[str, Any] = {}
    for name, entry in values.items():
        if not isinstance(entry, Mapping) or "value" not in entry:
            raise ObserveError(f"perfbench metric {name!r} has no value")
        metrics[name] = entry["value"]
    for count in ("attempted", "failed"):
        if count not in result:
            raise ObserveError(f"perfbench result has no {count!r} count")
        metrics[count] = result[count]
    return _build(info, "perfbench", axes=dict(axes), metrics=metrics)


def records_from_table(bench: str, headers: Sequence[str],
                       rows: Sequence[Sequence[Any]],
                       info: RunInfo) -> List[BenchRecord]:
    """Descriptive (metric-free) records for the static tables I-IV."""
    def slug(header: str) -> str:
        return "".join(
            ch if ch.isalnum() else "_" for ch in header.strip().lower()
        ).strip("_") or "column"

    keys = [slug(header) for header in headers]
    return [
        _build(info, bench,
               axes={key: str(cell) for key, cell in zip(keys, row)},
               metrics={})
        for row in rows
    ]
