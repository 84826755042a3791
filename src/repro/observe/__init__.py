"""``repro.observe`` — the benchmark observatory.

Every bench run can land in a durable, schema-versioned history so the
question "did this change make decode slower or PSNR worse?" has a
mechanical answer:

* :mod:`repro.observe.record` — the frozen ``repro.observe.record/1``
  :class:`BenchRecord` (run id, git SHA, measurement axes, metrics,
  attached telemetry snapshot and parallel stats) plus converters from
  every harness's native result rows;
* :mod:`repro.observe.store` — the append-only JSONL
  :class:`HistoryStore` under ``.hdvb-bench-history/`` with atomic
  appends, tolerant reads, axis-indexed queries and compaction, plus
  the ``compare`` and ``trend`` queries over it;
* :mod:`repro.observe.gate` — one evaluator over the store with two
  policy kinds: drift (newest record per axis vs a rolling median
  baseline with MAD-based robust noise bands, OBS201–207) and SLO burn
  (error budgets and multi-window burn rates, OBS300–302), reported
  through the shared ``repro.analysis`` Finding and reporter machinery;
* :mod:`repro.observe.export` — OpenMetrics/Prometheus text exposition
  of the latest records and merged telemetry;
* :mod:`repro.observe.fsck` — corruption check + quarantine repair
  (torn appends, mangled lines, orphan compaction temps) reporting
  ``repro.chaos.fsck/1`` findings, crash-proven by the
  :mod:`repro.chaos` harness;
* :mod:`repro.observe.cli` — the ``hdvb-observe`` front end
  (``record`` / ``compare`` / ``trend`` / ``gate`` / ``slo`` /
  ``timeline`` / ``tail`` / ``export`` / ``compact`` / ``fsck``).

Feeding the store: every measuring ``hdvb-bench`` subcommand takes
``--record`` (append this run) / ``--run-id`` / ``--store``, and
``--json`` emits the same records as a ``repro.observe.records/1``
document for ``hdvb-observe record`` to ingest.  See
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from repro.observe.record import (
    DOCUMENT_SCHEMA,
    RECORD_SCHEMA,
    BenchRecord,
    RunInfo,
    current_git_sha,
    new_run_id,
    records_document,
    records_from_document,
)
from repro.observe.store import DEFAULT_STORE_DIR, HistoryStore, MalformedLine
from repro.observe.store import compare_runs, metric_trend
from repro.observe.gate import (
    DEFAULT_POLICIES,
    MetricPolicy,
    evaluate,
    mad,
    median,
)
from repro.observe.export import export_store, render_openmetrics
from repro.observe.fsck import FSCK_SCHEMA, QUARANTINE_SCHEMA, fsck_store

__all__ = [
    "BenchRecord",
    "FSCK_SCHEMA",
    "DEFAULT_POLICIES",
    "DEFAULT_STORE_DIR",
    "DOCUMENT_SCHEMA",
    "HistoryStore",
    "MalformedLine",
    "MetricPolicy",
    "QUARANTINE_SCHEMA",
    "RECORD_SCHEMA",
    "RunInfo",
    "compare_runs",
    "current_git_sha",
    "evaluate",
    "export_store",
    "fsck_store",
    "mad",
    "median",
    "metric_trend",
    "new_run_id",
    "records_document",
    "records_from_document",
    "render_openmetrics",
]
