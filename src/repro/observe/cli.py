"""``hdvb-observe``: query and gate the benchmark history store.

    hdvb-observe record results.json [...]   # ingest --json bench documents
    hdvb-observe record result.json --axes workload=W,seed=N,trace=T
                                             # ingest a perfbench/run.py result
    hdvb-observe compare [--runs A,B]        # per-axis metric deltas
    hdvb-observe trend --bench performance --metric fps
    hdvb-observe gate [--format human|json]  # regression detector (CI gate)
    hdvb-observe slo [--spec slo.json]       # SLO burn-rate evaluation
    hdvb-observe timeline CORRELATION-ID --events events.jsonl
    hdvb-observe tail [--follow]             # follow history + event log
    hdvb-observe export [--output FILE] [--listen HOST:PORT]
    hdvb-observe fsck [--repair]             # corruption check + quarantine

Exit codes follow the ``hdvb-lint`` convention: 0 — clean, 1 — at least
one finding (``gate``, ``slo`` and ``fsck``), 2 — usage or I/O error.
With ``fsck --repair`` the exit code reflects the *post-repair* state:
0 iff the re-check comes back clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.reporters import render_human, render_json
from repro.bench.report import render_table
from repro.errors import ObserveError, ReproError
from repro.observe.gate import (
    DEFAULT_POLICIES,
    DEFAULT_SLOS,
    MetricPolicy,
    evaluate,
    load_slo_spec,
    render_slo_table,
    slo_document,
)
from repro.observe.record import (
    PERFBENCH_AXES,
    RunInfo,
    record_from_perfbench,
    records_from_document,
)
from repro.observe.store import (
    DEFAULT_STORE_DIR,
    HistoryStore,
    compare_runs,
    metric_trend,
)


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", default=DEFAULT_STORE_DIR, metavar="DIR",
                        help=f"history store directory "
                             f"(default: {DEFAULT_STORE_DIR})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdvb-observe",
        description="Persistent benchmark results: record, compare, trend, "
                    "regression-gate and export the bench history.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="append records from --json bench "
                                        "documents to the store")
    rec.add_argument("files", nargs="+", metavar="FILE",
                     help="repro.observe.records/1 documents ('-' = stdin)")
    rec.add_argument("--run-id", default="",
                     help="override the run id of every ingested record")
    rec.add_argument("--axes", default="", metavar="KEY=VALUE,...",
                     help="axes of perfbench/run.py results, which name none: "
                          + ", ".join(PERFBENCH_AXES))
    _add_store_argument(rec)

    cmp_parser = sub.add_parser("compare", help="metric deltas between two runs")
    cmp_parser.add_argument("--runs", default="", metavar="A,B",
                            help="run ids to compare "
                                 "(default: the two newest runs)")
    cmp_parser.add_argument("--bench", default=None,
                            help="restrict to one bench")
    _add_store_argument(cmp_parser)

    trend = sub.add_parser("trend", help="per-axis history of one metric")
    trend.add_argument("--bench", required=True,
                       help="bench to trend (performance, ratedistortion, ...)")
    trend.add_argument("--metric", default="fps",
                       help="metric to trend (default: fps)")
    _add_store_argument(trend)

    gate = sub.add_parser("gate", help="flag regressions of the newest record "
                                       "per axis against its rolling baseline")
    gate.add_argument("--bench", default=None, help="restrict to one bench")
    gate.add_argument("--format", choices=("human", "json"), default="human",
                      help="report format (default: human)")
    gate.add_argument("--window", type=int, default=MetricPolicy.window,
                      help="baseline records per axis (default: %(default)s)")
    gate.add_argument("--mad-sigmas", type=float,
                      default=MetricPolicy.mad_sigmas,
                      help="noise band width in robust sigmas "
                           "(default: %(default)s)")
    gate.add_argument("--fps-drop", type=float, default=None,
                      help="throughput-drop tolerance as a fraction "
                           "(default: 0.10)")
    gate.add_argument("--psnr-drop", type=float, default=None,
                      help="PSNR-drop tolerance in dB (default: 0.1)")
    gate.add_argument("--bitrate-growth", type=float, default=None,
                      help="bitrate-growth tolerance as a fraction "
                           "(default: 0.02)")
    _add_store_argument(gate)

    slo = sub.add_parser("slo", help="evaluate service-level objectives "
                                     "with error-budget burn rates")
    slo.add_argument("--spec", default="", metavar="FILE",
                     help="repro.observe.slo/1 spec (default: built-in "
                          "objectives)")
    slo.add_argument("--bench", default=None, help="restrict to one bench")
    slo.add_argument("--format", choices=("human", "json"), default="human",
                     help="report format (default: human)")
    _add_store_argument(slo)

    timeline = sub.add_parser(
        "timeline", help="reconstruct one correlation id's ordered event "
                         "timeline from the event log, flight dumps and "
                         "trace spans")
    timeline.add_argument("correlation_id", metavar="CORRELATION-ID",
                          help="session/cell/run id to reconstruct")
    timeline.add_argument("--events", default="", metavar="FILE",
                          help="canonical event-log JSONL "
                               "(from hdvb-bench serve --events)")
    timeline.add_argument("--flightrec", default="", metavar="DIR",
                          help="flight-dump directory "
                               "(default: STORE/flightrec)")
    timeline.add_argument("--trace", default="", metavar="FILE",
                          help="repro.telemetry.trace/1 JSON export")
    timeline.add_argument("--format", choices=("human", "json"),
                          default="human",
                          help="report format (default: human)")
    _add_store_argument(timeline)

    tail = sub.add_parser("tail", help="render (and optionally follow) the "
                                       "tails of the history store and an "
                                       "event log")
    tail.add_argument("--events", default="", metavar="FILE",
                      help="event-log JSONL to follow alongside the history")
    tail.add_argument("--lines", type=int, default=10,
                      help="initial lines per file (default: %(default)s)")
    tail.add_argument("--follow", action="store_true",
                      help="poll for appended lines until --max-seconds")
    tail.add_argument("--interval", type=float, default=0.2,
                      help="poll interval in seconds (default: %(default)s)")
    tail.add_argument("--max-seconds", type=float, default=None,
                      help="stop following after this long (default: "
                           "until interrupted)")
    _add_store_argument(tail)

    exp = sub.add_parser("export", help="OpenMetrics text exposition of the "
                                        "newest records plus merged telemetry")
    exp.add_argument("--bench", default=None, help="restrict to one bench")
    exp.add_argument("--output", default="", metavar="FILE",
                     help="write to FILE instead of stdout")
    exp.add_argument("--listen", default="", metavar="HOST:PORT",
                     help="serve the exposition over HTTP with on-scrape "
                          "refresh instead of writing it once")
    _add_store_argument(exp)

    compact = sub.add_parser("compact", help="bound the history: keep the "
                                             "newest N records per axis")
    compact.add_argument("--keep-last", type=int, default=50,
                         help="records kept per (bench, axis) "
                              "(default: %(default)s)")
    _add_store_argument(compact)

    fsck = sub.add_parser("fsck", help="check the history for corruption "
                                       "(torn appends, mangled lines, "
                                       "orphan temps)")
    fsck.add_argument("--repair", action="store_true",
                      help="quarantine bad byte ranges and delete orphan "
                           "temps; exit 0 iff the re-check is clean")
    fsck.add_argument("--format", choices=("human", "json"), default="human",
                      help="report format (default: human)")
    _add_store_argument(fsck)
    return parser


def _require_history(store: HistoryStore) -> None:
    if not store.exists():
        raise ObserveError(
            f"no history at {store.path} (run a bench with --record, or "
            f"ingest documents with 'hdvb-observe record')"
        )


def _parse_axes(raw: str) -> Dict[str, str]:
    axes: Dict[str, str] = {}
    for token in filter(None, (part.strip() for part in raw.split(","))):
        key, equals, value = token.partition("=")
        if not (equals and key and value) or key in axes:
            raise ObserveError(f"--axes wants distinct key=value pairs, got {token!r}")
        axes[key] = value
    return axes


def _cmd_record(options: argparse.Namespace) -> int:
    store = HistoryStore(options.store)
    axes = _parse_axes(options.axes)
    total = 0
    for name in options.files:
        if name == "-":
            payload = sys.stdin.read()
        else:
            try:
                with open(name, "r", encoding="utf-8") as handle:
                    payload = handle.read()
            except OSError as error:
                raise ObserveError(f"cannot read {name}: {error}") from error
        try:
            document = json.loads(payload)
        except ValueError as error:
            raise ObserveError(f"{name}: not JSON: {error}") from error
        if isinstance(document, dict) and "schema" not in document:
            # A perfbench/run.py result: no schema, no run identity.
            info = RunInfo.capture(run_id=options.run_id)
            records = [record_from_perfbench(document, axes, info)]
        else:
            if axes:
                raise ObserveError(f"{name}: --axes applies to perfbench results only")
            records = records_from_document(document)
            if options.run_id:
                records = [replace(record, run_id=options.run_id)
                           for record in records]
        total += store.append_many(records)
    print(f"hdvb-observe: appended {total} record(s) to {store.path}",
          file=sys.stderr)
    return 0


def _pick_runs(store: HistoryStore, raw: str) -> List[str]:
    if raw:
        runs = [token.strip() for token in raw.split(",") if token.strip()]
        if len(runs) != 2:
            raise ObserveError(f"--runs needs exactly two run ids, got {raw!r}")
        return runs
    known = store.run_ids()
    if len(known) < 2:
        raise ObserveError(
            f"need two recorded runs to compare, found {len(known)}")
    return known[-2:]


def _cmd_compare(options: argparse.Namespace) -> int:
    store = HistoryStore(options.store)
    _require_history(store)
    run_a, run_b = _pick_runs(store, options.runs)
    rows = compare_runs(store, run_a, run_b, bench=options.bench)
    if not rows:
        print(f"no shared (bench, axis, metric) between {run_a} and {run_b}")
        return 0
    rendered = []
    for bench, axis_key, metric, value_a, value_b in rows:
        delta = value_b - value_a
        percent = f"{delta / value_a * 100.0:+.1f}%" if value_a else "n/a"
        rendered.append((bench, axis_key, metric,
                         f"{value_a:.3f}", f"{value_b:.3f}",
                         f"{delta:+.3f}", percent))
    print(render_table(
        ["bench", "axes", "metric", run_a, run_b, "delta", "delta %"],
        rendered,
        title=f"Benchmark comparison: {run_a} -> {run_b}",
    ))
    return 0


def _cmd_trend(options: argparse.Namespace) -> int:
    store = HistoryStore(options.store)
    _require_history(store)
    series = metric_trend(store, options.bench, options.metric)
    if not series:
        raise ObserveError(
            f"no {options.metric!r} history for bench {options.bench!r} "
            f"in {store.path}")
    rows = []
    for axis_key, points in series.items():
        values = [value for _, value in points]
        rows.append((
            axis_key,
            len(points),
            f"{min(values):.3f}",
            f"{max(values):.3f}",
            f"{values[-1]:.3f}",
            " ".join(f"{value:.1f}" for _, value in points[-8:]),
        ))
    print(render_table(
        ["axes", "n", "min", "max", "latest", "series (newest last)"],
        rows,
        title=f"Trend: {options.bench} {options.metric}",
    ))
    return 0


def _run_policies(options: argparse.Namespace, policies: Sequence[Any],
                  render: Callable[..., str], dump_trigger: str = "") -> int:
    """The run path ``gate`` and ``slo`` share: evaluate, report, exit."""
    store = HistoryStore(options.store)
    _require_history(store)
    statuses, findings, groups = evaluate(store, policies,
                                          bench=options.bench)
    if findings and dump_trigger:
        # A failed gate is a post-mortem moment: snapshot whatever the
        # flight recorder holds (no-op while telemetry is off).
        from repro.telemetry import flightrec

        flightrec.recorder.dump(
            dump_trigger,
            extra={"findings": len(findings),
                   "rules": sorted({f.rule_id for f in findings})})
    sys.stdout.write(render(options.format, statuses, findings, groups))
    if store.skipped_lines:
        print(f"warning: {store.skipped_lines} malformed history "
              f"line(s) skipped", file=sys.stderr)
    return 0 if not findings else 1


def _render_gate(fmt: str, statuses: Sequence[Any], findings: Sequence[Any],
                 groups: int) -> str:
    render = render_json if fmt == "json" else render_human
    return render(findings, files_scanned=groups) + "\n"


def _render_slo(fmt: str, statuses: Sequence[Any], findings: Sequence[Any],
                groups: int) -> str:
    if fmt == "json":
        return json.dumps(slo_document(statuses, findings), indent=2,
                          sort_keys=True) + "\n"
    if not findings:
        return render_slo_table(statuses)
    return f"{render_slo_table(statuses)}\n{render_human(findings)}\n"


def _cmd_gate(options: argparse.Namespace) -> int:
    overrides = {"fps": options.fps_drop, "psnr_db": options.psnr_drop,
                 "bitrate_kbps": options.bitrate_growth}
    thresholds = {metric: value for metric, value in overrides.items()
                  if value is not None}
    policies = [
        replace(policy, window=options.window, mad_sigmas=options.mad_sigmas,
                threshold=thresholds.get(policy.metric, policy.threshold))
        for policy in DEFAULT_POLICIES
    ]
    return _run_policies(options, policies, _render_gate,
                         dump_trigger="gate.fail")


def _cmd_slo(options: argparse.Namespace) -> int:
    objectives = (load_slo_spec(options.spec) if options.spec
                  else DEFAULT_SLOS)
    return _run_policies(options, objectives, _render_slo)


def _cmd_timeline(options: argparse.Namespace) -> int:
    import os

    from repro.observe.timeline import (
        build_timeline, load_events_jsonl, load_flight_dumps,
        render_timeline,
    )

    events = (load_events_jsonl(options.events) if options.events else [])
    flight_dir = options.flightrec or os.path.join(options.store,
                                                   "flightrec")
    dumps = load_flight_dumps(flight_dir)
    trace = None
    if options.trace:
        try:
            with open(options.trace, "r", encoding="utf-8") as handle:
                trace = json.load(handle)
        except (OSError, ValueError) as error:
            raise ObserveError(
                f"cannot read trace {options.trace}: {error}") from error
    timeline = build_timeline(options.correlation_id, events=events,
                              dumps=dumps, trace=trace)
    if options.format == "json":
        print(json.dumps(timeline, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_timeline(timeline))
    return 0


def _cmd_tail(options: argparse.Namespace) -> int:
    import os

    from repro.observe.tail import tail_files

    history = os.path.join(options.store, "history.jsonl")
    tail_files(
        history_path=history if os.path.exists(history) else None,
        events_path=options.events or None,
        lines=options.lines,
        follow=options.follow,
        interval=options.interval,
        max_seconds=options.max_seconds,
    )
    return 0


def _cmd_export(options: argparse.Namespace) -> int:
    from repro.observe.export import export_store

    store = HistoryStore(options.store)
    _require_history(store)
    if options.listen:
        from repro.observe.httpd import serve_metrics

        server = serve_metrics(store, options.listen, bench=options.bench)
        print(f"hdvb-observe: serving OpenMetrics on {server.url} "
              f"(Ctrl-C to stop)", file=sys.stderr)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0
    text = export_store(store, bench=options.bench)
    if options.output:
        try:
            # An exposition file is a report, not durable state: a torn
            # write is harmless (the next scrape rewrites it whole).
            with open(options.output, "w",  # hdvb: disable=HDVB190
                      encoding="utf-8") as handle:
                handle.write(text)
        except OSError as error:
            raise ObserveError(
                f"cannot write {options.output}: {error}") from error
        print(f"hdvb-observe: wrote exposition to {options.output}",
              file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compact(options: argparse.Namespace) -> int:
    store = HistoryStore(options.store)
    _require_history(store)
    dropped = store.compact(keep_last=options.keep_last)
    print(f"hdvb-observe: dropped {dropped} record(s), kept newest "
          f"{options.keep_last} per axis", file=sys.stderr)
    return 0


def _cmd_fsck(options: argparse.Namespace) -> int:
    from repro.observe.fsck import FSCK_SCHEMA, fsck_store

    store = HistoryStore(options.store)
    findings = fsck_store(store, repair=options.repair)
    if options.repair and findings:
        # The exit code must certify the post-repair state, not the mess
        # we started from: re-check and report anything still wrong.
        remaining = fsck_store(store, repair=False)
    else:
        remaining = findings
    if options.format == "json":
        print(render_json(findings, schema=FSCK_SCHEMA))
    else:
        print(render_human(findings))
        if options.repair and findings:
            state = "clean" if not remaining else f"{len(remaining)} left"
            print(f"hdvb-observe: repaired {len(findings)} finding(s); "
                  f"re-check {state}", file=sys.stderr)
    return 0 if not remaining else 1


_COMMANDS = {
    "record": _cmd_record,
    "compare": _cmd_compare,
    "trend": _cmd_trend,
    "gate": _cmd_gate,
    "slo": _cmd_slo,
    "timeline": _cmd_timeline,
    "tail": _cmd_tail,
    "export": _cmd_export,
    "compact": _cmd_compact,
    "fsck": _cmd_fsck,
}


def main(argv: Optional[List[str]] = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        return _COMMANDS[options.command](options)
    except ReproError as error:
        print(f"hdvb-observe: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
