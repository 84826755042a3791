"""``hdvb-bench``: regenerate every table and figure of the paper.

    hdvb-bench table1|table2|table3|table4   # descriptive tables
    hdvb-bench table5 [--scale 1/8 --frames 9]   (alias: ratedistortion)
    hdvb-bench figure1 [--part a|b|c|d|all] [--realtime]
    hdvb-bench speedups                      # SIMD speed-up aggregate
    hdvb-bench performance [--operation encode|decode] [--backend simd]
                           [--trace out.json]   # telemetry stage breakdown
    hdvb-bench streaming [--loss 0.02,0.05] [--burst 1,3] [--fec 0,4]
                                             # lossy-transport sweep
    hdvb-bench serve [--clients 200 --seeds 0,1 --chaos 0.3]
                                             # multi-client origin serve

Observability: every subcommand takes ``--json`` (emit the results as a
machine-readable ``repro.observe.records/1`` document instead of the
rendered tables), and every measuring subcommand takes ``--record`` /
``--run-id`` / ``--store`` to append the same records to the persistent
benchmark history that ``hdvb-observe`` gates and exports.
"""

from __future__ import annotations

import argparse
import json as json_module
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

import repro.telemetry as telemetry
from repro.bench import commands as commands_module
from repro.bench import registry_tables
from repro.bench.config import BenchConfig
from repro.bench.performance import (
    BACKENDS,
    FIGURE1_PARTS,
    OPERATIONS,
    render_performance,
    run_figure1_part,
    run_performance,
    simd_speedups,
)
from repro.bench.ratedistortion import render_rate_distortion, run_rate_distortion
from repro.errors import ReproError
from repro.observe.record import BenchRecord, RunInfo, records_document


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="1/8",
                        help="linear tier scale, e.g. 1/8 or 1 (full size)")
    parser.add_argument("--frames", type=int, default=9,
                        help="frames per sequence (paper: 100)")
    parser.add_argument("--runs", type=int, default=3,
                        help="timed runs per measurement (paper: 5)")
    parser.add_argument("--qscale", type=int, default=5,
                        help="MPEG quantiser scale (H.264 QP follows Eq. 1)")
    parser.add_argument("--sequences", default="",
                        help="comma-separated subset of sequences")
    parser.add_argument("--tiers", default="",
                        help="comma-separated subset of resolution tiers")
    parser.add_argument("--codecs", default="",
                        help="comma-separated codecs (paper trio by default; "
                             "extensions: mjpeg, vc1)")


def _add_observe_arguments(parser: argparse.ArgumentParser,
                           record: bool = True) -> None:
    """The observability surface shared by every subcommand."""
    parser.add_argument("--json", action="store_true",
                        help="emit a repro.observe.records/1 JSON document "
                             "instead of the rendered tables")
    if record:
        from repro.observe.store import DEFAULT_STORE_DIR

        parser.add_argument("--record", action="store_true",
                            help="append this run's records to the benchmark "
                                 "history store")
        parser.add_argument("--run-id", default="", dest="run_id",
                            help="run id stamped onto the records "
                                 "(default: generated)")
        parser.add_argument("--store", default=DEFAULT_STORE_DIR,
                            metavar="DIR",
                            help=f"history store directory "
                                 f"(default: {DEFAULT_STORE_DIR})")


def _config_from_args(args) -> BenchConfig:
    fields = dict(
        scale=Fraction(args.scale),
        frames=args.frames,
        runs=args.runs,
        qscale=args.qscale,
    )
    if args.sequences:
        fields["sequences"] = tuple(args.sequences.split(","))
    if args.tiers:
        fields["tier_names"] = tuple(args.tiers.split(","))
    if getattr(args, "codecs", ""):
        fields["codecs"] = tuple(args.codecs.split(","))
    return BenchConfig(**fields)


def _progress(message: str) -> None:
    print(f"  .. {message}", file=sys.stderr)


def _run_info(args, config: Optional[BenchConfig] = None) -> RunInfo:
    """The identity stamped onto this invocation's records."""
    from repro.observe.record import context_from_config

    context = context_from_config(config) if config is not None else {}
    return RunInfo.capture(context=context,
                           run_id=getattr(args, "run_id", ""))


def _emit(args, text: str, records: List[BenchRecord],
          info: Optional[RunInfo] = None) -> None:
    """Common output tail: render or dump JSON, then optionally record."""
    if getattr(args, "json", False):
        print(json_module.dumps(
            records_document(records, run_id=info.run_id if info else None),
            indent=2,
        ))
    elif text:
        print(text)
    if getattr(args, "record", False):
        from repro.observe.store import HistoryStore

        store = HistoryStore(args.store)
        count = store.append_many(records)
        run_id = info.run_id if info else (records[0].run_id if records else "?")
        print(f"recorded {count} record(s) under run {run_id} "
              f"in {store.path}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hdvb-bench",
        description="Regenerate the tables and figures of the HD-VideoBench paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("table1", "survey of existing multimedia benchmarks"),
        ("table2", "the HD-VideoBench applications"),
        ("table3", "the input sequences"),
        ("table4", "execution command lines"),
    ):
        static = sub.add_parser(name, help=help_text)
        _add_observe_arguments(static, record=False)

    t5 = sub.add_parser("table5", aliases=["ratedistortion"],
                        help="rate-distortion comparison")
    _add_config_arguments(t5)
    _add_observe_arguments(t5)

    f1 = sub.add_parser("figure1", help="decode/encode throughput, scalar vs SIMD")
    _add_config_arguments(f1)
    _add_observe_arguments(f1)
    f1.add_argument("--part", default="all", choices=tuple(FIGURE1_PARTS) + ("all",),
                    help="panel: a=decode scalar, b=decode simd, "
                         "c=encode scalar, d=encode simd")

    sp = sub.add_parser("speedups", help="per-codec SIMD speed-ups (decode + encode)")
    _add_config_arguments(sp)
    _add_observe_arguments(sp)

    pf = sub.add_parser("performance",
                        help="timed encode/decode run with the telemetry "
                             "stage breakdown (where did the time go)")
    _add_config_arguments(pf)
    _add_observe_arguments(pf)
    pf.add_argument("--operation", default="encode", choices=OPERATIONS,
                    help="what to time (default: encode)")
    pf.add_argument("--backend", default="simd", choices=BACKENDS,
                    help="kernel backend (default: simd)")
    pf.add_argument("--trace", default="", metavar="PATH",
                    help="write the span trace to PATH as JSON")
    pf.add_argument("--trace-format", default="chrome",
                    choices=("chrome", "json"),
                    help="chrome = chrome://tracing loadable (default), "
                         "json = the library's own span schema")

    ch = sub.add_parser("characterize",
                        help="per-kernel workload breakdown (encode + decode)")
    _add_config_arguments(ch)
    _add_observe_arguments(ch)
    ch.add_argument("--codec", default="",
                    help="restrict to one codec (default: all three)")

    rb = sub.add_parser("robustness",
                        help="seeded fault sweep: graceful-failure and "
                             "concealment-success rates per codec")
    _add_observe_arguments(rb)
    rb.add_argument("--codecs", default="",
                    help="comma-separated codecs (default: all five)")
    rb.add_argument("--trials", type=int, default=40,
                    help="corrupted streams per codec")
    rb.add_argument("--seed", type=int, default=0,
                    help="fault-injection seed")
    rb.add_argument("--frames", type=int, default=5,
                    help="frames in the benchmark clip")
    rb.add_argument("--conceal", default="copy-last",
                    help="concealment strategy for the concealed pass")

    st = sub.add_parser("streaming",
                        help="seeded lossy-transport sweep: loss rate x "
                             "burst length x FEC overhead, reporting "
                             "graceful-decode and FEC recovery rates")
    _add_observe_arguments(st)
    st.add_argument("--codecs", default="",
                    help="comma-separated codecs (default: all five)")
    st.add_argument("--loss", default="0.02,0.05,0.10",
                    help="comma-separated packet loss rates")
    st.add_argument("--burst", default="1,3",
                    help="comma-separated mean burst lengths (packets)")
    st.add_argument("--fec", default="0,4",
                    help="comma-separated FEC group sizes (0 = no FEC)")
    st.add_argument("--trials", type=int, default=3,
                    help="seeded channels per grid point")
    st.add_argument("--seed", type=int, default=0,
                    help="channel seed (same seed = same sweep, bit for bit)")
    st.add_argument("--frames", type=int, default=5,
                    help="frames in the benchmark clip")
    st.add_argument("--conceal", default="copy-last",
                    help="concealment strategy at the receiver")

    sv = sub.add_parser("serve",
                        help="multi-client streaming origin under seeded "
                             "traffic and chaos: sessions/s, deadline-miss "
                             "p99, degrade/shed counts, graceful rate")
    _add_observe_arguments(sv)
    sv.add_argument("--clients", type=int, default=16,
                    help="clients in the generated population")
    sv.add_argument("--seeds", default="0",
                    help="comma-separated traffic seeds (one serve run each)")
    sv.add_argument("--codecs", default="h264",
                    help="comma-separated codecs across the population")
    sv.add_argument("--frames", type=int, default=16,
                    help="frames per session (bench clip length)")
    sv.add_argument("--max-sessions", type=int, default=0,
                    dest="max_sessions",
                    help="bounded session table (default: clients, "
                         "i.e. the door never sheds)")
    sv.add_argument("--chaos", type=float, default=0.25,
                    help="fraction of clients with chaos schedules")
    sv.add_argument("--slow-readers", type=float, default=0.2,
                    dest="slow_readers",
                    help="fraction of clients reading slower than realtime")
    sv.add_argument("--max-loss", type=float, default=0.10, dest="max_loss",
                    help="upper bound of per-client packet loss rates")
    sv.add_argument("--ramp", type=float, default=2.0,
                    help="arrival ramp window in virtual seconds")
    sv.add_argument("--events", default="", metavar="PATH",
                    help="enable telemetry for the run and write its "
                         "canonical event JSONL here (bit-reproducible per "
                         "seed); flight dumps land in STORE/flightrec")
    sv.add_argument("--failure-budget", type=int, default=-1,
                    dest="failure_budget",
                    help="transient failures a session tolerates before "
                         "aborting (default: the SessionConfig default; "
                         "0 plus --chaos forces SessionAborted dumps)")

    orc = sub.add_parser("orchestrate",
                         help="run a declarative spec's benchmark matrix "
                              "through the resumable orchestrator and the "
                              "content-addressed artifact cache")
    _add_observe_arguments(orc)
    orc.add_argument("spec", metavar="SPEC",
                     help="run-spec file (JSON; YAML with PyYAML installed)")
    orc.add_argument("--workers", type=int, default=1,
                     help="scheduler process-pool width (default: 1, "
                          "in-process; cells append to the store as they "
                          "finish either way)")
    orc.add_argument("--cache", default="", metavar="DIR",
                     help="artifact cache directory "
                          "(default: .hdvb-artifact-cache)")
    orc.add_argument("--stale-lock-seconds", type=float, default=None,
                     dest="stale_lock_seconds", metavar="SECONDS",
                     help="break single-flight cache locks older than this "
                          "(a dead leader's claim; default: 900)")
    orc.add_argument("--shards", type=int, default=0,
                     help="emit N shard manifests instead of running "
                          "(multi-host execution)")
    orc.add_argument("--manifest-dir", default="manifests",
                     dest="manifest_dir", metavar="DIR",
                     help="where --shards writes the manifests")
    orc.add_argument("--manifest", default="", metavar="PATH",
                     help="run the cells of one shard manifest (written by "
                          "--shards) instead of the full expansion")

    bd = sub.add_parser("bdrate",
                        help="Bjøntegaard deltas vs the MPEG-2 anchor "
                             "(quantiser sweep RD curves)")
    _add_config_arguments(bd)
    _add_observe_arguments(bd)
    bd.add_argument("--qscales", default="2,4,8,16",
                    help="comma-separated quantiser sweep points (>= 4)")

    args = parser.parse_args(argv)
    if args.command == "ratedistortion":
        args.command = "table5"
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"hdvb-bench: {error}", file=sys.stderr)
        return 1


def _static_table(args) -> Tuple[str, str, List[BenchRecord]]:
    from repro.observe.record import records_from_table

    if args.command == "table4":
        headers, rows = commands_module.table4_data()
        text = commands_module.render_table4()
    else:
        data = {
            "table1": registry_tables.table1_data,
            "table2": registry_tables.table2_data,
            "table3": registry_tables.table3_data,
        }[args.command]
        render = {
            "table1": registry_tables.render_table1,
            "table2": registry_tables.render_table2,
            "table3": registry_tables.render_table3,
        }[args.command]
        headers, rows = data()
        text = render()
    info = RunInfo.capture()
    return text, args.command, records_from_table(args.command, headers, rows, info)


def _dispatch(args) -> int:
    if args.command in ("table1", "table2", "table3", "table4"):
        text, _, records = _static_table(args)
        _emit(args, text, records)
    elif args.command == "table5":
        from repro.observe.record import records_from_rate_distortion

        config = _config_from_args(args)
        info = _run_info(args, config)
        rows = run_rate_distortion(config, progress=_progress)
        _emit(args, render_rate_distortion(rows),
              records_from_rate_distortion(rows, info), info)
    elif args.command == "figure1":
        from repro.observe.record import records_from_performance

        config = _config_from_args(args)
        info = _run_info(args, config)
        parts = list(FIGURE1_PARTS) if args.part == "all" else [args.part]
        sections = []
        records: List[BenchRecord] = []
        for part in parts:
            operation, backend = FIGURE1_PARTS[part]
            rows = run_figure1_part(config, part, progress=_progress)
            title = f"Figure 1({part}): {operation} performance, {backend} backend"
            sections.append(render_performance(rows, title))
            records.extend(records_from_performance(rows, info))
        _emit(args, "\n\n".join(sections), records, info)
    elif args.command == "speedups":
        from repro.observe.record import (
            records_from_performance,
            records_from_speedups,
        )

        config = _config_from_args(args)
        info = _run_info(args, config)
        lines = []
        records = []
        for operation in ("decode", "encode"):
            scalar = run_performance(config, operation, "scalar", progress=_progress)
            simd = run_performance(config, operation, "simd", progress=_progress)
            lines.append(f"{operation} SIMD speed-ups:")
            speedups = simd_speedups(scalar, simd)
            for codec, value in speedups.items():
                lines.append(f"  {codec}: {value:.2f}x")
            records.extend(records_from_performance(scalar + simd, info))
            records.extend(records_from_speedups(operation, speedups, info))
        _emit(args, "\n".join(lines), records, info)
    elif args.command == "robustness":
        from repro.observe.record import records_from_robustness
        from repro.robustness.bench import (
            ALL_CODECS,
            render_robustness,
            run_robustness,
        )

        codecs = tuple(args.codecs.split(",")) if args.codecs else ALL_CODECS
        info = _run_info(args)
        info = RunInfo(run_id=info.run_id, created=info.created,
                       git_sha=info.git_sha,
                       context={"trials": args.trials, "seed": args.seed,
                                "frames": args.frames})
        reports = run_robustness(
            codecs=codecs,
            trials=args.trials,
            seed=args.seed,
            frames=args.frames,
            conceal=args.conceal,
            progress=_progress,
        )
        _emit(args, render_robustness(reports),
              records_from_robustness(reports, info), info)
        # A matrix with raw escapes is a failed sweep: the records are
        # persisted above (a partial matrix is still evidence), but the
        # invocation must not report success.
        failed = [report for report in reports
                  if report.raw_escapes or report.failure_examples]
        if failed:
            print(f"hdvb-bench robustness: {len(failed)} codec sweep(s) "
                  f"with raw escapes", file=sys.stderr)
            return 1
    elif args.command == "streaming":
        from repro.observe.record import records_from_streaming
        from repro.robustness.bench import ALL_CODECS
        from repro.transport.bench import render_streaming, run_streaming

        codecs = tuple(args.codecs.split(",")) if args.codecs else ALL_CODECS
        info = _run_info(args)
        info = RunInfo(run_id=info.run_id, created=info.created,
                       git_sha=info.git_sha,
                       context={"trials": args.trials, "seed": args.seed,
                                "frames": args.frames})
        reports = run_streaming(
            codecs=codecs,
            loss_rates=tuple(float(v) for v in args.loss.split(",")),
            burst_lengths=tuple(float(v) for v in args.burst.split(",")),
            fec_groups=tuple(int(v) for v in args.fec.split(",")),
            trials=args.trials,
            seed=args.seed,
            frames=args.frames,
            conceal=args.conceal,
            progress=_progress,
        )
        _emit(args, render_streaming(reports),
              records_from_streaming(reports, info), info)
        failed = [report for report in reports
                  if report.trials - report.graceful > 0]
        if failed:
            print(f"hdvb-bench streaming: {len(failed)} grid point(s) "
                  f"with non-graceful receptions", file=sys.stderr)
            return 1
    elif args.command == "serve":
        from repro.observe.record import records_from_serve
        from repro.origin.bench import render_serve, run_serve

        seeds = tuple(int(value) for value in args.seeds.split(","))
        info = _run_info(args)
        info = RunInfo(run_id=info.run_id, created=info.created,
                       git_sha=info.git_sha,
                       context={"clients": args.clients,
                                "seeds": args.seeds,
                                "frames": args.frames,
                                "chaos": args.chaos})
        events_path = getattr(args, "events", "")
        if events_path:
            _start_telemetry(args)
        session_config = None
        if args.failure_budget >= 0:
            from repro.origin.session import SessionConfig
            session_config = SessionConfig(failure_budget=args.failure_budget)
        try:
            reports = run_serve(
                clients=args.clients,
                seeds=seeds,
                codecs=tuple(args.codecs.split(",")),
                frames=args.frames,
                max_sessions=args.max_sessions or None,
                chaos_rate=args.chaos,
                slow_reader_rate=args.slow_readers,
                max_loss=args.max_loss,
                ramp_seconds=args.ramp,
                session=session_config,
                progress=_progress,
            )
        finally:
            if events_path:
                log = telemetry.current_trace()
                # An event log is a report, not durable state: the next
                # run with --events rewrites it whole.
                with open(events_path, "w",  # hdvb: disable=HDVB190
                          encoding="utf-8") as handle:
                    handle.write(log.to_jsonl())
                print(f"hdvb-bench serve: wrote {len(log.events())} "
                      f"event(s) to {events_path}", file=sys.stderr)
                telemetry.disable()
        _emit(args, render_serve(reports),
              records_from_serve(reports, info), info)
    elif args.command == "orchestrate":
        return _run_orchestrate(args)
    elif args.command == "performance":
        _run_performance_command(args)
    elif args.command == "characterize":
        _run_characterize(args)
    elif args.command == "bdrate":
        _run_bdrate(args)
    return 0


def _run_orchestrate(args) -> int:
    """``hdvb-bench orchestrate``: spec -> cells -> cache -> store.

    Cell records always flow through the history store (that is what
    makes runs resumable); ``--record`` additionally appends the
    run-level summary records that the OBS207 gate reads.  The default
    run id derives from the spec fingerprint, so rerunning an unchanged
    spec resumes it; pass ``--run-id`` to start a fresh campaign.
    Exits 1 when any cell failed.
    """
    from repro.observe.store import HistoryStore
    from repro.orchestrate.artifacts import DEFAULT_CACHE_DIR, ArtifactCache
    from repro.orchestrate.report import (
        render_orchestrate, summarize, summary_records,
    )
    from repro.orchestrate.scheduler import (
        cell_record, load_manifest, run_cells, write_manifests,
    )
    from repro.orchestrate.spec import expand_cells, load_spec

    spec = load_spec(args.spec)
    cells = None
    if args.manifest:
        manifest_spec, fingerprint, cells = load_manifest(args.manifest)
        if fingerprint != spec.fingerprint():
            print(f"hdvb-bench orchestrate: manifest {args.manifest} was "
                  f"planned from spec {manifest_spec} [{fingerprint}], not "
                  f"{spec.name} [{spec.fingerprint()}]", file=sys.stderr)
            return 1
    if args.shards:
        paths = write_manifests(spec, expand_cells(spec), args.shards,
                                args.manifest_dir)
        for path in paths:
            print(path)
        return 0

    run_id = args.run_id or f"{spec.name}-{spec.fingerprint()}"
    info = RunInfo.capture(run_id=run_id)
    store = HistoryStore(args.store)
    cache_kwargs = {}
    if args.stale_lock_seconds is not None:
        cache_kwargs["stale_lock_seconds"] = args.stale_lock_seconds
    cache = ArtifactCache(args.cache or DEFAULT_CACHE_DIR, **cache_kwargs)
    state = run_cells(spec, store, info, cache=cache,
                      scheduler_workers=args.workers, cells=cells,
                      progress=_progress)
    summary = summarize(spec, state, cache)
    records = [cell_record(result, info, summary.spec_fingerprint)
               for result in state.results]
    records += summary_records(summary, info)
    if getattr(args, "json", False):
        print(json_module.dumps(records_document(records, run_id=run_id),
                                indent=2))
    else:
        print(render_orchestrate(summary))
    if getattr(args, "record", False):
        count = store.append_many(summary_records(summary, info))
        print(f"recorded {count} summary record(s) under run {run_id} "
              f"in {store.path} ({len(state.results)} cell records were "
              f"appended during the run)", file=sys.stderr)
    if summary.cells_failed:
        print(f"hdvb-bench orchestrate: {summary.cells_failed} cell(s) "
              f"failed", file=sys.stderr)
        return 1
    return 0


def _start_telemetry(args) -> None:
    """Reset telemetry and turn its one switch on, with flight dumps
    under the run's store."""
    import os

    from repro.telemetry import flightrec

    telemetry.reset()
    flightrec.recorder.configure(dump_dir=os.path.join(args.store,
                                                       "flightrec"))
    telemetry.enable()


def _run_performance_command(args) -> None:
    """``hdvb-bench performance``: fps table + telemetry stage breakdown."""
    import time

    from repro.bench.report import render_telemetry_section
    from repro.observe.record import records_from_performance

    config = _config_from_args(args)
    info = _run_info(args, config)
    _start_telemetry(args)
    try:
        wall_start = time.perf_counter()
        rows = run_performance(config, args.operation, args.backend,
                               progress=_progress)
        wall_seconds = time.perf_counter() - wall_start
    finally:
        telemetry.disable()

    title = f"Performance: {args.operation}, {args.backend} backend"
    text = "\n".join([
        render_performance(rows, title),
        "",
        render_telemetry_section(telemetry.current_trace(),
                                 telemetry.registry(), wall_seconds),
    ])
    snapshot = telemetry.registry().snapshot().to_dict()
    records = records_from_performance(rows, info, telemetry=snapshot)
    _emit(args, text, records, info)
    if args.trace:
        trace = telemetry.current_trace()
        metadata = {
            "tool": "hdvb-bench performance",
            "operation": args.operation,
            "backend": args.backend,
        }
        if args.trace_format == "chrome":
            payload = trace.to_chrome_json(indent=2, metadata=metadata)
        else:
            payload = trace.to_json(indent=2)
        # The trace file is a span dump for chrome://tracing, not a bench
        # result; results go through the store.
        with open(args.trace, "w", encoding="utf-8") as handle:  # hdvb: disable=HDVB190
            handle.write(payload)
        print(f"trace written to {args.trace} ({args.trace_format} format, "
              f"{len(trace.spans())} spans)", file=sys.stderr)


def _run_bdrate(args) -> None:
    from dataclasses import replace

    from repro.bench.ratedistortion import run_rate_distortion
    from repro.common.bdrate import bd_psnr, bd_rate, rd_points_from_rows

    base = _config_from_args(args)
    info = _run_info(args, base)
    qscales = sorted(int(value) for value in args.qscales.split(","))
    all_rows = []
    for qscale in qscales:
        config = replace(base, qscale=qscale)
        all_rows.extend(run_rate_distortion(config, progress=_progress))

    anchor = "mpeg2"
    sequence = base.sequences[0]
    resolution = base.tier_names[0]
    anchor_points = rd_points_from_rows(all_rows, anchor, sequence, resolution)
    lines = [f"Bjøntegaard deltas vs {anchor} "
             f"({sequence}, {resolution}, qscales {qscales}):"]
    records: List[BenchRecord] = []
    for codec in base.codecs:
        if codec == anchor:
            continue
        points = rd_points_from_rows(all_rows, codec, sequence, resolution)
        delta_rate = bd_rate(anchor_points, points)
        delta_psnr = bd_psnr(anchor_points, points)
        lines.append(f"  {codec}: BD-rate {delta_rate:+.1f}%  "
                     f"BD-PSNR {delta_psnr:+.2f} dB")
        records.append(BenchRecord(
            run_id=info.run_id,
            bench="bdrate",
            axes={"codec": codec, "anchor": anchor,
                  "sequence": sequence, "resolution": resolution},
            metrics={"bd_rate_percent": delta_rate, "bd_psnr_db": delta_psnr},
            created=info.created,
            git_sha=info.git_sha,
            context=dict(info.context, qscales=",".join(map(str, qscales))),
        ))
    _emit(args, "\n".join(lines), records, info)


def _run_characterize(args) -> None:
    from repro.bench.characterize import (
        characterize_decode,
        characterize_encode,
        render_profile,
    )
    from repro.sequences import generate_sequence

    config = _config_from_args(args)
    info = _run_info(args, config)
    codecs = (args.codec,) if args.codec else config.codecs
    tier = config.tiers()[0]
    video = generate_sequence(
        config.sequences[0], tier.name, frames=config.frames, scale=config.scale
    )
    sections = []
    records: List[BenchRecord] = []
    for codec in codecs:
        _progress(f"characterize {codec}")
        fields = config.encoder_fields(codec, tier)
        encode_profile, stream = characterize_encode(codec, video, **fields)
        decode_profile, _ = characterize_decode(codec, stream)
        sections.append(render_profile(encode_profile))
        sections.append(render_profile(decode_profile))
        for operation, profile in (("encode", encode_profile),
                                   ("decode", decode_profile)):
            for kernel, stats in sorted(profile.kernels.items()):
                if not stats.calls:
                    continue
                records.append(BenchRecord(
                    run_id=info.run_id,
                    bench="characterize",
                    axes={"codec": codec, "operation": operation,
                          "kernel": kernel},
                    metrics={"calls": float(stats.calls),
                             "samples": float(stats.samples)},
                    created=info.created,
                    git_sha=info.git_sha,
                    context=dict(info.context),
                ))
    _emit(args, "\n\n".join(sections), records, info)


if __name__ == "__main__":
    raise SystemExit(main())
