"""``hdvb-lint``: the codec-invariant static-analysis gate.

Usage::

    hdvb-lint [paths ...] [--format human|json] [--baseline FILE]
              [--no-baseline] [--write-baseline] [--prune-stale]
              [--select IDS] [--ignore IDS] [--list-rules]
              [--cache [DIR]] [--no-cache] [--changed-only [REF]]
    hdvb-lint graph [paths ...] [--format dot|json] [--cache [DIR]]

Exit codes: 0 — clean (every finding suppressed or baselined); 1 — at
least one non-baselined finding; 2 — usage or I/O error.

The ``graph`` subcommand exports the whole-program call graph the
HDVB2xx rules run on — ``--format json`` emits the
``repro.analysis.graph/1`` document (with the honest unresolved-edge
accounting), ``--format dot`` a Graphviz rendering clustered by module.

``--cache DIR`` keys parsed ASTs and the call graph by content sha256,
so warm re-lints skip parsing and graph construction entirely;
``--no-cache`` wins when both are given.  ``--changed-only [REF]``
(default ``HEAD``) scopes per-module rules to files changed vs the git
ref — the graph is still built whole-program, so the interprocedural
rules stay sound.  ``--prune-stale`` rewrites the baseline file without
its stale entries, preserving reasons and order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    BaselineError,
    empty_baseline,
    load_baseline,
    prune_stale,
    write_baseline,
)
from repro.analysis.cache import DEFAULT_CACHE_DIR, LintCache
from repro.analysis.engine import (
    ChangedOnlyError,
    LintResult,
    git_changed_modules,
    load_units,
    prepare_project,
    run,
    save_cache,
)
from repro.analysis.reporters import render_human, render_json
from repro.analysis.rules import all_rules


def _parse_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [token.strip() for token in raw.split(",") if token.strip()]


def _default_paths(paths: Optional[List[str]]) -> List[str]:
    return paths or (["src"] if Path("src").is_dir() else ["."])


def _cache_from(options: argparse.Namespace) -> Optional[LintCache]:
    if getattr(options, "no_cache", False) or options.cache is None:
        return None
    return LintCache(Path(options.cache))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdvb-lint",
        description="AST lint pass enforcing the HD-VideoBench reproduction "
                    "invariants (determinism, error taxonomy, kernel parity, "
                    "pickle safety, bitstream seams, telemetry discipline, "
                    "whole-program taint/blocking/escape flow).",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to lint (default: src/)")
    parser.add_argument("--format", choices=("human", "json"), default="human",
                        help="report format (default: human)")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help=f"baseline file (default: ./{DEFAULT_BASELINE_NAME} "
                             f"when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write current findings to the baseline file and "
                             "exit 0 (each entry still needs a hand-written "
                             "reason)")
    parser.add_argument("--prune-stale", action="store_true",
                        help="rewrite the baseline file without entries that "
                             "no longer match any finding (reasons and order "
                             "preserved)")
    parser.add_argument("--select", metavar="IDS", default=None,
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--ignore", metavar="IDS", default=None,
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--cache", metavar="DIR", nargs="?",
                        const=DEFAULT_CACHE_DIR, default=None,
                        help=f"content-hash AST/graph cache directory "
                             f"(default when bare: ./{DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the cache even when --cache is given")
    parser.add_argument("--changed-only", metavar="REF", nargs="?",
                        const="HEAD", default=None,
                        help="scope per-module rules to files changed vs the "
                             "git ref (default when bare: HEAD); the call "
                             "graph is still whole-program")
    return parser


def build_graph_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdvb-lint graph",
        description="Export the whole-program call graph the HDVB2xx rules "
                    "run on, with its unresolved-edge accounting.",
    )
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to graph (default: src/)")
    parser.add_argument("--format", choices=("dot", "json"), default="json",
                        help="export format (default: json)")
    parser.add_argument("--cache", metavar="DIR", nargs="?",
                        const=DEFAULT_CACHE_DIR, default=None,
                        help="content-hash cache directory to reuse")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the cache even when --cache is given")
    return parser


def _rule_catalogue() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id} {rule.name}")
        lines.append(f"    {rule.rationale}")
        if rule.hint:
            lines.append(f"    fix: {rule.hint}")
    return "\n".join(lines)


def graph_main(argv: Optional[List[str]] = None) -> int:
    """The ``hdvb-lint graph`` subcommand."""
    options = build_graph_parser().parse_args(argv)
    cache = _cache_from(options)
    try:
        units, module_shas = load_units(_default_paths(options.paths), cache)
    except FileNotFoundError as error:
        print(f"hdvb-lint: {error}", file=sys.stderr)
        return 2
    project, key = prepare_project(units, module_shas, cache)
    graph = project.graph()
    if options.format == "json":
        print(json.dumps(graph.to_document(), indent=2, sort_keys=True))
    else:
        print(graph.to_dot())
    save_cache(project, key, module_shas, cache)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "graph":
        return graph_main(argv[1:])

    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_rule_catalogue())
        return 0

    paths = _default_paths(options.paths)

    baseline_path = Path(options.baseline) if options.baseline else Path(
        DEFAULT_BASELINE_NAME
    )
    baseline = empty_baseline()
    if not options.no_baseline and not options.write_baseline:
        if options.baseline or baseline_path.is_file():
            try:
                baseline = load_baseline(baseline_path)
            except BaselineError as error:
                print(f"hdvb-lint: {error}", file=sys.stderr)
                return 2

    changed_modules = None
    if options.changed_only is not None:
        try:
            changed_modules = git_changed_modules(options.changed_only)
        except ChangedOnlyError as error:
            print(f"hdvb-lint: {error}", file=sys.stderr)
            return 2

    try:
        result: LintResult = run(
            paths,
            baseline=baseline,
            select=_parse_ids(options.select),
            ignore=_parse_ids(options.ignore),
            cache=_cache_from(options),
            changed_modules=changed_modules,
        )
    except FileNotFoundError as error:
        print(f"hdvb-lint: {error}", file=sys.stderr)
        return 2

    if options.write_baseline:
        try:
            write_baseline(baseline_path, result.findings)
        except BaselineError as error:
            print(f"hdvb-lint: {error}", file=sys.stderr)
            return 2
        print(f"hdvb-lint: wrote {len(result.findings)} entr"
              f"{'y' if len(result.findings) == 1 else 'ies'} to "
              f"{baseline_path} -- add a reason to each before committing")
        return 0

    if options.prune_stale and result.stale_baseline:
        try:
            removed = prune_stale(baseline_path, result.stale_baseline)
        except BaselineError as error:
            print(f"hdvb-lint: {error}", file=sys.stderr)
            return 2
        print(f"hdvb-lint: pruned {removed} stale baseline entr"
              f"{'y' if removed == 1 else 'ies'} from {baseline_path}")
        result.stale_baseline = []

    stats = {
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "baselined": len(result.baselined),
        "stale_baseline": result.stale_descriptions(),
    }
    if options.format == "json":
        print(render_json(result.findings, **stats))
    else:
        print(render_human(result.findings, **stats))
    return 0 if result.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
