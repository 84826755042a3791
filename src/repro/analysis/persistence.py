"""Persistence rule: results go to the store, durable files never tear.

Two questions decide whether a number written by this repo survives to
be compared, and HDVB190 asks each where it matters:

* **Result sinks.**  Benchmark history is only comparable when every
  harness writes through one sink:
  :class:`repro.observe.store.HistoryStore`, whose records the
  regression gate, trend queries and the orchestrator's resume scan
  read.  A ``json.dump`` or a text-mode ``open(..., "w"/"a"/"x")`` in a
  bench or orchestrator module is a side channel none of them sees.
  ``json.dumps`` (rendering to stdout) and binary writes are not sinks.
* **Torn writes.**  The chaos harness certifies crash recovery only for
  writes through the :func:`repro.chaos.fileops` seam -- whole files go
  through :func:`repro.chaos.fsops.atomic_write`.  In ``observe/`` and
  ``orchestrate/`` an ``open`` for writing (text or binary),
  ``.write_text()`` or ``.write_bytes()`` is flagged unless its
  enclosing function routes through ``fileops()`` or swaps a temp into
  place with ``os.replace``.

:data:`SCOPES` says which checks run where.  A call that fails both
checks is reported once, as a sink.  Deliberate non-durable writes
(reports, exports) carry ``# hdvb: disable=HDVB190`` with a comment
saying why tearing is harmless.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleUnit, Rule, dotted_name, in_scope, register

#: One row per scope: (directories, files, what a sink message calls
#: the module, checks that run there).
SCOPES = (
    (("bench/",), ("robustness/bench.py", "transport/bench.py"),
     "a bench module", ("sink",)),
    (("orchestrate/",), (), "an orchestrator module", ("sink", "torn")),
    (("observe/",), (), "an observe module", ("torn",)),
)

#: ``open`` mode characters that create or truncate a file.
_WRITE_MODE_CHARS = frozenset({"w", "a", "x"})

#: Method names that rewrite a whole file in place.
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _open_write_mode(call: ast.Call) -> Optional[str]:
    """The literal mode of an ``open`` call that writes, else ``None``.

    A computed mode cannot be proven either way and stays quiet.
    """
    mode_node: ast.AST = ast.Constant(value="r")
    if len(call.args) >= 2:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if not isinstance(mode_node, ast.Constant) or not isinstance(
        mode_node.value, str
    ):
        return None
    mode = mode_node.value
    return mode if _WRITE_MODE_CHARS & set(mode) else None


def _atomic_calls(unit: ModuleUnit, aliases: Dict[str, str],
                  imported: Dict[str, str]) -> Set[int]:
    """Ids of the calls inside functions that use ``os.replace`` or the
    ``fileops()`` seam: the temp write of a temp-then-swap commit."""
    exempt: Set[int] = set()
    for function in ast.walk(unit.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [node for node in ast.walk(function)
                 if isinstance(node, ast.Call)]
        for call in calls:
            dotted = dotted_name(call.func) or ""
            base = dotted.split(".", 1)[0]
            if ((dotted.endswith(".replace") and aliases.get(base) == "os")
                    or imported.get(dotted, "").endswith("os.replace")
                    or dotted == "fileops" or dotted.endswith(".fileops")):
                exempt.update(map(id, calls))
                break
    return exempt


@register
class PersistenceRule(Rule):
    """HDVB190: results persist via the store; durable writes are atomic."""

    rule_id = "HDVB190"
    name = "persistence"
    rationale = (
        "benchmark results are only gateable and resumable when they "
        "flow through the observe store, and durable state survives a "
        "crash only when written temp+fsync+replace through the chaos "
        "seam; an ad-hoc json.dump or open-for-write in a bench or "
        "orchestrator module is a sink the gate never sees, and a plain "
        "write in observe/ or orchestrate/ can be torn by a crash"
    )
    hint = (
        "append BenchRecords with repro.observe.store.HistoryStore; write "
        "whole files with repro.chaos.fsops.atomic_write; or add "
        "'# hdvb: disable=HDVB190' with a comment saying why"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.tree is None:
            return
        for prefixes, files, label, checks in SCOPES:
            if in_scope(unit.module, prefixes, files):
                break
        else:
            return
        aliases = unit.module_aliases()
        imported = unit.imported_names()
        exempt = (_atomic_calls(unit, aliases, imported)
                  if "torn" in checks else set())
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            message = None
            if "sink" in checks:
                message = _sink_message(dotted, node, label, aliases,
                                        imported)
            if message is None and "torn" in checks and id(node) not in exempt:
                message = _torn_message(dotted, node, imported)
            if message is not None:
                yield self.finding(unit, node, message)


def _sink_message(dotted: str, call: ast.Call, label: str,
                  aliases: Dict[str, str],
                  imported: Dict[str, str]) -> Optional[str]:
    base = dotted.split(".", 1)[0]
    if ((aliases.get(base) == "json" and dotted.endswith(".dump"))
            or imported.get(dotted, "") == "json.dump"):
        return (f"json.dump in {label} is an ad-hoc result sink outside "
                f"the observe store")
    if dotted == "open" and "open" not in imported:
        mode = _open_write_mode(call)
        if mode is not None and "b" not in mode:
            return (f"open(..., mode with 'w'/'a'/'x') in {label} writes "
                    f"results outside the observe store")
    return None


def _torn_message(dotted: str, call: ast.Call,
                  imported: Dict[str, str]) -> Optional[str]:
    if dotted == "open":
        if "open" not in imported and _open_write_mode(call) is not None:
            return ("open() for writing without temp+os.replace in the "
                    "same function is a torn write under crash")
        return None
    method = dotted.rsplit(".", 1)[-1]
    if method in _WRITE_METHODS and "." in dotted:
        return (f"{method}() rewrites the file in place -- a crash "
                f"mid-write leaves it half-written")
    return None
