"""Telemetry-discipline rule: spans are opened only via context manager.

``repro.telemetry.trace.span`` returns a context manager; the span is
recorded by ``__exit__``.  A span that is called and discarded, or
assigned to a variable that never reaches a ``with`` statement, *never
records anything* — and worse, if someone calls ``__enter__`` by hand
and an exception skips the exit, the span stays the open parent of its
thread or task and every subsequent span there nests under it.  The
telemetry overhead gate (<2 %) also assumes the no-op fast path of the
``with`` protocol.  HDVB150 enforces the only safe shape::

    with span("name", attr=...):           # direct
        ...
    handle = span("name")                  # or via a handle that is
    with handle:                           # entered in the same scope
        handle.set(extra=...)
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleUnit, Rule, dotted_name, register

SPAN_FACTORY = "repro.telemetry.trace.span"


def _span_call_names(unit: ModuleUnit) -> Set[str]:
    """Local names bound to the span factory by from-imports."""
    return {
        name for name, origin in unit.imported_names().items()
        if origin == SPAN_FACTORY
    }


def _scopes(tree: ast.Module) -> List[List[ast.stmt]]:
    """Module body plus every function body, each a flat statement list."""
    bodies = [tree.body]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bodies.append(node.body)
    return bodies


def _walk_scope(stmts: List[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function scopes."""
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # its body is a separate scope
        stack.extend(ast.iter_child_nodes(node))


@register
class SpanContextRule(Rule):
    """HDVB150: telemetry spans open only through `with`."""

    rule_id = "HDVB150"
    name = "span-context"
    rationale = (
        "a span records itself in __exit__; opening one outside a with "
        "block either records nothing (discarded handle) or leaves it the "
        "parent of every later span (manual __enter__ without a "
        "guaranteed exit)"
    )
    hint = "wrap the call: `with span(...):` (a named handle must be entered too)"

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.tree is None or unit.module.startswith("telemetry/"):
            return
        span_names = _span_call_names(unit)
        # Direct module use (`trace.span(...)`) resolves through aliases.
        aliases = unit.module_aliases()

        def is_span_call(node: ast.AST) -> bool:
            if not isinstance(node, ast.Call):
                return False
            dotted = dotted_name(node.func)
            if dotted is None:
                return False
            if dotted in span_names:
                return True
            base = dotted.split(".", 1)[0]
            origin = aliases.get(base)
            if origin is None or "." not in dotted:
                return False
            resolved = origin + "." + dotted.split(".", 1)[1]
            return resolved == SPAN_FACTORY

        for body in _scopes(unit.tree):
            entered_names: Set[str] = set()
            span_assignments = {}  # name -> assignment node
            suspicious: List[ast.AST] = []
            for node in _walk_scope(body):
                if isinstance(node, ast.With):
                    for item in node.items:
                        if is_span_call(item.context_expr):
                            pass  # the sanctioned direct form
                        elif isinstance(item.context_expr, ast.Name):
                            entered_names.add(item.context_expr.id)
                elif isinstance(node, ast.Assign) and is_span_call(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            span_assignments[target.id] = node
                elif isinstance(node, ast.Expr) and is_span_call(node.value):
                    suspicious.append(node)
                elif isinstance(node, ast.Return) and node.value is not None \
                        and is_span_call(node.value):
                    suspicious.append(node)
            for node in suspicious:
                yield self.finding(
                    unit, node,
                    "span opened outside a `with` statement never records "
                    "(or leaks past an exception)",
                )
            for name, assignment in span_assignments.items():
                if name not in entered_names:
                    yield self.finding(
                        unit, assignment,
                        f"span handle '{name}' is never entered with a "
                        f"`with` statement in this scope",
                    )
