"""Error-taxonomy rules: decode paths speak ReproError, handlers don't swallow.

The hardened decode engine guarantees that *every* failure escaping a
decode is a :class:`~repro.errors.ReproError` subclass carrying codec /
picture / bit-position context (see ``robustness/guard.py``).  That
guarantee has two static halves:

* code that parses untrusted payloads must *raise* taxonomy errors in the
  first place — a ``ValueError`` from ``BitReader`` technically gets
  wrapped later, but loses its class and teaches callers to catch the
  wrong thing (HDVB110).  The orchestrator gets the same check against
  its own class: a builtin raised from spec parsing or cache I/O loses
  the spec/cell identity an :class:`~repro.errors.OrchestrateError`
  carries;
* no handler may silently swallow a broad exception class — a blind
  ``except Exception: pass`` hides corruption the robustness metrics are
  supposed to count (HDVB111).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleUnit, Rule, in_scope, register

#: Modules that parse untrusted payloads or receive from the network.
DECODE_SCOPE: Tuple[str, ...] = ("codecs/", "robustness/", "transport/")
DECODE_FILES: Tuple[str, ...] = (
    "common/bitstream.py", "common/expgolomb.py",
)

#: The sanctioned taxonomy (``repro.errors``).
TAXONOMY = frozenset({
    "ReproError", "BitstreamError", "TruncationError", "CodecError",
    "ConfigError", "SequenceError",
})

#: Builtin exception classes that must not escape a decode path raw.
FORBIDDEN_RAISES = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "LookupError", "ArithmeticError", "ZeroDivisionError",
    "OverflowError", "RuntimeError", "OSError", "IOError", "EOFError",
    "AttributeError", "AssertionError", "StopIteration", "SystemError",
    "BufferError", "MemoryError", "UnicodeDecodeError",
})

#: HDVB110 scopes: (directories, files, message naming the class to
#: raise instead, hint).
RAISE_SCOPES = (
    (DECODE_SCOPE, DECODE_FILES,
     "decode path raises builtin {name} instead of a ReproError subclass",
     "raise a repro.errors taxonomy class (BitstreamError, "
     "TruncationError, CodecError, ConfigError, SequenceError)"),
    (("orchestrate/",), (),
     "orchestrator code raises builtin {name} instead of OrchestrateError",
     "raise repro.errors.OrchestrateError (spec=..., cell=...) instead of "
     "a builtin exception"),
)

#: Handler types considered "blind" when they catch-and-discard.
BROAD_EXCEPTS = frozenset({"Exception", "BaseException"})


@register
class RaiseTaxonomyRule(Rule):
    """HDVB110: decode/receive paths raise only ReproError subclasses,
    orchestrator code only OrchestrateError."""

    rule_id = "HDVB110"
    name = "raise-taxonomy"
    rationale = (
        "the hardened decode contract is that every failure reaching a "
        "caller is a ReproError with decode context; raising builtin "
        "exceptions from parse paths forces guard-layer guessing and "
        "breaks isinstance-based recovery decisions (re-fetch vs conceal), "
        "and an orchestrator failure that is not an OrchestrateError loses "
        "the spec/cell identity that makes a matrix failure attributable"
    )
    hint = RAISE_SCOPES[0][3]

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.tree is None:
            return
        for prefixes, files, message, hint in RAISE_SCOPES:
            if in_scope(unit.module, prefixes, files):
                break
        else:
            return
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc
            if isinstance(target, ast.Call):
                target = target.func
            if isinstance(target, ast.Name) and target.id in FORBIDDEN_RAISES:
                yield self.finding(unit, node,
                                   message.format(name=target.id), hint)


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(
        isinstance(item, ast.Name) and item.id in BROAD_EXCEPTS
        for item in types
    )


def _body_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in ast.walk(handler))


def _body_uses_binding(handler: ast.ExceptHandler) -> bool:
    if handler.name is None:
        return False
    return any(
        isinstance(node, ast.Name) and node.id == handler.name
        and isinstance(node.ctx, ast.Load)
        for child in handler.body
        for node in ast.walk(child)
    )


@register
class BlindExceptRule(Rule):
    """HDVB111: no bare/blind except that swallows without context."""

    rule_id = "HDVB111"
    name = "blind-except"
    rationale = (
        "a handler that catches Exception and neither re-raises nor "
        "records the error erases exactly the evidence the robustness "
        "metrics and concealment events exist to preserve"
    )
    hint = (
        "catch the narrowest taxonomy class, re-raise, or bind the error "
        "(`except Exception as error:`) and record it"
    )

    def check(self, unit: ModuleUnit) -> Iterator[Finding]:
        if unit.tree is None:
            return
        for node in ast.walk(unit.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    unit, node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt "
                    "and swallows every error class",
                )
                continue
            if not _handler_is_broad(node):
                continue
            if _body_reraises(node) or _body_uses_binding(node):
                continue
            yield self.finding(
                unit, node,
                "blind `except Exception` swallows the error without "
                "re-raising or recording it",
            )
