"""Baseline files: grandfathered findings that don't fail the build.

A baseline entry matches a finding by ``(rule, module, message)`` — line
numbers are deliberately excluded so unrelated edits don't invalidate the
baseline.  Every entry carries a mandatory ``reason`` string: a baseline
is a debt register, not a mute button, and the committed file is expected
to stay empty or near-empty (fix violations instead of listing them).

Schema (``.hdvb-lint-baseline.json``)::

    {
      "schema": "repro.analysis.baseline/1",
      "entries": [
        {"rule": "HDVB111", "module": "robustness/bench.py",
         "message": "...", "reason": "why this is grandfathered"}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.chaos.fsops import atomic_write

BASELINE_SCHEMA = "repro.analysis.baseline/1"
DEFAULT_BASELINE_NAME = ".hdvb-lint-baseline.json"


class BaselineError(Exception):
    """The baseline file is missing, unreadable, malformed or unwritable."""


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    module: str
    message: str
    reason: str

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.rule, self.module, self.message)


@dataclass
class Baseline:
    entries: List[BaselineEntry]

    @property
    def keys(self) -> Set[Tuple[str, str, str]]:
        return {entry.key for entry in self.entries}

    def split(self, findings: Sequence[Finding]) -> Tuple[
        List[Finding], List[Finding], List[BaselineEntry]
    ]:
        """Partition findings into (fresh, baselined); also stale entries."""
        keys = self.keys
        fresh = [f for f in findings if f.baseline_key not in keys]
        matched = [f for f in findings if f.baseline_key in keys]
        seen = {f.baseline_key for f in matched}
        stale = [entry for entry in self.entries if entry.key not in seen]
        return fresh, matched, stale


def empty_baseline() -> Baseline:
    return Baseline(entries=[])


def load_baseline(path: Path) -> Baseline:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise BaselineError(f"cannot read baseline {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise BaselineError(f"baseline {path} is not valid JSON: {error}") from error
    if not isinstance(document, dict) or document.get("schema") != BASELINE_SCHEMA:
        raise BaselineError(
            f"baseline {path} must declare schema {BASELINE_SCHEMA!r}"
        )
    raw_entries = document.get("entries")
    if not isinstance(raw_entries, list):
        raise BaselineError(f"baseline {path}: 'entries' must be a list")
    entries = []
    for index, raw in enumerate(raw_entries):
        if not isinstance(raw, dict):
            raise BaselineError(f"baseline {path}: entries[{index}] must be an object")
        missing = [key for key in ("rule", "module", "message", "reason")
                   if not isinstance(raw.get(key), str) or not raw.get(key)]
        if missing:
            raise BaselineError(
                f"baseline {path}: entries[{index}] missing/empty {missing} "
                f"(every grandfathered finding needs a justification)"
            )
        entries.append(BaselineEntry(
            rule=raw["rule"], module=raw["module"],
            message=raw["message"], reason=raw["reason"],
        ))
    return Baseline(entries=entries)


def prune_stale(path: Path, stale: Sequence[BaselineEntry]) -> int:
    """Rewrite ``path`` without the ``stale`` entries.

    Surviving entries keep their reasons, their key order and the exact
    serialisation :func:`write_baseline` produces, so pruning is a
    deterministic rewrite — running it twice is byte-identical — and
    never the hand-edit the stale-baseline report used to demand.
    Returns the number of entries removed.
    """
    baseline = load_baseline(path)
    stale_keys = {entry.key for entry in stale}
    kept = [entry for entry in baseline.entries
            if entry.key not in stale_keys]
    removed = len(baseline.entries) - len(kept)
    if removed:
        _write(path, kept)
    return removed


def write_baseline(path: Path, findings: Sequence[Finding],
                   reason: str = "TODO: justify or fix") -> None:
    """Write ``findings`` as a fresh baseline (each entry needs review)."""
    _write(path, [
        BaselineEntry(rule=finding.rule_id,
                      module=finding.module or finding.path,
                      message=finding.message, reason=reason)
        for finding in findings
    ])


def _write(path: Path, entries: Sequence[BaselineEntry]) -> None:
    """Replace ``path`` with ``entries`` through ``atomic_write``: a
    failed rewrite raises BaselineError and leaves the old file as it
    was, byte for byte."""
    document = {
        "schema": BASELINE_SCHEMA,
        "entries": [
            {"rule": entry.rule, "module": entry.module,
             "message": entry.message, "reason": entry.reason}
            for entry in entries
        ],
    }
    try:
        atomic_write(path, (json.dumps(document, indent=2) + "\n").encode())
    except OSError as error:
        raise BaselineError(
            f"cannot write baseline {path}: {error}") from error
