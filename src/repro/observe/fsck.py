"""fsck for the history store: locate, report and quarantine corruption.

``hdvb-observe fsck`` walks the store with the byte-exact
:meth:`~repro.observe.store.HistoryStore.scan` and reports every problem
as a :class:`~repro.analysis.findings.Finding` under the
``repro.chaos.fsck/1`` schema (the lint reporters are reused verbatim,
so fsck output renders and serialises exactly like ``hdvb-lint``
output):

========  ============================================================
FSCK301   malformed line (invalid JSON / failed record validation)
FSCK302   truncated tail -- the torn-append signature
FSCK303   orphan rewrite temp (a crash between temp write + swap in
          compaction or in this repair)
========  ============================================================

Repair (``--repair``) is conservative and loss-free:

* good lines are preserved **byte-identically** — the repaired history
  is the original file minus the bad byte ranges, rewritten with
  :func:`~repro.chaos.fsops.atomic_write`;
* every removed range is quarantined, not deleted: appended to
  ``quarantine.jsonl`` as a ``repro.chaos.quarantine/1`` envelope
  carrying the original offset, reason and base64 payload, so a human
  (or a smarter future repair) can still recover it;
* orphan temps are deleted (their content is by construction a strict
  subset of what a re-run regenerates);
* a healthy store is **never modified** — no rewrite, no temp churn,
  zero findings, exit 0.

A quarantined ``orchestrate`` record stops matching
:func:`repro.orchestrate.scheduler.completed_cell_ids`, so the cell it
recorded becomes retryable on resume — quarantine never strands a run.
"""

from __future__ import annotations

import base64
import json
import os
from typing import List

from repro.analysis.findings import Finding
from repro.chaos.fsops import atomic_write, fileops
from repro.errors import ObserveError
from repro.observe.store import HistoryStore, MalformedLine

#: Schema id of an fsck findings document (observe and cache alike).
FSCK_SCHEMA = "repro.chaos.fsck/1"

#: Schema id of one quarantined-corruption envelope.
QUARANTINE_SCHEMA = "repro.chaos.quarantine/1"

_REASON_RULES = {
    "invalid-json": ("FSCK301", "malformed history line"),
    "invalid-record": ("FSCK301", "history line fails record validation"),
    "truncated-tail": ("FSCK302", "truncated history tail (torn append)"),
}


def _line_finding(store: HistoryStore, bad: MalformedLine,
                  line_number: int) -> Finding:
    rule_id, label = _REASON_RULES.get(
        bad.reason, ("FSCK301", "malformed history line"))
    return Finding(
        rule_id=rule_id,
        path=str(store.path),
        line=line_number,
        message=(f"{label}: {bad.length} byte(s) at offset {bad.offset} "
                 f"({bad.reason})"),
        module=str(store.path),
        hint="run `hdvb-observe fsck --repair` to quarantine the bad bytes",
    )


def quarantine_envelope(bad: MalformedLine) -> str:
    """The JSONL envelope a quarantined range is stored as."""
    return json.dumps({
        "schema": QUARANTINE_SCHEMA,
        "offset": bad.offset,
        "length": bad.length,
        "reason": bad.reason,
        "data": base64.b64encode(bad.data).decode("ascii"),
    }, sort_keys=True, separators=(",", ":"))


def fsck_store(store: HistoryStore, repair: bool = False) -> List[Finding]:
    """Check (and with ``repair=True`` heal) one history store.

    Returns the findings describing the pre-repair state; after a
    successful repair a second ``fsck_store`` returns ``[]``.
    """
    findings: List[Finding] = []
    entries = store.scan()

    line_number = 0
    for record, bad in entries:
        line_number += 1
        if bad is not None:
            findings.append(_line_finding(store, bad, line_number))

    temp = store.compact_tmp_path
    if temp.is_file():
        findings.append(Finding(
            rule_id="FSCK303",
            path=str(temp),
            line=0,
            message="orphan rewrite temp (crash between write and swap)",
            module=str(temp),
            hint="run `hdvb-observe fsck --repair` to delete it",
        ))

    if repair and findings:
        _repair(store)
    return findings


def _repair(store: HistoryStore) -> None:
    ops = fileops()
    if store.malformed:
        # Quarantine first (append-only, so a crash mid-repair at worst
        # quarantines a range twice -- never loses it), then rewrite the
        # history from the good byte ranges, atomically.
        envelopes = "".join(quarantine_envelope(bad) + "\n"
                            for bad in store.malformed).encode("utf-8")
        try:
            descriptor = ops.open(
                str(store.quarantine_path),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                written = ops.write(descriptor, envelopes,
                                    path=str(store.quarantine_path))
                if written != len(envelopes):
                    raise ObserveError(
                        f"short write to {store.quarantine_path}: "
                        f"{written}/{len(envelopes)} bytes")
            finally:
                ops.close(descriptor)
            raw = ops.read_bytes(str(store.path))
            keep: List[bytes] = []
            cursor = 0
            for bad in store.malformed:
                keep.append(raw[cursor:bad.offset])
                cursor = bad.offset + bad.length
            keep.append(raw[cursor:])
            atomic_write(store.path, b"".join(keep))
        except OSError as error:
            raise ObserveError(f"fsck repair of {store.path} failed: "
                               f"{error}") from error
    temp_path = store.compact_tmp_path
    if temp_path.is_file():
        try:
            ops.unlink(str(temp_path))
        except OSError as error:
            raise ObserveError(f"cannot delete orphan temp {temp_path}: "
                               f"{error}") from error


__all__ = [
    "FSCK_SCHEMA",
    "QUARANTINE_SCHEMA",
    "fsck_store",
    "quarantine_envelope",
]
