"""fsck for the artifact cache: re-verify content addresses, heal debris.

``hdvb-cache fsck`` walks the cache layout
(``<root>/<fp[:2]>/<fp>/{artifact.hdvb,meta.json}`` + ``<fp>.lock``)
and reports problems as ``repro.chaos.fsck/1`` findings (the lint
reporters reused, like :mod:`repro.observe.fsck`):

========  ============================================================
FSCK310   uncommitted entry -- a dir with no ``meta.json`` (a crash
          before the commit point; the entry never logically existed)
FSCK311   corrupt ``meta.json`` (unreadable / bad JSON / wrong schema)
FSCK312   artifact does not match its content address: missing file,
          size mismatch, or SHA-256 digest mismatch (bit flip)
FSCK313   orphan ``*.tmp`` (a crash between temp write and swap)
FSCK314   stale single-flight lock (a dead leader's claim)
FSCK315   meta predates digest coverage (no ``sha256`` field)
========  ============================================================

Repair semantics:

* FSCK310 / FSCK313 — **delete**: the debris is by construction a
  strict subset of what the next producer regenerates;
* FSCK311 / FSCK312 — **quarantine**: the entry directory moves to
  ``<root>/quarantine/<fingerprint>`` (kept for inspection), so the
  fingerprint misses and the next ``ensure`` re-produces it;
* FSCK314 — **break** the lock (through the cache's counted
  stale-lock path, so ``cache.stale_locks_broken`` telemetry fires);
* FSCK315 — **upgrade**: compute the digest of the artifact that is
  actually on disk and rewrite the meta with ``atomic_write``;
* a healthy cache is never modified.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.findings import Finding
from repro.chaos.fsops import atomic_write, fileops
from repro.errors import OrchestrateError
from repro.orchestrate.artifacts import ARTIFACT_SCHEMA, ArtifactCache

#: Where quarantined entries move, inside the cache root.
QUARANTINE_DIRNAME = "quarantine"


def _finding(rule_id: str, path: Path, message: str, hint: str) -> Finding:
    return Finding(rule_id=rule_id, path=str(path), line=0, message=message,
                   module=str(path), hint=hint)


def _quarantine_entry(cache: ArtifactCache, entry_dir: Path) -> None:
    target_root = cache.root / QUARANTINE_DIRNAME
    target_root.mkdir(parents=True, exist_ok=True)
    target = target_root / entry_dir.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = target_root / f"{entry_dir.name}.{suffix}"
    try:
        fileops().replace(str(entry_dir), str(target))
    except OSError as error:
        raise OrchestrateError(
            f"cannot quarantine cache entry {entry_dir}: {error}") from error


def _check_entry(cache: ArtifactCache, entry_dir: Path, repair: bool,
                 findings: List[Finding]) -> None:
    meta_path = entry_dir / "meta.json"
    artifact_path = entry_dir / "artifact.hdvb"
    if not meta_path.is_file():
        findings.append(_finding(
            "FSCK310", entry_dir,
            "uncommitted cache entry (no meta.json commit point)",
            "run `hdvb-cache fsck --repair` to delete it"))
        if repair:
            shutil.rmtree(str(entry_dir), ignore_errors=True)
        return
    meta_error: Optional[str] = None
    meta: dict = {}
    try:
        parsed = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        meta_error = str(error)
    else:
        if not isinstance(parsed, dict):
            meta_error = "meta is not a JSON object"
        elif parsed.get("schema") != ARTIFACT_SCHEMA:
            meta_error = (f"schema is {parsed.get('schema')!r}, expected "
                          f"{ARTIFACT_SCHEMA!r}")
        else:
            meta = parsed
    if meta_error is not None:
        findings.append(_finding(
            "FSCK311", meta_path, f"corrupt cache meta: {meta_error}",
            "run `hdvb-cache fsck --repair` to quarantine the entry"))
        if repair:
            _quarantine_entry(cache, entry_dir)
        return
    if not artifact_path.is_file():
        findings.append(_finding(
            "FSCK312", artifact_path,
            "committed entry has no artifact file",
            "run `hdvb-cache fsck --repair` to quarantine the entry"))
        if repair:
            _quarantine_entry(cache, entry_dir)
        return
    try:
        payload = artifact_path.read_bytes()
    except OSError as error:
        raise OrchestrateError(
            f"cannot read cache artifact {artifact_path}: {error}") from error
    expected_bytes = meta.get("bytes")
    expected_digest = meta.get("sha256")
    if expected_digest is None:
        findings.append(_finding(
            "FSCK315", meta_path,
            "meta predates digest coverage (no sha256 field)",
            "run `hdvb-cache fsck --repair` to record the digest"))
        if repair:
            meta["sha256"] = hashlib.sha256(payload).hexdigest()
            try:
                atomic_write(meta_path, json.dumps(
                    meta, sort_keys=True, indent=2).encode("utf-8"))
            except OSError as error:
                raise OrchestrateError(f"cannot rewrite cache meta "
                                       f"{meta_path}: {error}") from error
        return
    actual_digest = hashlib.sha256(payload).hexdigest()
    if ((isinstance(expected_bytes, int) and expected_bytes != len(payload))
            or actual_digest != expected_digest):
        findings.append(_finding(
            "FSCK312", artifact_path,
            f"artifact does not match its content address: "
            f"{len(payload)} byte(s), sha256 {actual_digest[:12]}… vs "
            f"recorded {str(expected_digest)[:12]}…",
            "run `hdvb-cache fsck --repair` to quarantine the entry"))
        if repair:
            _quarantine_entry(cache, entry_dir)


def fsck_cache(cache: ArtifactCache, repair: bool = False,
               lock_age: Optional[float] = None) -> List[Finding]:
    """Check (and with ``repair=True`` heal) one artifact cache.

    ``lock_age`` overrides the staleness threshold for FSCK314 —
    recovery harnesses pass ``0.0`` when every lock owner is known dead
    (the process that held them was killed).  Returns the findings
    describing the pre-repair state; after a successful repair a second
    ``fsck_cache`` returns ``[]``.
    """
    findings: List[Finding] = []
    root = cache.root
    if not root.is_dir():
        return findings
    threshold = cache.stale_lock_seconds if lock_age is None else lock_age
    for shard in sorted(root.iterdir()):
        if shard.name == QUARANTINE_DIRNAME or not shard.is_dir():
            continue
        for item in sorted(shard.iterdir()):
            if item.is_dir():
                _check_entry(cache, item, repair, findings)
                for temp in sorted(item.glob("*.tmp")):
                    findings.append(_finding(
                        "FSCK313", temp,
                        "orphan temp file (crash between write and swap)",
                        "run `hdvb-cache fsck --repair` to delete it"))
                    if repair:
                        _delete(temp)
            elif item.suffix == ".lock":
                try:
                    # Same mtime-vs-epoch comparison as _break_stale_lock:
                    # the wall clock is the only clock comparable to
                    # st_mtime, and lock repair is operational hygiene.
                    age = time.time() - item.stat().st_mtime  # hdvb: disable=HDVB200
                except OSError:
                    continue        # released while we looked
                if age > threshold or threshold <= 0.0:
                    findings.append(_finding(
                        "FSCK314", item,
                        f"stale single-flight lock ({age:.0f}s old)",
                        "run `hdvb-cache fsck --repair` to break it"))
                    if repair:
                        cache._break_stale_lock(item, age_limit=threshold)
            elif item.suffix == ".tmp":
                findings.append(_finding(
                    "FSCK313", item,
                    "orphan temp file (crash between write and swap)",
                    "run `hdvb-cache fsck --repair` to delete it"))
                if repair:
                    _delete(item)
    return findings


def _delete(path: Path) -> None:
    try:
        os.unlink(str(path))
    except OSError as error:
        raise OrchestrateError(
            f"cannot delete orphan temp {path}: {error}") from error


__all__ = [
    "QUARANTINE_DIRNAME",
    "fsck_cache",
]
