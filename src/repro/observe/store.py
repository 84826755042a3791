"""The append-only benchmark history store (``.hdvb-bench-history/``).

One JSONL file, one :class:`~repro.observe.record.BenchRecord` per line,
newest last.  Three properties matter:

* **atomic appends** — each record is serialised to a single line and
  written with one ``os.write`` on an ``O_APPEND`` descriptor, so
  concurrent recorders (parallel CI shards, a bench running while the
  gate reads) interleave whole lines, never torn ones;
* **tolerant reads** — a malformed line (a crashed writer, a hand edit)
  is counted and skipped, not fatal: one bad record must not take the
  whole trajectory with it.  :meth:`HistoryStore.scan` records the byte
  ``(offset, length, reason)`` of every bad line so
  :mod:`repro.observe.fsck` can quarantine precisely instead of
  rewriting the whole file;
* **bounded growth** — :meth:`HistoryStore.compact` keeps the newest N
  records per (bench, axis) and atomically replaces the file
  (:func:`repro.chaos.fsops.atomic_write`), preserving relative order.

All critical writes go through the :func:`repro.chaos.fileops` seam and
announce named crash points, so the chaos harness
(:mod:`repro.chaos.harness`) can kill this code at every seam and prove
fsck + resume recover bit-identically.

The store is the single sanctioned result sink: ``hdvb-lint`` rule
HDVB190 (:mod:`repro.analysis.persistence`) flags benchmark code that
writes result dicts anywhere else.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.chaos.fsops import atomic_write, crash_point, fileops
from repro.errors import CrashInjected, ObserveError
from repro.observe.record import BenchRecord

#: Default store directory, relative to the invocation directory.
DEFAULT_STORE_DIR = ".hdvb-bench-history"

#: The history file inside the store directory.
HISTORY_FILENAME = "history.jsonl"

#: Quarantined-corruption sidecar written by ``hdvb-observe fsck --repair``.
QUARANTINE_FILENAME = "quarantine.jsonl"

#: The ``atomic_write`` temp of every whole-file history rewrite
#: (compaction, fsck repair); a survivor is debris from a crash between
#: writing it and the swap, and fsck deletes it.
COMPACT_TMP_FILENAME = HISTORY_FILENAME + ".tmp"

#: Default per-axis retention for :meth:`HistoryStore.compact`.
DEFAULT_KEEP_LAST = 50


def _serialise(record: BenchRecord) -> bytes:
    line = json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
    if "\n" in line:
        raise ObserveError("record serialised with an embedded newline")
    return (line + "\n").encode("utf-8")


@dataclass(frozen=True)
class MalformedLine:
    """One unparseable region of the history file, located exactly.

    ``offset``/``length`` are byte coordinates into the file, ``data``
    the raw bytes (without the trailing newline, if any), ``reason`` why
    parsing failed: ``"invalid-json"``, ``"invalid-record"`` (parsed but
    failed schema validation) or ``"truncated-tail"`` (the final line
    has no terminating newline — the signature of a torn append).
    """

    offset: int
    length: int
    reason: str
    data: bytes


class HistoryStore:
    """Append-only, axis-indexed JSONL store of bench records."""

    def __init__(self, root: str = DEFAULT_STORE_DIR) -> None:
        self.root = Path(root)
        self.path = self.root / HISTORY_FILENAME
        #: malformed lines skipped by the most recent load/scan
        self.skipped_lines = 0
        #: exact (offset, length, reason, data) of each, newest scan
        self.malformed: List[MalformedLine] = []

    def exists(self) -> bool:
        return self.path.is_file()

    @property
    def quarantine_path(self) -> Path:
        return self.root / QUARANTINE_FILENAME

    @property
    def compact_tmp_path(self) -> Path:
        return self.root / COMPACT_TMP_FILENAME

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def append(self, record: BenchRecord) -> None:
        """Append one record atomically (single O_APPEND write)."""
        payload = _serialise(record)
        self.root.mkdir(parents=True, exist_ok=True)
        ops = fileops()
        crash_point("store.append.pre_write", str(self.path))
        try:
            descriptor = ops.open(
                str(self.path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        except OSError as error:
            raise ObserveError(f"cannot open history {self.path} for append: "
                               f"{error}") from error
        try:
            try:
                written = ops.write(descriptor, payload, path=str(self.path),
                                    tear_point="store.append.mid_write")
            except CrashInjected:
                raise
            except OSError as error:
                raise ObserveError(f"append to {self.path} failed: "
                                   f"{error}") from error
            if written != len(payload):
                raise ObserveError(
                    f"short write to {self.path}: {written}/{len(payload)} bytes"
                )
        finally:
            ops.close(descriptor)
        crash_point("store.append.post_write", str(self.path))

    def append_many(self, records: Iterable[BenchRecord]) -> int:
        """Append records one line at a time; returns the count."""
        count = 0
        for record in records:
            self.append(record)
            count += 1
        return count

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def scan(self) -> List[Tuple[Optional[BenchRecord], Optional[MalformedLine]]]:
        """Walk the raw file byte-exactly: every line is either a parsed
        record or a located :class:`MalformedLine`, in file order.

        Updates ``skipped_lines`` and ``malformed``.  This is the one
        read path — :meth:`load` is built on it — so the offsets fsck
        quarantines are exactly the offsets tolerant reads skipped.
        """
        self.skipped_lines = 0
        self.malformed = []
        if not self.path.is_file():
            return []
        try:
            raw = fileops().read_bytes(str(self.path))
        except OSError as error:
            raise ObserveError(f"cannot read history {self.path}: "
                               f"{error}") from error
        entries: List[Tuple[Optional[BenchRecord], Optional[MalformedLine]]] = []
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                data, length, terminated = raw[offset:], len(raw) - offset, False
            else:
                data, length, terminated = (raw[offset:newline],
                                            newline + 1 - offset, True)
            stripped = data.strip()
            if stripped:
                bad_reason: Optional[str] = None
                try:
                    parsed = json.loads(stripped.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    # An unterminated unparseable tail is the signature
                    # of a torn append, distinct from a hand-mangled line.
                    bad_reason = ("truncated-tail" if not terminated
                                  else "invalid-json")
                else:
                    try:
                        entries.append((BenchRecord.from_dict(parsed), None))
                    except (ValueError, ObserveError):
                        bad_reason = "invalid-record"
                if bad_reason is not None:
                    bad = MalformedLine(offset=offset, length=length,
                                        reason=bad_reason, data=data)
                    self.malformed.append(bad)
                    self.skipped_lines += 1
                    entries.append((None, bad))
            offset += length
        return entries

    def load(self) -> List[BenchRecord]:
        """Every parseable record, oldest first.

        Malformed lines are skipped and counted in ``skipped_lines``,
        with their exact byte extents recorded in ``malformed``.
        """
        return [record for record, _ in self.scan() if record is not None]

    def query(self, bench: Optional[str] = None,
              run_id: Optional[str] = None,
              **axes: Any) -> List[BenchRecord]:
        """Records filtered by bench, run id and exact axis values."""
        matched = []
        for record in self.load():
            if bench is not None and record.bench != bench:
                continue
            if run_id is not None and record.run_id != run_id:
                continue
            if any(record.axes.get(key) != value
                   for key, value in axes.items()):
                continue
            matched.append(record)
        return matched

    def run_ids(self) -> List[str]:
        """Distinct run ids in first-appearance (append) order."""
        seen: Dict[str, None] = {}
        for record in self.load():
            seen.setdefault(record.run_id, None)
        return list(seen)

    def benches(self) -> List[str]:
        """Distinct bench names, sorted."""
        return sorted({record.bench for record in self.load()})

    def history_per_axis(
        self, bench: Optional[str] = None
    ) -> Dict[Tuple[str, str], List[BenchRecord]]:
        """Records grouped by (bench, axis key), oldest first per group."""
        grouped: Dict[Tuple[str, str], List[BenchRecord]] = {}
        for record in self.load():
            if bench is not None and record.bench != bench:
                continue
            grouped.setdefault((record.bench, record.axis_key), []).append(record)
        return grouped

    def latest_per_axis(
        self, bench: Optional[str] = None
    ) -> Dict[Tuple[str, str], BenchRecord]:
        """The newest record of every (bench, axis key) group."""
        return {
            key: history[-1]
            for key, history in self.history_per_axis(bench).items()
        }

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def compact(self, keep_last: int = DEFAULT_KEEP_LAST) -> int:
        """Keep the newest ``keep_last`` records per (bench, axis).

        The file is rewritten through :func:`atomic_write` so a reader
        never observes a half-written history; a crash before the swap
        leaves the original intact plus temp debris fsck deletes.
        Returns the number of records dropped.
        """
        if keep_last < 1:
            raise ObserveError(f"keep_last must be >= 1, got {keep_last}")
        records = self.load()
        if not records:
            return 0
        budgets: Dict[Tuple[str, str], int] = {}
        for record in records:
            key = (record.bench, record.axis_key)
            budgets[key] = budgets.get(key, 0) + 1
        kept: List[BenchRecord] = []
        for record in records:
            key = (record.bench, record.axis_key)
            if budgets[key] <= keep_last:
                kept.append(record)
            else:
                budgets[key] -= 1
        dropped = len(records) - len(kept)
        if dropped == 0 and self.skipped_lines == 0:
            return 0
        payload = b"".join(_serialise(record) for record in kept)
        try:
            atomic_write(self.path, payload, "store.compact.pre_replace")
        except OSError as error:
            raise ObserveError(f"compaction of {self.path} failed: "
                               f"{error}") from error
        crash_point("store.compact.post_replace", str(self.path))
        return dropped


# ----------------------------------------------------------------------
# comparison / trend helpers (the ``compare`` and ``trend`` subcommands)
# ----------------------------------------------------------------------


def compare_runs(store: HistoryStore, run_a: str, run_b: str,
                 bench: Optional[str] = None,
                 ) -> List[Tuple[str, str, str, float, float]]:
    """Per-axis metric deltas between two runs.

    Returns ``(bench, axis_key, metric, value_a, value_b)`` rows for
    every metric present in both runs on the same axis.
    """
    def index(run_id: str) -> Dict[Tuple[str, str], BenchRecord]:
        return {
            (record.bench, record.axis_key): record
            for record in store.query(bench=bench, run_id=run_id)
        }

    first, second = index(run_a), index(run_b)
    rows: List[Tuple[str, str, str, float, float]] = []
    for key in sorted(set(first) & set(second)):
        record_a, record_b = first[key], second[key]
        for metric in sorted(set(record_a.metrics) & set(record_b.metrics)):
            rows.append((key[0], key[1], metric,
                         record_a.metrics[metric], record_b.metrics[metric]))
    return rows


def metric_trend(store: HistoryStore, bench: str, metric: str,
                 ) -> Dict[str, List[Tuple[str, float]]]:
    """Per-axis ``(run_id, value)`` series for one metric, oldest first."""
    series: Dict[str, List[Tuple[str, float]]] = {}
    for (_, axis_key), history in sorted(store.history_per_axis(bench).items()):
        points = [
            (record.run_id, record.metrics[metric])
            for record in history if metric in record.metrics
        ]
        if points:
            series[axis_key] = points
    return series
