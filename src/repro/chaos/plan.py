"""Seeded fault plans: *which* faults fire, *when*, reproducibly.

A :class:`FaultPlan` is the schedule the :class:`~repro.chaos.fsops.ChaosFS`
shim consults on every intercepted filesystem operation.  Like the
origin's traffic chaos (:mod:`repro.origin.traffic`), everything derives
from ``random.Random(seed)`` in call order, so a chaos run is a pure
function of ``(seed, workload)`` — the same seed always injects the same
fault sequence, which is what lets a failing chaos test be replayed
bit-for-bit.

Two scheduling styles compose in one plan:

* **seeded random faults** — every intercepted op draws against
  ``rate``; a hit injects one of the configured :data:`FAULT_KINDS`
  (a genuine ``OSError``/``ENOSPC``, a short write, an ``fsync`` that
  lies, a busy ``O_EXCL`` lock).  ``max_faults`` bounds the total so a
  retry loop cannot starve forever under ``rate=1.0``;
* **named crash points** — :meth:`FaultPlan.crash_at` arms simulated
  process death at the N-th hit of one entry of the
  :data:`CRASH_POINTS` registry (the seams the store, the artifact
  cache and the scheduler announce via
  :func:`repro.chaos.fsops.crash_point`).
"""

from __future__ import annotations

import errno
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ChaosError

#: Fault kinds the shim can inject on an intercepted op.
#:
#: ``oserror``     a generic ``OSError(EIO)`` — the op fails outright;
#: ``enospc``      ``OSError(ENOSPC)`` — the disk is full;
#: ``short_write`` only a prefix of the payload reaches the file and the
#:                 short count is returned (a torn write: callers that
#:                 check the count see it, callers that don't corrupt
#:                 their file);
#: ``fsync_lie``   ``fsync`` returns success without syncing — the
#:                 durability lie cheap disks tell;
#: ``lock_busy``   an ``O_EXCL`` create fails with ``EEXIST`` as if a
#:                 foreign (possibly dead) process held the lock.
FAULT_KINDS: Tuple[str, ...] = (
    "oserror", "enospc", "short_write", "fsync_lie", "lock_busy",
)

#: Filesystem operations the shim intercepts and a plan may target.
INJECTABLE_OPS: Tuple[str, ...] = (
    "open", "read", "write", "fsync", "replace", "unlink",
)

#: Every registered crash point: a named seam where a crash plan may
#: simulate process death.  The crash-proof harness iterates this
#: registry exhaustively, so adding a seam here without wiring a
#: ``crash_point()`` call (or tear point) into the production code makes
#: the harness fail loudly instead of silently shrinking coverage.
CRASH_POINTS: Tuple[str, ...] = (
    "store.append.pre_write",       # record not yet written
    "store.append.mid_write",       # torn line: half a record on disk
    "store.append.post_write",      # record durable, caller never learned
    "store.compact.pre_replace",    # compacted temp written, not swapped in
    "store.compact.post_replace",   # compaction durable, temp gone
    "artifacts.write.pre_replace",  # cache temp file written, not swapped in
    "artifacts.commit.pre_artifact",  # lock held, nothing written
    "artifacts.commit.pre_meta",    # artifact durable, meta (commit point) not
    "artifacts.commit.post_meta",   # entry committed, lock still held
    "scheduler.cell.pre_execute",   # cell about to run
    "scheduler.cell.pre_record",    # cell ran, record not yet appended
)

_CRASH_POINT_SET = frozenset(CRASH_POINTS)

_FAULT_ERRNO = {
    "oserror": errno.EIO,
    "enospc": errno.ENOSPC,
    "lock_busy": errno.EEXIST,
    "short_write": 0,
    "fsync_lie": 0,
}


def require_crash_point(name: str) -> None:
    """Fail loudly on a typo'd/unregistered crash-point name."""
    if name not in _CRASH_POINT_SET:
        raise ChaosError(
            f"unregistered crash point {name!r}; registered points: "
            f"{', '.join(CRASH_POINTS)}", crash_point=name)


@dataclass(frozen=True)
class Fault:
    """One injected fault: what fired, where, with which errno."""

    kind: str
    op: str
    errno_value: int
    path: str = ""

    def as_os_error(self) -> OSError:
        """The genuine ``OSError`` production code must cope with."""
        import os as _os

        if self.kind == "lock_busy":
            return FileExistsError(self.errno_value,
                                   _os.strerror(self.errno_value), self.path)
        return OSError(self.errno_value, _os.strerror(self.errno_value),
                       self.path)


class FaultPlan:
    """A deterministic, seeded schedule of faults and crash points."""

    def __init__(self, seed: int = 0, rate: float = 0.0,
                 kinds: Iterable[str] = FAULT_KINDS,
                 ops: Iterable[str] = INJECTABLE_OPS,
                 max_faults: Optional[int] = None) -> None:
        kinds = tuple(kinds)
        ops = tuple(ops)
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ChaosError(f"unknown fault kind {kind!r}; known: "
                                 f"{', '.join(FAULT_KINDS)}")
        for op in ops:
            if op not in INJECTABLE_OPS:
                raise ChaosError(f"unknown fault op {op!r}; known: "
                                 f"{', '.join(INJECTABLE_OPS)}")
        if not 0.0 <= rate <= 1.0:
            raise ChaosError(f"fault rate must be in [0, 1], got {rate}")
        if max_faults is not None and max_faults < 0:
            raise ChaosError(f"max_faults must be >= 0, got {max_faults}")
        self.seed = seed
        self.rate = rate
        self.kinds = kinds
        self.ops = ops
        self.max_faults = max_faults
        self._rng = random.Random(seed)
        self._crashes: Dict[str, int] = {}
        self._hits: Dict[str, int] = {}
        #: every fault this plan handed out, in injection order
        self.injected: List[Fault] = []

    # ------------------------------------------------------------------
    # crash points
    # ------------------------------------------------------------------

    def crash_at(self, point: str, hit: int = 1) -> "FaultPlan":
        """Arm simulated process death at the ``hit``-th pass of ``point``."""
        require_crash_point(point)
        if hit < 1:
            raise ChaosError(f"crash hit index must be >= 1, got {hit}",
                             crash_point=point)
        self._crashes[point] = hit
        return self

    def should_crash(self, point: str) -> bool:
        """True exactly once: on the armed hit of an armed point."""
        armed = self._crashes.get(point)
        if armed is None:
            return False
        count = self._hits.get(point, 0) + 1
        self._hits[point] = count
        return count == armed

    # ------------------------------------------------------------------
    # seeded fault stream
    # ------------------------------------------------------------------

    def draw(self, op: str, path: str = "") -> Optional[Fault]:
        """The fault to inject for this op, or ``None`` to pass through.

        The decision stream is a pure function of the seed and the call
        sequence: same seed, same ops, same faults.
        """
        if op not in self.ops or self.rate <= 0.0:
            return None
        if (self.max_faults is not None
                and len(self.injected) >= self.max_faults):
            return None
        if self._rng.random() >= self.rate:
            return None
        kind = self.kinds[self._rng.randrange(len(self.kinds))]
        fault = Fault(kind=kind, op=op, errno_value=_FAULT_ERRNO[kind],
                      path=path)
        self.injected.append(fault)
        return fault


__all__ = [
    "CRASH_POINTS",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "INJECTABLE_OPS",
    "require_crash_point",
]
