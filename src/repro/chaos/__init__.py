"""repro.chaos — deterministic crash/IO fault injection and recovery proofs.

The durability backbone (observe ``HistoryStore``, orchestrate
``ArtifactCache``, the resumable scheduler) claims to survive crashes,
torn writes and flaky disks.  This package makes the claim testable:

* :mod:`repro.chaos.plan` — seeded :class:`FaultPlan` schedules (which
  faults fire when, reproducibly) and the frozen crash-point registry;
* :mod:`repro.chaos.fsops` — the :func:`fileops` seam durable code
  writes through, :func:`atomic_write` (the one whole-file durable
  write), the :class:`ChaosFS` shim that injects genuine
  ``OSError``/``ENOSPC``/short-write/fsync-lie/stale-lock faults, and
  :func:`crash_point` for simulated process death;
* :mod:`repro.chaos.harness` — the crash-recovery proof: for every
  registered crash point, kill a mini run there in a forked child,
  ``fsck --repair``, resume under the same run id, and assert the final
  records are bit-identical to an uninterrupted run.

fsck itself lives with the data it checks: :mod:`repro.observe.fsck`
and :mod:`repro.orchestrate.fsck`.
"""

from repro.chaos.fsops import (CRASH_EXIT_CODE, ChaosFS, FileOps, activate,
                               atomic_write, crash_point, fileops)
from repro.chaos.plan import (CRASH_POINTS, FAULT_KINDS, INJECTABLE_OPS,
                              Fault, FaultPlan, require_crash_point)

__all__ = [
    "CRASH_EXIT_CODE",
    "CRASH_POINTS",
    "ChaosFS",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "FileOps",
    "INJECTABLE_OPS",
    "activate",
    "atomic_write",
    "crash_point",
    "fileops",
    "require_crash_point",
]
