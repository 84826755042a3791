"""The filesystem seam: real ops by default, chaos when activated.

Durable code never calls ``os.open``/``os.replace`` directly for its
critical writes; it goes through :func:`fileops`, which returns the
passthrough :class:`FileOps` unless a :class:`ChaosFS` has been
:func:`activate`\\ d.  Production cost is one attribute lookup; test
benefit is that every torn write, full disk, lying fsync and stale lock
the real world can produce is reproducible from a seed.

Every whole-file durable write -- store compaction and fsck repair,
artifact and meta files, shard manifests, flight dumps, lint cache
pickles and the lint baseline -- is one :func:`atomic_write` call:
temp file, fsync, ``replace``, all through the seam.

Crash points are the second seam: durable code brackets its critical
sections with ``crash_point("store.append.pre_write", path)`` calls.
They are no-ops without an active ChaosFS; with one, an armed
:class:`~repro.chaos.plan.FaultPlan` simulates process death there —
either by raising :class:`~repro.errors.CrashInjected` (in-process
tests) or via ``os._exit(CRASH_EXIT_CODE)`` (forked crash-proof
harness; a hard exit runs no ``finally`` blocks and flushes nothing,
which is the honest model of ``kill -9``).

Injected IO faults are genuine ``OSError`` instances — **not**
ChaosErrors — so the production ``except OSError`` paths are exercised
exactly as a real flaky filesystem would exercise them.
"""

from __future__ import annotations

import contextlib
import errno
import os
from typing import Dict, Iterator, List, Optional, Union

from repro.chaos.plan import Fault, FaultPlan, require_crash_point
from repro.errors import CrashInjected

#: Exit status of a hard-crashed chaos child.  Distinct from every
#: status the interpreter or pytest uses, so the harness can tell "died
#: at the armed crash point" from "died of an unrelated bug".
CRASH_EXIT_CODE = 77


class FileOps:
    """Passthrough file operations; the seam durable code writes through.

    The signatures mirror the ``os`` module, with two additions: ``write``
    takes the owning ``path`` (for fault context) and an optional
    ``tear_point`` naming the crash point that models dying *mid-write*
    with only a prefix of the payload on disk.
    """

    def open(self, path: str, flags: int, mode: int = 0o666) -> int:
        return os.open(path, flags, mode)

    def write(self, fd: int, data: bytes, *, path: str = "",
              tear_point: Optional[str] = None) -> int:
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        os.fsync(fd)

    def close(self, fd: int) -> None:
        os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    def crash_point(self, name: str, path: str = "") -> None:
        """No-op in production; ChaosFS overrides."""


class ChaosFS(FileOps):
    """FileOps that consults a :class:`FaultPlan` before every op.

    ``hard_crash=False`` (default) raises :class:`CrashInjected` at an
    armed crash point — right for in-process tests that want to observe
    the exception.  ``hard_crash=True`` calls ``os._exit`` instead,
    which is the only faithful way to model ``kill -9`` from inside a
    forked child: no ``finally`` blocks run, no buffers flush, no locks
    release.
    """

    def __init__(self, plan: FaultPlan, hard_crash: bool = False) -> None:
        self.plan = plan
        self.hard_crash = hard_crash
        self._fd_paths: Dict[int, str] = {}
        #: faults actually raised/applied, in order
        self.injected: List[Fault] = []
        #: fsyncs silently skipped by a ``fsync_lie`` fault
        self.fsync_lies = 0
        #: crash points that fired (useful when ``hard_crash`` is False)
        self.crashes_fired: List[str] = []

    # ------------------------------------------------------------------

    def _inject(self, op: str, path: str) -> Optional[Fault]:
        fault = self.plan.draw(op, path)
        if fault is None:
            return None
        self.injected.append(fault)
        return fault

    def maybe_crash(self, name: str, path: str = "") -> None:
        if not self.plan.should_crash(name):
            return
        self.crashes_fired.append(name)
        _flight_dump_crash(name, path)
        if self.hard_crash:
            os._exit(CRASH_EXIT_CODE)
        raise CrashInjected(
            f"simulated process death at crash point {name!r}",
            crash_point=name, path=path)

    def crash_point(self, name: str, path: str = "") -> None:
        self.maybe_crash(name, path)

    # ------------------------------------------------------------------

    def open(self, path: str, flags: int, mode: int = 0o666) -> int:
        fault = self._inject("open", path)
        if fault is not None and fault.kind != "fsync_lie":
            if fault.kind == "lock_busy" and flags & os.O_EXCL:
                raise fault.as_os_error()
            if fault.kind in ("oserror", "enospc"):
                raise fault.as_os_error()
            # short_write / mismatched lock_busy: meaningless for open
        fd = os.open(path, flags, mode)
        self._fd_paths[fd] = path
        return fd

    def write(self, fd: int, data: bytes, *, path: str = "",
              tear_point: Optional[str] = None) -> int:
        path = path or self._fd_paths.get(fd, "")
        if tear_point is not None and self.plan.should_crash(tear_point):
            # The torn write: half the payload reaches disk, then death.
            self.crashes_fired.append(tear_point)
            os.write(fd, data[: max(1, len(data) // 2)])
            _flight_dump_crash(tear_point, path)
            if self.hard_crash:
                os._exit(CRASH_EXIT_CODE)
            raise CrashInjected(
                f"simulated process death mid-write at {tear_point!r}",
                crash_point=tear_point, path=path)
        fault = self._inject("write", path)
        if fault is not None:
            if fault.kind in ("oserror", "enospc"):
                raise fault.as_os_error()
            if fault.kind == "short_write" and len(data) > 1:
                return os.write(fd, data[: len(data) // 2])
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        path = self._fd_paths.get(fd, "")
        fault = self._inject("fsync", path)
        if fault is not None:
            if fault.kind in ("oserror", "enospc"):
                raise fault.as_os_error()
            if fault.kind == "fsync_lie":
                self.fsync_lies += 1
                return  # report success, sync nothing
        os.fsync(fd)

    def close(self, fd: int) -> None:
        self._fd_paths.pop(fd, None)
        os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        fault = self._inject("replace", src)
        if fault is not None and fault.kind in ("oserror", "enospc"):
            raise fault.as_os_error()
        os.replace(src, dst)

    def unlink(self, path: str) -> None:
        fault = self._inject("unlink", path)
        if fault is not None and fault.kind in ("oserror", "enospc"):
            raise fault.as_os_error()
        os.unlink(path)

    def read_bytes(self, path: str) -> bytes:
        fault = self._inject("read", path)
        if fault is not None and fault.kind in ("oserror", "enospc"):
            raise fault.as_os_error()
        with open(path, "rb") as handle:
            return handle.read()


def _flight_dump_crash(name: str, path: str) -> None:
    """Record the injected death on the flight recorder *before* dying.

    Runs only when telemetry is enabled; emits the ``crash.injected``
    event so the dumped ring's last entry names the crash point, then
    writes the post-mortem.  Crucially this happens before ``os._exit``
    in hard-crash mode — exactly like a real black box, the dump is the
    only survivor of the process.
    """
    from repro.telemetry import flightrec
    from repro.telemetry.events import emit
    from repro.telemetry.trace import enabled
    if not enabled():
        return
    emit("crash.injected", crash_point=name, path=path)
    flightrec.recorder.dump("crash.injected",
                            extra={"crash_point": name, "path": path})


_REAL = FileOps()
_active: Optional[ChaosFS] = None


def fileops() -> FileOps:
    """The current seam: the active :class:`ChaosFS`, else passthrough."""
    return _active if _active is not None else _REAL


def crash_point(name: str, path: str = "") -> None:
    """Announce a named crash seam.  Validates the name even in
    production (a typo'd point would silently void harness coverage),
    then delegates to the active ChaosFS, if any."""
    require_crash_point(name)
    active = _active
    if active is not None:
        active.maybe_crash(name, path)


def atomic_write(path: Union[str, os.PathLike], data: bytes,
                 crash_point: Optional[str] = None) -> None:
    """Replace ``path`` with ``data`` so a crash leaves old or new bytes.

    Creates the parent directory, writes ``<path>.tmp`` through the
    seam (a short write is an ``OSError``), fsyncs, announces
    ``crash_point`` (a registered name, validated up front) and swaps
    the temp into place.
    On ``OSError`` the temp is unlinked and the error re-raised for the
    caller to wrap; a simulated death (``CrashInjected``) leaves the
    temp behind, exactly the debris a real crash leaves for fsck.
    """
    if crash_point is not None:
        require_crash_point(crash_point)
    path = os.fspath(path)
    temp = path + ".tmp"
    ops = fileops()
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        descriptor = ops.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
                              0o644)
        try:
            written = ops.write(descriptor, data, path=temp)
            if written != len(data):
                raise OSError(errno.EIO, f"short write to {temp}: "
                                         f"{written}/{len(data)} bytes")
            ops.fsync(descriptor)
        finally:
            ops.close(descriptor)
        if crash_point is not None:
            ops.crash_point(crash_point, temp)
        ops.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


@contextlib.contextmanager
def activate(fs: ChaosFS) -> Iterator[ChaosFS]:
    """Route all seamed file operations through ``fs`` for the duration."""
    global _active
    previous = _active
    _active = fs
    try:
        yield fs
    finally:
        _active = previous


__all__ = [
    "CRASH_EXIT_CODE",
    "ChaosFS",
    "FileOps",
    "activate",
    "atomic_write",
    "crash_point",
    "fileops",
]
