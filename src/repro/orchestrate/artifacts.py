"""Content-addressed cache of encoded artifacts (``.hdvb-artifact-cache/``).

The orchestrator's core economy: a matrix cell's encode is identified by
*what* it encodes, not *when* — the canonical fingerprint hashes the
codec, the SHA-256 of the generated input frames, the resolved encoder
configuration (width, height, quantiser knob, search range), the chunk
count (GOP-parallel chunking changes the bitstream) and the encoder
version.  Two cells with the same fingerprint produce byte-identical
streams, so reruns, repeat axes, hull sweeps and regression gates pay
for each distinct encode exactly once.

On-disk layout, modeled on the observe store's append/replace
discipline (everything atomic, readers never see a half-written entry)::

    <root>/<fp[:2]>/<fp>/artifact.hdvb   # the container-packed stream
    <root>/<fp[:2]>/<fp>/meta.json       # fingerprint fields + metrics
    <root>/<fp[:2]>/<fp>.lock            # leader's single-flight claim

Both files land through :func:`repro.chaos.fsops.atomic_write`;
``meta.json`` lands **last** and is the commit point — an entry exists
iff its meta file does.  Single flight across *processes* uses an
``O_CREAT | O_EXCL`` lock file: the first producer for a key becomes the
leader and encodes; concurrent producers (forked test writers, parallel
scheduler workers, a second orchestrator on the same cache) observe the
lock and poll for the committed entry instead of encoding again.  A
leader that dies leaves a lock behind; locks older than
``stale_lock_seconds`` are broken so the key stays retryable — a failed
encode is never cached.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.chaos.fsops import atomic_write, crash_point, fileops
from repro.codecs.base import EncodedVideo
from repro.codecs.container import pack, unpack
from repro.common.yuv import YuvSequence
from repro.errors import OrchestrateError
from repro.telemetry.metrics import registry as telemetry_registry
from repro.telemetry.trace import state as telemetry_state

#: Default cache directory, relative to the invocation directory.
DEFAULT_CACHE_DIR = ".hdvb-artifact-cache"

#: Schema of one entry's meta document.
ARTIFACT_SCHEMA = "repro.orchestrate.artifact/1"

#: Bump when an encoder change invalidates cached bitstreams.
ENCODER_VERSION = "1.0.0"

#: How long a follower waits for a leader to commit before giving up.
DEFAULT_WAIT_TIMEOUT = 600.0

#: Poll interval while waiting on a leader (seconds).
DEFAULT_POLL_SECONDS = 0.05

#: A lock this old belongs to a dead leader and may be broken.
DEFAULT_STALE_LOCK_SECONDS = 900.0


def sequence_digest(video: YuvSequence) -> str:
    """SHA-256 over the raw planes of every frame, in display order."""
    digest = hashlib.sha256()
    for frame in video.frames:
        digest.update(frame.y.tobytes())
        digest.update(frame.u.tobytes())
        digest.update(frame.v.tobytes())
    return digest.hexdigest()


def cell_fingerprint(codec: str, sequence_hash: str,
                     encoder_fields: Dict[str, Any], chunks: int,
                     encoder_version: str = ENCODER_VERSION) -> str:
    """The canonical content address of one encoded artifact.

    ``backend`` is deliberately **excluded**: the scalar and SIMD kernel
    tiers are bit-exact (enforced by the HDVB120 parity lint and the
    cross-backend tests), so cells that differ only in backend share one
    artifact.  ``chunks`` is included because GOP-parallel chunking
    inserts extra I frames — a 2-worker encode is a different bitstream
    than a serial one.
    """
    fields = {key: value for key, value in sorted(encoder_fields.items())
              if key != "backend"}
    payload = json.dumps({
        "codec": codec,
        "sequence": sequence_hash,
        "fields": fields,
        "chunks": chunks,
        "encoder_version": encoder_version,
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ArtifactEntry:
    """One committed cache entry: the stream plus its stored metrics."""

    fingerprint: str
    path: Path                     #: directory holding artifact + meta
    metrics: Dict[str, float]      #: deterministic metrics stored at encode

    def load_stream(self) -> EncodedVideo:
        """Unpack the cached bitstream (lazy — metrics hits skip this)."""
        try:
            data = (self.path / "artifact.hdvb").read_bytes()
        except OSError as error:
            raise OrchestrateError(
                f"cannot read cached artifact {self.fingerprint}: "
                f"{error}") from error
        return unpack(data)


#: Producer callback: returns the encoded stream and its deterministic
#: metrics (what a cache hit will report without re-encoding).
Producer = Callable[[], Tuple[EncodedVideo, Dict[str, float]]]


class ArtifactCache:
    """Single-flight, content-addressed store of encoded artifacts."""

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
                 poll_seconds: float = DEFAULT_POLL_SECONDS,
                 stale_lock_seconds: float = DEFAULT_STALE_LOCK_SECONDS,
                 ) -> None:
        self.root = Path(root)
        self.wait_timeout = wait_timeout
        self.poll_seconds = poll_seconds
        self.stale_lock_seconds = stale_lock_seconds
        self.hits = 0              #: entries served without encoding
        self.misses = 0            #: leader encodes performed
        self.flight_waits = 0      #: waits on another process's leader
        self.stale_locks_broken = 0  #: dead leaders' locks removed

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def _entry_dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / fingerprint

    def _lock_path(self, fingerprint: str) -> Path:
        return self.root / fingerprint[:2] / (fingerprint + ".lock")

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[ArtifactEntry]:
        """The committed entry for ``fingerprint``, or ``None``."""
        entry_dir = self._entry_dir(fingerprint)
        meta_path = entry_dir / "meta.json"
        if not meta_path.is_file():
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as error:
            raise OrchestrateError(
                f"corrupt cache meta for {fingerprint}: {error}") from error
        if meta.get("schema") != ARTIFACT_SCHEMA:
            raise OrchestrateError(
                f"cache entry {fingerprint} has schema "
                f"{meta.get('schema')!r} (expected {ARTIFACT_SCHEMA!r})")
        metrics = meta.get("metrics", {})
        if not isinstance(metrics, dict):
            raise OrchestrateError(
                f"cache entry {fingerprint} has malformed metrics")
        return ArtifactEntry(fingerprint=fingerprint, path=entry_dir,
                             metrics={str(k): float(v)
                                      for k, v in metrics.items()})

    # ------------------------------------------------------------------
    # single-flight production
    # ------------------------------------------------------------------

    def ensure(self, fingerprint: str, produce: Producer,
               context: Optional[Dict[str, Any]] = None,
               ) -> Tuple[ArtifactEntry, bool]:
        """The entry for ``fingerprint``, producing it at most once.

        Returns ``(entry, hit)`` where ``hit`` is True when no encode ran
        in this call (a committed entry existed, or a concurrent leader
        committed one while we waited).  Exactly one process runs
        ``produce`` per fingerprint; a failed producer releases the lock
        so the key stays retryable.
        """
        entry = self.get(fingerprint)
        if entry is not None:
            self.hits += 1
            self._count("orchestrate.cache.hits")
            return entry, True
        while True:
            if self._acquire_lock(fingerprint):
                try:
                    # Double-check under the lock: a leader may have
                    # committed between our get() and the acquire.
                    entry = self.get(fingerprint)
                    if entry is not None:
                        self.hits += 1
                        self._count("orchestrate.cache.hits")
                        return entry, True
                    entry = self._produce_as_leader(fingerprint, produce,
                                                    context)
                    return entry, False
                finally:
                    self._release_lock(fingerprint)
            entry = self._wait_for_leader(fingerprint)
            if entry is not None:
                self.hits += 1
                self._count("orchestrate.cache.hits")
                return entry, True
            # The leader vanished without committing (crashed or failed);
            # loop and contend for leadership ourselves.

    def _produce_as_leader(self, fingerprint: str, produce: Producer,
                           context: Optional[Dict[str, Any]],
                           ) -> ArtifactEntry:
        self.misses += 1
        self._count("orchestrate.cache.misses")
        stream, metrics = produce()
        return self._commit(fingerprint, stream, metrics, context)

    def _commit(self, fingerprint: str, stream: EncodedVideo,
                metrics: Dict[str, float],
                context: Optional[Dict[str, Any]]) -> ArtifactEntry:
        entry_dir = self._entry_dir(fingerprint)
        entry_dir.mkdir(parents=True, exist_ok=True)
        payload = pack(stream)
        meta = {
            "schema": ARTIFACT_SCHEMA,
            "fingerprint": fingerprint,
            "encoder_version": ENCODER_VERSION,
            "codec": stream.codec,
            "width": stream.width,
            "height": stream.height,
            "bytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
            "metrics": dict(metrics),
            "context": dict(context or {}),
        }
        meta_bytes = json.dumps(meta, sort_keys=True, indent=2).encode("utf-8")
        # artifact first, meta last: meta.json is the commit point.
        crash_point("artifacts.commit.pre_artifact", str(entry_dir))
        self._atomic_write(entry_dir / "artifact.hdvb", payload)
        crash_point("artifacts.commit.pre_meta", str(entry_dir))
        self._atomic_write(entry_dir / "meta.json", meta_bytes)
        crash_point("artifacts.commit.post_meta", str(entry_dir))
        return ArtifactEntry(fingerprint=fingerprint, path=entry_dir,
                             metrics=dict(metrics))

    def _atomic_write(self, path: Path, data: bytes) -> None:
        # The shared ``<path>.tmp`` is safe: the writer holds the entry lock.
        try:
            atomic_write(path, data, "artifacts.write.pre_replace")
        except OSError as error:
            raise OrchestrateError(
                f"cannot write cache file {path}: {error}") from error

    # ------------------------------------------------------------------
    # the cross-process lock
    # ------------------------------------------------------------------

    def _acquire_lock(self, fingerprint: str) -> bool:
        ops = fileops()
        lock = self._lock_path(fingerprint)
        lock.parent.mkdir(parents=True, exist_ok=True)
        try:
            descriptor = ops.open(
                str(lock), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            self._break_stale_lock(lock)
            return False
        except OSError as error:
            raise OrchestrateError(
                f"cannot claim cache lock for {fingerprint}: "
                f"{error}") from error
        try:
            ops.write(descriptor, f"{os.getpid()}\n".encode("ascii"),
                      path=str(lock))
        finally:
            ops.close(descriptor)
        return True

    def _release_lock(self, fingerprint: str) -> None:
        try:
            fileops().unlink(str(self._lock_path(fingerprint)))
        except FileNotFoundError:
            pass
        except OSError as error:
            raise OrchestrateError(
                f"cannot release cache lock for {fingerprint}: "
                f"{error}") from error

    def _break_stale_lock(self, lock: Path,
                          age_limit: Optional[float] = None) -> bool:
        """Remove ``lock`` if older than the threshold; True if removed.

        ``age_limit`` overrides ``stale_lock_seconds`` — fsck passes
        ``0.0`` when the owning process is known dead.
        """
        if age_limit is None:
            age_limit = self.stale_lock_seconds
        try:
            # Lock age *must* use the wall clock: st_mtime is epoch time,
            # and monotonic() is incomparable to it.  Operational lock
            # hygiene only -- no benchmark result depends on this read.
            age = time.time() - lock.stat().st_mtime  # hdvb: disable=HDVB200
        except OSError:
            return False    # already released
        if age > age_limit or age_limit <= 0.0:
            try:
                os.unlink(str(lock))
            except OSError:
                return False    # another waiter broke it first
            self.stale_locks_broken += 1
            self._count("cache.stale_locks_broken")
            return True
        return False

    def _wait_for_leader(self, fingerprint: str) -> Optional[ArtifactEntry]:
        """Poll until the leader commits, releases, or we time out."""
        self.flight_waits += 1
        self._count("orchestrate.cache.flight_waits")
        deadline = time.monotonic() + self.wait_timeout
        lock = self._lock_path(fingerprint)
        while time.monotonic() < deadline:
            entry = self.get(fingerprint)
            if entry is not None:
                return entry
            if not lock.exists():
                # Leader finished without committing: a failed encode.
                return self.get(fingerprint)
            time.sleep(self.poll_seconds)
        raise OrchestrateError(
            f"timed out after {self.wait_timeout:.0f}s waiting for the "
            f"single-flight leader of artifact {fingerprint}")

    def _count(self, name: str) -> None:
        if telemetry_state.enabled:
            telemetry_registry().counter(name).inc()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/wait/stale-lock counters of this cache handle."""
        return {"hits": self.hits, "misses": self.misses,
                "flight_waits": self.flight_waits,
                "stale_locks_broken": self.stale_locks_broken}


__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactCache",
    "ArtifactEntry",
    "DEFAULT_CACHE_DIR",
    "ENCODER_VERSION",
    "cell_fingerprint",
    "sequence_digest",
]
