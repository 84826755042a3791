"""Shard planning and cell execution for the benchmark orchestrator.

Two execution shapes share one cell runner:

* **Local pooled run** — :func:`run_cells` executes a spec's pending
  cells in this process (``scheduler_workers=1``) or across a local
  process pool, reusing :func:`repro.parallel.run_pooled`'s hardened
  semantics (per-job deadlines from submission, one retried pool with
  jittered backoff, serial fallback).  Every finished cell is appended
  to the observe store **immediately**, which is what makes runs
  resumable: a rerun under the same run id queries the store first and
  skips cells that already have an ``ok`` record.
* **Multi-host shards** — :func:`plan_shards` stripes the deterministic
  cell list round-robin into N shards and :func:`write_manifests`
  serialises each as a JSON manifest (``repro.orchestrate.manifest/1``).
  A worker host loads its manifest with :func:`load_manifest` and runs
  the cells locally; because cell expansion, fingerprints and record
  axes are all deterministic, the hosts' stores merge cleanly.

Encoded artifacts flow through the content-addressed
:class:`~repro.orchestrate.artifacts.ArtifactCache`, so a repeated cell
(rerun, repeat axis, hull sweep) reports the metrics stored at first
encode without touching an encoder.  Per-cell telemetry snapshots ship
back from pool workers and merge into the parent registry, mirroring
``parallel_encode``'s worker protocol.

Results persist **only** via the observe store (the HDVB190 invariant)
and every failure is routed through
:class:`~repro.errors.OrchestrateError` carrying the spec name and cell
identity; a failed cell never aborts the run — it becomes a ``failed``
record and counts against the OBS207 cell-failure-rate gate.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.chaos.fsops import atomic_write, crash_point
from repro.codecs import get_decoder, get_encoder
from repro.common.metrics import sequence_psnr
from repro.common.resolution import tier_by_name
from repro.errors import CrashInjected, OrchestrateError, ReproError
from repro.observe.record import BenchRecord, RunInfo
from repro.observe.store import HistoryStore
from repro.orchestrate.artifacts import (
    ArtifactCache, cell_fingerprint, sequence_digest,
)
from repro.orchestrate.spec import (
    Cell, RunSpec, cell_from_dict, encoder_fields_for_cell, expand_cells,
)
from repro.parallel import parallel_encode, run_pooled
from repro.sequences import generate_sequence
from repro.telemetry import flightrec
from repro.telemetry.events import correlation_scope, emit
from repro.telemetry.metrics import CELL_BUCKETS, registry as telemetry_registry
from repro.telemetry.trace import span as telemetry_span, state as telemetry_state

#: Schema of one shard manifest document.
MANIFEST_SCHEMA = "repro.orchestrate.manifest/1"

#: The bench name of one cell measurement in the observe store.
ORCHESTRATE_BENCH = "orchestrate"

#: Pool waves this many times the worker count: big enough to amortise
#: pool startup, small enough that a killed run loses at most one wave
#: of un-persisted results.
WAVE_FACTOR = 4


@dataclass
class CellResult:
    """What running one cell produced (picklable, pool-safe)."""

    cell: Dict[str, Any]           #: the cell's manifest dict
    cell_id: str                   #: canonical axis string (resume identity)
    status: str                    #: ``"ok"`` or ``"failed"``
    metrics: Dict[str, float]      #: deterministic measurement metrics
    seconds: float                 #: wall time of this execution
    cache_hit: bool                #: True when no encode ran
    fingerprint: str               #: artifact content address ("" on failure)
    error: str = ""                #: rendered OrchestrateError on failure
    telemetry: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def execute_cell(cell: Cell, cache: ArtifactCache) -> CellResult:
    """Run one cell in this process, through the artifact cache.

    Never raises for a cell-level failure: every escape — a
    :class:`~repro.errors.ReproError` from the codec stack or anything
    unexpected — is normalised into an :class:`OrchestrateError` naming
    the spec and cell, rendered onto a ``failed`` result.  The cell runs
    inside a ``correlation_scope`` bound to its cell id, so events,
    errors and flight dumps attribute to the exact cell.
    """
    with correlation_scope(cell_id=cell.cell_id):
        start = time.perf_counter()
        crash_point("scheduler.cell.pre_execute", cell.cell_id)
        emit("cell.start", spec=cell.spec_name, codec=cell.codec,
             sequence=cell.sequence, workers=cell.workers)
        try:
            with telemetry_span("orchestrate.cell", codec=cell.codec,
                                sequence=cell.sequence, workers=cell.workers):
                metrics, hit, fingerprint = _measure_cell(cell, cache)
            seconds = time.perf_counter() - start
            emit("cell.done", spec=cell.spec_name, cache_hit=hit)
            return CellResult(cell=cell.to_dict(), cell_id=cell.cell_id,
                              status="ok", metrics=metrics, seconds=seconds,
                              cache_hit=hit, fingerprint=fingerprint)
        except CrashInjected:
            # Simulated process death must propagate like a real kill --
            # folding it into a ``failed`` record would fake a clean run.
            raise
        except ReproError as error:
            wrapped = _normalize_cell_error(error, cell)
        except Exception as error:    # noqa: BLE001 -- normalised below
            wrapped = OrchestrateError(
                f"unexpected {type(error).__name__} while running cell: "
                f"{error}",
                spec=cell.spec_name, cell=cell.cell_id)
            wrapped.__cause__ = error
        seconds = time.perf_counter() - start
        emit("cell.fail", spec=cell.spec_name, error=str(wrapped))
        flightrec.recorder.dump("cell.failed", error=wrapped)
        return CellResult(cell=cell.to_dict(), cell_id=cell.cell_id,
                          status="failed", metrics={}, seconds=seconds,
                          cache_hit=False, fingerprint="", error=str(wrapped))


def _normalize_cell_error(error: ReproError, cell: Cell) -> OrchestrateError:
    if isinstance(error, OrchestrateError):
        if error.spec is None:
            error.spec = cell.spec_name
        if error.cell is None:
            error.cell = cell.cell_id
        return error
    wrapped = OrchestrateError(
        f"cell failed with {type(error).__name__}: {error}",
        spec=cell.spec_name, cell=cell.cell_id)
    wrapped.__cause__ = error
    return wrapped


def _measure_cell(cell: Cell, cache: ArtifactCache,
                  ) -> Tuple[Dict[str, float], bool, str]:
    """Encode (or fetch) the cell's artifact and return its metrics."""
    scale = Fraction(cell.scale)
    tier = tier_by_name(cell.resolution, scale)
    video = generate_sequence(cell.sequence, tier.name, frames=cell.frames,
                              scale=scale)
    fields = encoder_fields_for_cell(cell, tier)
    fingerprint = cell_fingerprint(
        cell.codec, sequence_digest(video), fields, chunks=cell.workers)

    def produce():
        if cell.workers > 1:
            # Backoff jitter seeded from the cell so retry timing is
            # replayable alongside everything else about the cell.
            stream = parallel_encode(cell.codec, video, workers=cell.workers,
                                     chunk_timeout=cell.timeout,
                                     rng=random.Random(cell.seed),
                                     **fields)
        else:
            stream = get_encoder(cell.codec, **fields).encode_sequence(video)
        decoded = get_decoder(cell.codec).decode(stream)
        psnr = sequence_psnr(video, decoded)
        metrics = {
            "psnr_db": psnr.combined,
            "psnr_y_db": psnr.y,
            "bitrate_kbps": stream.bitrate_kbps,
            "total_bytes": float(stream.total_bytes),
            "pictures": float(stream.frame_count),
        }
        return stream, metrics

    entry, hit = cache.ensure(fingerprint, produce,
                              context={"cell": cell.cell_id,
                                       "spec": cell.spec_name})
    return dict(entry.metrics), hit, fingerprint


def _execute_cell_job(cell_data: Dict[str, Any], cache_root: str,
                      telemetry_on: bool = False) -> CellResult:
    """Pool-worker entry point (module-level, picklable)."""
    if telemetry_on:
        # Pool workers are reused across cells (and, under fork, inherit
        # the parent's enabled state): start from a clean registry so
        # each snapshot is this cell's delta only.
        import repro.telemetry as telemetry

        telemetry.reset()
        telemetry.enable()
    cell = cell_from_dict(cell_data)
    result = execute_cell(cell, ArtifactCache(cache_root))
    if telemetry_on:
        result.telemetry = telemetry_registry().snapshot()
    return result


def _execute_cell_job_inline(cell_data: Dict[str, Any], cache_root: str,
                             telemetry_on: bool = False) -> CellResult:
    """Serial in-process cell worker: records into the live registry
    directly, so it must not reset it or ship a snapshot back."""
    del telemetry_on
    return execute_cell(cell_from_dict(cell_data), ArtifactCache(cache_root))


# ----------------------------------------------------------------------
# shard planning (multi-host execution)
# ----------------------------------------------------------------------


def plan_shards(cells: Sequence[Cell], shards: int) -> List[List[Cell]]:
    """Stripe the deterministic cell list round-robin into ``shards``.

    Round-robin (not contiguous blocks) so expensive axes — a slow codec,
    a large worker count — spread evenly instead of landing on one host.
    Empty shards are kept (shard k of n is always ``cells[k::n]``), so a
    host's shard index alone determines its work.
    """
    if shards < 1:
        raise OrchestrateError(f"shard count must be >= 1, got {shards}")
    return [list(cells[index::shards]) for index in range(shards)]


def shard_manifest(spec: RunSpec, shard_cells: Sequence[Cell],
                   shard_index: int, shard_count: int) -> Dict[str, Any]:
    """One shard as a serialisable manifest document."""
    return {
        "schema": MANIFEST_SCHEMA,
        "spec_name": spec.name,
        "spec_fingerprint": spec.fingerprint(),
        "shard_index": shard_index,
        "shard_count": shard_count,
        "cells": [cell.to_dict() for cell in shard_cells],
    }


def write_manifests(spec: RunSpec, cells: Sequence[Cell], shards: int,
                    directory: Union[str, Path]) -> List[Path]:
    """Write one manifest file per shard; returns the paths.

    Files land through :func:`~repro.chaos.fsops.atomic_write` as
    ``<spec>-<fingerprint>-shard-<k>-of-<n>.json``.
    """
    directory = Path(directory)
    fingerprint = spec.fingerprint()
    paths = []
    for index, shard_cells in enumerate(plan_shards(cells, shards)):
        manifest = shard_manifest(spec, shard_cells, index, shards)
        path = directory / (f"{spec.name}-{fingerprint}"
                            f"-shard-{index}-of-{shards}.json")
        payload = json.dumps(manifest, sort_keys=True, indent=2)
        try:
            atomic_write(path, payload.encode("utf-8"))
        except OSError as error:
            raise OrchestrateError(f"cannot write manifest {path}: {error}",
                                   spec=spec.name) from error
        paths.append(path)
    return paths


def load_manifest(path: Union[str, Path],
                  ) -> Tuple[str, str, List[Cell]]:
    """Load a shard manifest: ``(spec_name, spec_fingerprint, cells)``."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise OrchestrateError(
            f"cannot read manifest {path}: {error}") from error
    except ValueError as error:
        raise OrchestrateError(
            f"{path}: manifest is not valid JSON: {error}") from error
    if not isinstance(data, Mapping) or data.get("schema") != MANIFEST_SCHEMA:
        raise OrchestrateError(
            f"{path}: not a shard manifest (expected schema "
            f"{MANIFEST_SCHEMA!r})")
    cells_data = data.get("cells")
    if not isinstance(cells_data, list):
        raise OrchestrateError(f"{path}: manifest has no 'cells' list")
    return (str(data.get("spec_name", "")),
            str(data.get("spec_fingerprint", "")),
            [cell_from_dict(entry) for entry in cells_data])


# ----------------------------------------------------------------------
# resume + persistence
# ----------------------------------------------------------------------


def completed_cell_ids(store: HistoryStore, run_id: str) -> Set[str]:
    """Cell ids with an ``ok`` record under ``run_id``: skip on rerun.

    Failed cells are deliberately *not* completed — a resumed run retries
    them (the artifact cache makes retrying the cheap part anyway).  So
    are quarantined cells: a record line mangled by a crash is skipped
    by the store's tolerant reads (and moved aside by ``hdvb-observe
    fsck --repair``), never matches here, and its cell re-executes.
    """
    return {
        record.axis_key
        for record in store.query(ORCHESTRATE_BENCH, run_id=run_id)
        if record.context.get("status") == "ok"
    }


def cell_record(result: CellResult, info: RunInfo,
                spec_fingerprint: str) -> BenchRecord:
    """One cell result as its observe-store record.

    The record is **bit-reproducible**: ``created`` is pinned to 0.0,
    the metrics are the deterministic measurement set stored in the
    artifact cache, and nothing host- or wall-clock-dependent (timing,
    cache-hit flags, pids) goes in — those live on the run-summary
    records instead.  Two runs of the same spec under the same run id
    therefore append byte-identical ``orchestrate`` lines.
    """
    cell = result.cell
    axes = {
        "codec": cell["codec"],
        "sequence": cell["sequence"],
        "resolution": cell["resolution"],
        "backend": cell["backend"],
        "workers": cell["workers"],
        "qp": cell["qp"],
        "repeat": cell["repeat"],
    }
    context: Dict[str, Any] = {
        "spec": cell["spec_name"],
        "spec_fingerprint": spec_fingerprint,
        "status": result.status,
        "frames": cell["frames"],
        "scale": cell["scale"],
        "seed": cell["seed"],
    }
    if result.fingerprint:
        context["artifact"] = result.fingerprint
    if result.error:
        context["error"] = result.error
    return BenchRecord(
        run_id=info.run_id,
        bench=ORCHESTRATE_BENCH,
        axes=axes,
        metrics=dict(result.metrics),
        created=0.0,
        git_sha=info.git_sha,
        context=context,
    )


# ----------------------------------------------------------------------
# the local run loop
# ----------------------------------------------------------------------


@dataclass
class RunState:
    """Everything one :func:`run_cells` invocation did."""

    results: List[CellResult] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)   #: resumed cell ids
    wall_seconds: float = 0.0
    pool_stats: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def failures(self) -> List[CellResult]:
        return [result for result in self.results if not result.ok]

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.cache_hit)


def run_cells(
    spec: RunSpec,
    store: HistoryStore,
    info: RunInfo,
    cache: Optional[ArtifactCache] = None,
    scheduler_workers: int = 1,
    executor_factory: Any = None,
    on_cell_complete: Optional[Callable[[CellResult], None]] = None,
    progress: Optional[Callable[[str], None]] = None,
    cells: Optional[Sequence[Cell]] = None,
) -> RunState:
    """Run a spec's cells, resumably, persisting through the store.

    ``cells`` overrides the expansion (a loaded shard manifest); by
    default the full deterministic expansion of ``spec`` runs.  Cells
    with an ``ok`` record under ``info.run_id`` are skipped.  With
    ``scheduler_workers > 1`` cells run in waves across a process pool
    (per-wave deadline = the largest cell timeout in the wave, hardened
    by ``run_pooled``'s retry/fallback); note that a cell whose own
    ``workers`` axis exceeds 1 then nests a ``parallel_encode`` pool
    inside a scheduler worker — legal, but size the spec accordingly.

    ``on_cell_complete`` fires after each result is persisted; an
    exception it raises aborts the run *after* persistence, which is
    exactly the mid-run-kill shape the resume tests inject.
    """
    if scheduler_workers < 1:
        raise OrchestrateError(
            f"scheduler workers must be >= 1, got {scheduler_workers}",
            spec=spec.name)
    if cache is None:
        cache = ArtifactCache()
    all_cells = list(cells) if cells is not None else expand_cells(spec)
    done = completed_cell_ids(store, info.run_id)
    pending = [cell for cell in all_cells if cell.cell_id not in done]
    skipped = [cell.cell_id for cell in all_cells if cell.cell_id in done]
    fingerprint = spec.fingerprint()
    telemetry_on = telemetry_state.enabled

    state = RunState(skipped=skipped)
    wall_start = time.perf_counter()
    wave_size = 1 if scheduler_workers == 1 else scheduler_workers * WAVE_FACTOR
    with correlation_scope(run_id=info.run_id):
        _run_waves(spec, store, info, cache, scheduler_workers,
                   executor_factory, on_cell_complete, progress, pending,
                   fingerprint, telemetry_on, state, wave_size)
    state.wall_seconds = time.perf_counter() - wall_start
    return state


def _run_waves(
    spec: RunSpec,
    store: HistoryStore,
    info: RunInfo,
    cache: ArtifactCache,
    scheduler_workers: int,
    executor_factory: Any,
    on_cell_complete: Optional[Callable[[CellResult], None]],
    progress: Optional[Callable[[str], None]],
    pending: Sequence[Cell],
    fingerprint: str,
    telemetry_on: bool,
    state: "RunState",
    wave_size: int,
) -> None:
    for offset in range(0, len(pending), wave_size):
        wave = pending[offset:offset + wave_size]
        if progress:
            for cell in wave:
                progress(cell.cell_id)
        if scheduler_workers == 1:
            results = [execute_cell(cell, cache) for cell in wave]
        else:
            jobs = [(cell.to_dict(), str(cache.root), telemetry_on)
                    for cell in wave]
            pool_kwargs: Dict[str, Any] = {}
            if executor_factory is not None:
                pool_kwargs["executor_factory"] = executor_factory
            results, pool_stats = run_pooled(
                _execute_cell_job, jobs, scheduler_workers,
                job_timeout=max(cell.timeout for cell in wave),
                serial_worker=_execute_cell_job_inline,
                rng=random.Random(fingerprint),
                **pool_kwargs)
            state.pool_stats.append(pool_stats)
            for result in results:
                # Workers that actually ran in the pool shipped their
                # registry delta; fold it into the parent, then count
                # the cache activity the pool hid from our handle.
                if result.telemetry is not None and telemetry_on:
                    telemetry_registry().merge(result.telemetry)
                if result.cache_hit:
                    cache.hits += 1
                elif result.ok:
                    cache.misses += 1
        for result in results:
            crash_point("scheduler.cell.pre_record", result.cell_id)
            store.append(cell_record(result, info, fingerprint))
            state.results.append(result)
            if telemetry_on:
                registry = telemetry_registry()
                registry.counter("orchestrate.cells").inc()
                if not result.ok:
                    registry.counter("orchestrate.cell_failures").inc()
                registry.histogram("orchestrate.cell_seconds",
                                   buckets=CELL_BUCKETS).observe(result.seconds)
            if on_cell_complete is not None:
                on_cell_complete(result)


__all__ = [
    "CellResult",
    "MANIFEST_SCHEMA",
    "ORCHESTRATE_BENCH",
    "RunState",
    "cell_record",
    "completed_cell_ids",
    "execute_cell",
    "load_manifest",
    "plan_shards",
    "run_cells",
    "shard_manifest",
    "write_manifests",
]
