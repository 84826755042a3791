"""Tests for ``repro.chaos`` — fault injection, fsck and crash recovery.

Five layers:

* the seeded :class:`FaultPlan` is deterministic (same seed → same fault
  sequence) and validates itself loudly;
* every injected fault class surfaces as a contextful ``ReproError``
  from the production code paths, never an unhandled crash;
* every durable writer, under every fault on its temp file, fails the
  way it documents and leaves neither a torn destination nor a temp;
* fsck detects each planted corruption (torn tail, mangled line,
  bit-flipped artifact, orphan temp, stale lock), repairs to a clean
  re-check, and never touches a healthy store or cache;
* the forked-process crash matrix proves, for every registered crash
  point: kill → ``fsck --repair`` → resume yields records bit-identical
  to an uninterrupted run.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.chaos import (
    CRASH_EXIT_CODE,
    CRASH_POINTS,
    FAULT_KINDS,
    ChaosFS,
    FaultPlan,
    activate,
    crash_point,
    fileops,
)
from repro.chaos.harness import DEFAULT_SPEC, run_matrix, scenario_for
from repro.errors import (
    ChaosError,
    CrashInjected,
    ObserveError,
    OrchestrateError,
    ReproError,
)
from repro.observe.fsck import FSCK_SCHEMA, QUARANTINE_SCHEMA, fsck_store
from repro.observe.record import BenchRecord, RunInfo
from repro.observe.store import HistoryStore
from repro.orchestrate.artifacts import (
    ARTIFACT_SCHEMA,
    ArtifactCache,
    cell_fingerprint,
)
from repro.orchestrate.cache_cli import main as cache_main
from repro.orchestrate.fsck import fsck_cache
from repro.orchestrate.scheduler import run_cells
from repro.orchestrate.spec import parse_spec
from repro.observe.cli import main as observe_main


def record(run="r1", **axes):
    return BenchRecord(run_id=run, bench="performance",
                       axes=axes or {"codec": "mpeg2"},
                       metrics={"fps": 100.0}, created=0.0)


def _tiny_stream():
    from repro.codecs import get_encoder
    from repro.sequences import generate_sequence

    video = generate_sequence("blue_sky", "576p25", frames=2, scale=(1, 16))
    encoder = get_encoder("mjpeg", width=video.width, height=video.height)
    return encoder.encode_sequence(video)


def _committed_entry(tmp_path, name="cache"):
    """A cache with one committed entry; returns (cache, entry_dir)."""
    cache = ArtifactCache(str(tmp_path / name))
    fingerprint = cell_fingerprint("mjpeg", "seq-hash", {"qscale": 8}, 1)
    entry, hit = cache.ensure(fingerprint,
                              lambda: (_tiny_stream(), {"psnr_db": 30.0}))
    assert not hit
    return cache, entry.path


def _require_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")


# ----------------------------------------------------------------------
# the fault plan
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_fault_sequence(self):
        def draw_all(seed):
            plan = FaultPlan(seed=seed, rate=0.5)
            return [(fault.kind, fault.op) if fault else None
                    for fault in (plan.draw("write", "f") for _ in range(64))]

        assert draw_all(7) == draw_all(7)
        assert draw_all(7) != draw_all(8)

    def test_rate_zero_never_faults(self):
        plan = FaultPlan(seed=0, rate=0.0)
        assert all(plan.draw("write") is None for _ in range(32))

    def test_max_faults_caps_the_stream(self):
        plan = FaultPlan(seed=0, rate=1.0, max_faults=3)
        faults = [plan.draw("write") for _ in range(10)]
        assert sum(1 for fault in faults if fault is not None) == 3

    def test_untargeted_op_passes_through(self):
        plan = FaultPlan(seed=0, rate=1.0, ops=["fsync"])
        assert plan.draw("write") is None
        assert plan.draw("fsync") is not None

    def test_crash_at_fires_on_the_armed_hit_only(self):
        plan = FaultPlan().crash_at("store.append.pre_write", hit=2)
        assert not plan.should_crash("store.append.pre_write")
        assert plan.should_crash("store.append.pre_write")
        assert not plan.should_crash("store.append.pre_write")
        assert not plan.should_crash("store.append.post_write")

    def test_unregistered_crash_point_is_chaos_error(self):
        with pytest.raises(ChaosError, match="unregistered crash point"):
            FaultPlan().crash_at("store.append.pre_repalce")
        try:
            FaultPlan().crash_at("no.such.point")
        except ChaosError as error:
            assert error.crash_point == "no.such.point"

    def test_plan_validation(self):
        with pytest.raises(ChaosError, match="unknown fault kind"):
            FaultPlan(kinds=["meteor_strike"])
        with pytest.raises(ChaosError, match="unknown fault op"):
            FaultPlan(ops=["chmod"])
        with pytest.raises(ChaosError, match="rate"):
            FaultPlan(rate=1.5)
        with pytest.raises(ChaosError, match="max_faults"):
            FaultPlan(max_faults=-1)

    def test_registry_is_frozen_and_scenario_mapped(self):
        assert len(CRASH_POINTS) == len(set(CRASH_POINTS)) == 11
        for point in CRASH_POINTS:
            assert scenario_for(point) in ("run", "compact")


# ----------------------------------------------------------------------
# injected faults surface as contextful errors, not crashes
# ----------------------------------------------------------------------


class TestInjectedFaults:
    def test_fileops_is_passthrough_without_activation(self, tmp_path):
        assert fileops() is fileops()
        crash_point("store.append.pre_write")    # no-op, must not raise

    def test_crash_point_validates_even_in_production(self):
        with pytest.raises(ChaosError, match="unregistered"):
            crash_point("store.append.pre_repalce")

    def test_enospc_on_append_becomes_observe_error(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        plan = FaultPlan(seed=0, rate=1.0, kinds=["enospc"], ops=["open"],
                         max_faults=1)
        with activate(ChaosFS(plan)):
            with pytest.raises(ObserveError, match="cannot open history"):
                store.append(record())
        assert plan.injected[0].kind == "enospc"
        # the key stays usable once the disk "recovers"
        store.append(record())
        assert len(store.load()) == 1

    def test_io_error_on_write_becomes_observe_error(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        plan = FaultPlan(seed=0, rate=1.0, kinds=["oserror"], ops=["write"],
                         max_faults=1)
        with activate(ChaosFS(plan)):
            with pytest.raises(ObserveError, match="append .* failed"):
                store.append(record())

    def test_short_write_detected_not_silent(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        plan = FaultPlan(seed=0, rate=1.0, kinds=["short_write"],
                         ops=["write"], max_faults=1)
        with activate(ChaosFS(plan)):
            with pytest.raises(ObserveError, match="short write"):
                store.append(record())
        # the torn prefix is on disk -- exactly what fsck must find
        assert store.load() == []
        assert store.malformed and store.malformed[0].reason == "truncated-tail"

    def test_fsync_lie_is_counted_and_non_fatal(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        store.append_many([record(run=f"r{i}", qp=i) for i in range(3)])
        plan = FaultPlan(seed=0, rate=1.0, kinds=["fsync_lie"],
                         ops=["fsync"])
        with activate(ChaosFS(plan)) as fs:
            assert store.compact(keep_last=1) == 0   # distinct axes: no-op
            store2 = HistoryStore(str(tmp_path / "hist2"))
            store2.append_many([record(run=f"r{i}") for i in range(3)])
            assert store2.compact(keep_last=1) == 2
            assert fs.fsync_lies == 1
        assert len(store2.load()) == 1

    def test_lock_busy_exercises_the_flight_wait_path(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"), poll_seconds=0.01)
        fingerprint = cell_fingerprint("mjpeg", "h", {"qscale": 8}, 1)
        plan = FaultPlan(seed=0, rate=1.0, kinds=["lock_busy"],
                         ops=["open"], max_faults=1)
        with activate(ChaosFS(plan)):
            entry, hit = cache.ensure(
                fingerprint, lambda: (_tiny_stream(), {"psnr_db": 30.0}))
        assert not hit
        assert cache.flight_waits == 1      # the phantom leader was waited on
        assert entry.metrics == {"psnr_db": 30.0}

    def test_crash_injected_carries_point_and_path(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        plan = FaultPlan().crash_at("store.append.pre_write")
        with activate(ChaosFS(plan)):
            with pytest.raises(CrashInjected) as excinfo:
                store.append(record())
        assert excinfo.value.crash_point == "store.append.pre_write"
        assert str(store.path) in str(excinfo.value)
        assert isinstance(excinfo.value, ChaosError)
        assert isinstance(excinfo.value, ReproError)

    def test_execute_cell_never_swallows_crash_injected(self, tmp_path):
        from repro.orchestrate.scheduler import execute_cell
        from repro.orchestrate.spec import expand_cells

        spec = parse_spec(DEFAULT_SPEC)
        cell = expand_cells(spec)[0]
        plan = FaultPlan().crash_at("scheduler.cell.pre_execute")
        with activate(ChaosFS(plan)):
            with pytest.raises(CrashInjected):
                execute_cell(cell, ArtifactCache(str(tmp_path / "cache")))

    def test_mid_write_tear_leaves_half_a_line(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        store.append(record(run="good"))
        plan = FaultPlan().crash_at("store.append.mid_write")
        with activate(ChaosFS(plan)):
            with pytest.raises(CrashInjected):
                store.append(record(run="torn"))
        assert [r.run_id for r in store.load()] == ["good"]
        assert store.malformed[0].reason == "truncated-tail"
        assert store.malformed[0].offset > 0


# ----------------------------------------------------------------------
# store fsck
# ----------------------------------------------------------------------


class TestStoreFsck:
    def _dirty_store(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        store.append(record(run="good-1"))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"mangled\n')
        store.append(record(run="good-2"))
        with open(store.path, "ab") as handle:
            handle.write(b'{"schema":"repro.observe.record/1","half')
        return store

    def test_healthy_store_untouched(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        store.append_many([record(run=f"r{i}") for i in range(3)])
        before = store.path.read_bytes()
        assert fsck_store(store, repair=True) == []
        assert store.path.read_bytes() == before
        assert not store.quarantine_path.exists()

    def test_detects_each_planted_corruption(self, tmp_path):
        store = self._dirty_store(tmp_path)
        store.compact_tmp_path.write_bytes(b"debris")
        findings = fsck_store(store)
        assert [f.rule_id for f in findings] == ["FSCK301", "FSCK302",
                                                 "FSCK303"]
        assert "offset" in findings[0].message

    def test_repair_quarantines_and_preserves_good_bytes(self, tmp_path):
        store = self._dirty_store(tmp_path)
        good_lines = [line for line in store.path.read_bytes().splitlines(True)
                      if line.startswith(b'{"axes"') or b'"fps"' in line]
        findings = fsck_store(store, repair=True)
        assert len(findings) == 2
        assert fsck_store(store) == []
        # good records survived byte-identically, bad ranges quarantined
        assert store.path.read_bytes() == b"".join(good_lines)
        assert [r.run_id for r in store.load()] == ["good-1", "good-2"]
        envelopes = [json.loads(line) for line in
                     store.quarantine_path.read_text().splitlines()]
        assert [e["schema"] for e in envelopes] == [QUARANTINE_SCHEMA] * 2
        assert base64.b64decode(envelopes[0]["data"]) == b'{"mangled'
        assert envelopes[1]["reason"] == "truncated-tail"

    def test_cli_reports_and_deletes_repair_debris(self, tmp_path):
        # A repair that died mid-rewrite leaves the same ``<history>.tmp``
        # a compaction would: one FSCK303 covers both.
        store = HistoryStore(str(tmp_path / "hist"))
        store.append(record())
        Path(str(store.path) + ".tmp").write_bytes(b"half a repair")
        root = str(store.root)
        assert observe_main(["fsck", "--store", root]) == 1
        assert observe_main(["fsck", "--repair", "--store", root]) == 0
        assert not store.compact_tmp_path.exists()
        assert observe_main(["fsck", "--store", root]) == 0

    def test_repair_deletes_orphan_compact_temp(self, tmp_path):
        store = HistoryStore(str(tmp_path / "hist"))
        store.append(record())
        store.compact_tmp_path.write_bytes(b"debris")
        findings = fsck_store(store, repair=True)
        assert [f.rule_id for f in findings] == ["FSCK303"]
        assert not store.compact_tmp_path.exists()
        assert fsck_store(store) == []

    def test_malformed_lines_have_exact_offsets(self, tmp_path):
        store = self._dirty_store(tmp_path)
        raw = store.path.read_bytes()
        store.scan()
        for bad in store.malformed:
            assert raw[bad.offset:bad.offset + bad.length].startswith(bad.data)

    def test_cli_exit_codes_and_json_schema(self, tmp_path, capsys):
        store = self._dirty_store(tmp_path)
        assert observe_main(["fsck", "--store", str(store.root),
                             "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == FSCK_SCHEMA
        assert document["summary"]["by_rule"] == {"FSCK301": 1, "FSCK302": 1}
        assert observe_main(["fsck", "--repair",
                             "--store", str(store.root)]) == 0
        assert observe_main(["fsck", "--store", str(store.root)]) == 0


# ----------------------------------------------------------------------
# cache fsck
# ----------------------------------------------------------------------


class TestCacheFsck:
    def test_healthy_cache_untouched(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        before = {path: path.read_bytes()
                  for path in entry_dir.iterdir()}
        assert fsck_cache(cache, repair=True) == []
        assert {path: path.read_bytes()
                for path in entry_dir.iterdir()} == before

    def test_bit_flip_quarantined(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        artifact = entry_dir / "artifact.hdvb"
        payload = bytearray(artifact.read_bytes())
        payload[len(payload) // 2] ^= 0x40
        artifact.write_bytes(bytes(payload))
        findings = fsck_cache(cache, repair=True)
        assert [f.rule_id for f in findings] == ["FSCK312"]
        assert fsck_cache(cache) == []
        assert not entry_dir.exists()
        quarantined = cache.root / "quarantine" / entry_dir.name
        assert (quarantined / "artifact.hdvb").is_file()
        # the fingerprint misses now -- a rerun re-produces it
        assert cache.get(entry_dir.name) is None

    def test_uncommitted_entry_deleted(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        (entry_dir / "meta.json").unlink()
        findings = fsck_cache(cache, repair=True)
        assert [f.rule_id for f in findings] == ["FSCK310"]
        assert not entry_dir.exists()
        assert fsck_cache(cache) == []

    def test_corrupt_meta_quarantined(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        (entry_dir / "meta.json").write_text("{not json")
        findings = fsck_cache(cache, repair=True)
        assert [f.rule_id for f in findings] == ["FSCK311"]
        assert fsck_cache(cache) == []

    def test_orphan_temp_deleted(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        orphan = entry_dir / "artifact.hdvb.tmp"
        orphan.write_bytes(b"half")
        shard_orphan = entry_dir.parent / "stray.tmp"
        shard_orphan.write_bytes(b"half")
        findings = fsck_cache(cache, repair=True)
        assert [f.rule_id for f in findings] == ["FSCK313", "FSCK313"]
        assert not orphan.exists() and not shard_orphan.exists()
        assert fsck_cache(cache) == []

    def test_failed_quarantine_is_an_error_and_flagged_again(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        entry_dir = cache.root / "ab" / "ab00"
        entry_dir.mkdir(parents=True)
        (entry_dir / "meta.json").write_text("{not json")
        plan = FaultPlan(seed=0, rate=1.0, kinds=["oserror"], ops=["replace"])
        with activate(ChaosFS(plan)):
            with pytest.raises(OrchestrateError, match="cannot quarantine"):
                fsck_cache(cache, repair=True)
        assert entry_dir.is_dir()
        assert [f.rule_id for f in fsck_cache(cache)] == ["FSCK311"]

    def test_stale_lock_broken_and_counted(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        lock = entry_dir.parent / (entry_dir.name + ".lock")
        lock.write_text("12345\n")
        hour_ago = time.time() - 3600.0
        os.utime(lock, (hour_ago, hour_ago))
        reported = fsck_cache(cache)        # check-only reports, keeps lock
        assert [f.rule_id for f in reported] == ["FSCK314"]
        assert lock.exists()
        assert cache.stale_locks_broken == 0
        findings = fsck_cache(cache, repair=True)
        assert [f.rule_id for f in findings] == ["FSCK314"]
        assert not lock.exists()
        assert cache.stale_locks_broken == 1
        assert cache.stats()["stale_locks_broken"] == 1

    def test_fresh_lock_respected_unless_lock_age_zero(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        lock = entry_dir.parent / (entry_dir.name + ".lock")
        lock.write_text("12345\n")
        assert fsck_cache(cache) == []              # an active leader
        findings = fsck_cache(cache, repair=True, lock_age=0.0)
        assert [f.rule_id for f in findings] == ["FSCK314"]
        assert not lock.exists()

    def test_missing_digest_upgraded_in_place(self, tmp_path):
        cache, entry_dir = _committed_entry(tmp_path)
        meta_path = entry_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        expected = meta.pop("sha256")
        meta_path.write_text(json.dumps(meta))
        findings = fsck_cache(cache, repair=True)
        assert [f.rule_id for f in findings] == ["FSCK315"]
        assert fsck_cache(cache) == []
        assert json.loads(meta_path.read_text())["sha256"] == expected

    def test_cli_exit_codes_and_stats(self, tmp_path, capsys):
        cache, entry_dir = _committed_entry(tmp_path)
        (entry_dir / "meta.json").write_text("{not json")
        root = str(cache.root)
        assert cache_main(["fsck", "--cache", root, "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == FSCK_SCHEMA
        assert cache_main(["fsck", "--repair", "--cache", root]) == 0
        assert cache_main(["fsck", "--cache", root]) == 0
        assert cache_main(["stats", "--cache", root]) == 0
        assert "1 quarantined" in capsys.readouterr().out


# ----------------------------------------------------------------------
# every durable writer under every fault on its temp file
# ----------------------------------------------------------------------


class _TempFileFaults(FaultPlan):
    """A plan that faults only ``.tmp`` files: the write of an
    ``atomic_write``, not the locks, appends and reads around it."""

    def draw(self, op, path=""):
        if not path.endswith(".tmp"):
            return None
        return super().draw(op, path)


def _dump_with_events_on(recorder):
    from repro.telemetry import events

    events.enable()
    try:
        return recorder.dump("matrix")
    finally:
        events.disable()
        events.reset()


def _flight_dump(tmp_path):
    from repro.telemetry.flightrec import FlightRecorder

    recorder = FlightRecorder(dump_dir=str(tmp_path / "flightrec"))
    return (tmp_path / "flightrec" / "global-matrix-0001.json",
            lambda: _dump_with_events_on(recorder), None)


def _lint_cache(tmp_path):
    import ast

    from repro.analysis.cache import LintCache

    cache = LintCache(tmp_path / "lint-cache")
    destination = tmp_path / "lint-cache" / "ast" / "feed.pkl"
    destination.parent.mkdir(parents=True)
    destination.write_bytes(b"old pickle")
    return (destination,
            lambda: cache.store_tree("feed", ast.parse("x = 1")), None)


def _shard_manifest(tmp_path):
    from repro.orchestrate.scheduler import write_manifests
    from repro.orchestrate.spec import expand_cells

    spec = parse_spec(DEFAULT_SPEC)
    directory = tmp_path / "manifests"
    destination = directory / (f"{spec.name}-{spec.fingerprint()}"
                               f"-shard-0-of-1.json")
    directory.mkdir()
    destination.write_bytes(b"old manifest")
    return (destination,
            lambda: write_manifests(spec, expand_cells(spec), 1, directory),
            OrchestrateError)


def _cache_meta_upgrade(tmp_path):
    cache = ArtifactCache(str(tmp_path / "cache"))
    entry_dir = cache.root / "ab" / "ab00"
    entry_dir.mkdir(parents=True)
    (entry_dir / "artifact.hdvb").write_bytes(b"data")
    destination = entry_dir / "meta.json"
    destination.write_text(json.dumps({"schema": ARTIFACT_SCHEMA,
                                       "bytes": 4}))
    return (destination, lambda: fsck_cache(cache, repair=True),
            OrchestrateError)


def _cache_artifact(tmp_path):
    from repro.codecs.base import EncodedVideo

    cache = ArtifactCache(str(tmp_path / "cache"))
    fingerprint = cell_fingerprint("mjpeg", "seq-hash", {"qscale": 8}, 1)

    def produce():
        return EncodedVideo("mjpeg", 16, 16, 25), {"psnr_db": 30.0}

    return (cache.root / fingerprint[:2] / fingerprint / "artifact.hdvb",
            lambda: cache.ensure(fingerprint, produce), OrchestrateError)


def _store_compaction(tmp_path):
    store = HistoryStore(str(tmp_path / "hist"))
    store.append_many([record(run=f"r{i}") for i in range(3)])
    return store.path, lambda: store.compact(keep_last=1), ObserveError


def _store_fsck_rebuild(tmp_path):
    store = HistoryStore(str(tmp_path / "hist"))
    store.append(record())
    with open(store.path, "ab") as handle:
        handle.write(b'{"mangled\n')
    return store.path, lambda: fsck_store(store, repair=True), ObserveError


def _lint_baseline(tmp_path):
    from repro.analysis import BaselineError, write_baseline
    from repro.analysis.findings import Finding

    destination = tmp_path / ".hdvb-lint-baseline.json"
    write_baseline(destination, [])
    finding = Finding(rule_id="HDVB110", path="codecs/dec.py", line=3,
                      message="planted", module="codecs/dec.py")
    return (destination, lambda: write_baseline(destination, [finding]),
            BaselineError)


#: writer -> setup(tmp_path) returning (destination, write, failure):
#: ``failure`` is the exception the writer documents, or ``None`` for the
#: writers that report a failed write by returning ``None``.
DURABLE_WRITERS = {
    "flight-dump": _flight_dump,
    "lint-cache": _lint_cache,
    "shard-manifest": _shard_manifest,
    "cache-meta-upgrade": _cache_meta_upgrade,
    "cache-artifact": _cache_artifact,
    "store-compaction": _store_compaction,
    "store-fsck-rebuild": _store_fsck_rebuild,
    "lint-baseline": _lint_baseline,
}

#: Every way the temp write can fail, as (op, fault kind).
TEMP_WRITE_FAULTS = {
    "open-oserror": ("open", "oserror"),
    "write-enospc": ("write", "enospc"),
    "short-write": ("write", "short_write"),
    "fsync-oserror": ("fsync", "oserror"),
    "replace-oserror": ("replace", "oserror"),
}


class TestDurableWriterFaults:
    @pytest.mark.parametrize("fault", sorted(TEMP_WRITE_FAULTS))
    @pytest.mark.parametrize("writer", sorted(DURABLE_WRITERS))
    def test_fault_fails_cleanly_and_keeps_the_old_bytes(
            self, tmp_path, writer, fault):
        destination, write, failure = DURABLE_WRITERS[writer](tmp_path)
        old = destination.read_bytes() if destination.exists() else None
        op, kind = TEMP_WRITE_FAULTS[fault]
        plan = _TempFileFaults(seed=0, rate=1.0, kinds=[kind], ops=[op])
        with activate(ChaosFS(plan)):
            if failure is None:
                assert write() is None
            else:
                with pytest.raises(failure):
                    write()
        assert [(f.op, f.kind) for f in plan.injected] == [(op, kind)]
        # The write failed, so old-or-new means old (or still absent).
        new = destination.read_bytes() if destination.exists() else None
        assert new == old
        assert sorted(tmp_path.rglob("*.tmp")) == []


# ----------------------------------------------------------------------
# recovery end to end
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_quarantined_record_is_retryable(self, tmp_path):
        spec = parse_spec(DEFAULT_SPEC)
        store = HistoryStore(str(tmp_path / "store"))
        cache = ArtifactCache(str(tmp_path / "cache"))
        info = RunInfo(run_id="chaos-run")
        run_cells(spec, store, info, cache=cache)
        reference = sorted(store.path.read_bytes().splitlines(True))

        # mangle the first cell's record, as a torn write would
        lines = store.path.read_bytes().splitlines(True)
        store.path.write_bytes(lines[0][: len(lines[0]) // 2] + b"\n"
                               + b"".join(lines[1:]))
        assert fsck_store(store, repair=True)
        resumed = run_cells(spec, store, info, cache=cache)
        assert len(resumed.results) == 1        # only the quarantined cell
        assert len(resumed.skipped) == 1
        assert resumed.results[0].cache_hit     # artifact survived untouched
        assert sorted(store.path.read_bytes().splitlines(True)) == reference

    def test_crash_point_matrix_recovers_bit_identically(self, tmp_path):
        _require_fork()
        proofs = run_matrix(work_dir=tmp_path / "matrix")
        assert len(proofs) == len(CRASH_POINTS)
        for proof in proofs:
            assert proof.child_exit == CRASH_EXIT_CODE, proof.render()
            assert proof.recheck_clean, proof.render()
            assert proof.identical, proof.render()

    def test_fault_kinds_catalogue_is_frozen(self):
        assert FAULT_KINDS == ("oserror", "enospc", "short_write",
                               "fsync_lie", "lock_busy")


# ----------------------------------------------------------------------
# crash points leave a flight-record post-mortem behind
# ----------------------------------------------------------------------


class TestCrashFlightDumps:
    """An injected crash, with telemetry on, dumps the flight ring
    before dying — and the dump reconstructs the same timeline twice."""

    @pytest.fixture(autouse=True)
    def _telemetry(self, tmp_path):
        from repro.telemetry import events, flightrec

        events.disable()
        events.reset()
        original = flightrec.recorder.dump_dir
        flightrec.recorder.configure(dump_dir=str(tmp_path / "flightrec"))
        yield
        events.disable()
        events.reset()
        flightrec.recorder.configure(dump_dir=original)

    def _crash_once(self, tmp_path, point, tag):
        """Arm `point`, crash a store write, return the dump document."""
        from repro.observe.timeline import load_flight_dumps
        from repro.telemetry import events, flightrec
        from repro.telemetry.events import correlation_scope, emit

        dump_dir = tmp_path / f"flightrec-{tag}"
        events.reset()
        flightrec.recorder.configure(dump_dir=str(dump_dir))
        events.enable()
        # The store path is part of the crash event, so both runs use
        # the same one; only the dump directories are distinct.
        store = HistoryStore(str(tmp_path / "hist"))
        if point == "store.compact.pre_replace":
            store.append_many([record(run=f"r{i}") for i in range(3)])
        plan = FaultPlan().crash_at(point)
        with correlation_scope(run_id="crash-run"):
            emit("session.state", state="writing", t=0.0)
            with activate(ChaosFS(plan)):
                with pytest.raises(CrashInjected):
                    if point == "store.compact.pre_replace":
                        store.compact(keep_last=1)
                    else:
                        store.append(record())
        events.disable()
        dumps = load_flight_dumps(str(dump_dir))
        assert len(dumps) == 1
        return dumps[0]

    @pytest.mark.parametrize("point", ["store.append.pre_write",
                                       "store.compact.pre_replace"])
    def test_crash_point_dumps_wellformed_postmortem(self, tmp_path, point):
        dump = self._crash_once(tmp_path, point, "a")
        assert dump["schema"] == "repro.telemetry.flightdump/1"
        assert dump["trigger"] == "crash.injected"
        assert dump["correlation_id"] == "crash-run"
        assert dump["extra"]["crash_point"] == point
        names = [event["name"] for event in dump["events"]]
        assert "session.state" in names
        assert "crash.injected" in names
        for event in dump["events"]:
            assert event["schema"] == "repro.telemetry.event/1"
            assert {"wall", "pid", "tid"}.isdisjoint(event)

    def test_crash_survives_a_dump_that_faults(self, tmp_path):
        from repro.telemetry import events

        dump_dir = tmp_path / "flightrec"
        events.enable()
        store = HistoryStore(str(tmp_path / "hist"))
        plan = FaultPlan(seed=0, rate=1.0, kinds=["oserror"]).crash_at(
            "store.append.pre_write")
        with activate(ChaosFS(plan)) as fs:
            with pytest.raises(CrashInjected):
                store.append(record())
        # The crash fired before the store's own open: the one fault hit
        # the dump's temp file, and the dump gave way to the crash.
        assert [(f.op, f.path) for f in fs.injected] == [
            ("open", str(dump_dir / "global-crash-injected-0001.json.tmp"))]
        assert list(dump_dir.iterdir()) == []

    def test_crash_timeline_reconstructs_identically(self, tmp_path):
        from repro.observe.timeline import build_timeline

        point = "store.append.pre_write"
        first = self._crash_once(tmp_path, point, "a")
        second = self._crash_once(tmp_path, point, "b")
        timelines = [
            json.dumps(build_timeline("crash-run", dumps=[dump]),
                       sort_keys=True)
            for dump in (first, second)]
        assert timelines[0] == timelines[1]
        reconstructed = json.loads(timelines[0])
        assert [event["name"] for event in reconstructed["events"]] == [
            "session.state", "crash.injected"]
