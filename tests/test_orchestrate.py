"""Tests for repro.orchestrate: specs, artifact cache, scheduler, report.

The acceptance trio lives here: two runs of the same spec yield
bit-identical observe records, the second run hits the artifact cache
for every cell, and a run killed mid-flight resumes by skipping exactly
the cells that already completed.
"""

import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.errors import OrchestrateError
from repro.observe.record import RunInfo
from repro.observe.gate import DEFAULT_POLICIES, evaluate
from repro.observe.store import HistoryStore
from repro.orchestrate.artifacts import (
    ArtifactCache,
    cell_fingerprint,
    sequence_digest,
)
from repro.orchestrate.report import (
    render_orchestrate,
    summarize,
    summary_records,
)
from repro.orchestrate.scheduler import (
    CellResult,
    cell_record,
    completed_cell_ids,
    load_manifest,
    plan_shards,
    run_cells,
    write_manifests,
)
from repro.orchestrate.spec import (
    Cell,
    cell_from_dict,
    expand_cells,
    load_spec,
    parse_spec,
)

MINI_SPEC = {
    "schema": "repro.orchestrate.spec/1",
    "name": "mini",
    "axes": {
        "codec": ["mpeg2", "h264"],
        "sequence": ["blue_sky"],
        "resolution": ["576p25"],
        "workers": [1, 2],
    },
    "frames": 6,
    "scale": "1/16",
}


def mini_spec():
    return parse_spec(MINI_SPEC)


# ----------------------------------------------------------------------
# spec parsing + deterministic expansion
# ----------------------------------------------------------------------


class TestSpec:
    def test_defaults_applied(self):
        spec = parse_spec({"name": "d", "axes": {
            "codec": ["mpeg2"], "sequence": ["riverbed"],
            "resolution": ["720p25"]}})
        assert spec.backends == ("simd",)
        assert spec.workers == (1,)
        assert spec.qps == (5,)
        assert spec.repeats == 1
        assert spec.cell_timeout == 600.0

    @pytest.mark.parametrize("mutation, match", [
        ({"unknown_key": 1}, "unknown spec key"),
        ({"name": ""}, "non-empty string 'name'"),
        ({"axes": {"codec": ["mpeg2"], "sequence": ["blue_sky"],
                   "resolution": ["576p25"], "color": ["red"]}},
         "unknown axis"),
        ({"axes": {"codec": ["betamax"], "sequence": ["blue_sky"],
                   "resolution": ["576p25"]}}, "axes.codec"),
        ({"axes": {"codec": ["mpeg2"], "sequence": ["blue_sky"],
                   "resolution": ["9000p"]}}, "axes.resolution"),
        ({"axes": {"codec": ["mpeg2"], "sequence": ["blue_sky"],
                   "resolution": ["576p25"], "qp": [99]}}, "axes.qp"),
        ({"axes": {"codec": ["mpeg2"], "sequence": ["blue_sky"],
                   "resolution": ["576p25"], "workers": [0]}},
         "axes.workers"),
        ({"axes": {"codec": [], "sequence": ["blue_sky"],
                   "resolution": ["576p25"]}}, "must not be empty"),
        ({"axes": {"codec": ["mpeg2", "mpeg2"], "sequence": ["blue_sky"],
                   "resolution": ["576p25"]}}, "repeats value"),
        ({"scale": "zero"}, "scale must be a fraction"),
        ({"cell_timeout": -1}, "cell_timeout"),
    ])
    def test_malformed_specs_raise_orchestrate_error(self, mutation, match):
        data = dict(MINI_SPEC)
        data.update(mutation)
        with pytest.raises(OrchestrateError, match=match):
            parse_spec(data)

    def test_missing_required_axis(self):
        with pytest.raises(OrchestrateError, match="must declare 'sequence'"):
            parse_spec({"name": "x", "axes": {
                "codec": ["mpeg2"], "resolution": ["576p25"]}})

    def test_boolean_axis_value_rejected(self):
        with pytest.raises(OrchestrateError, match="boolean"):
            parse_spec({"name": "x", "axes": {
                "codec": ["mpeg2"], "sequence": ["blue_sky"],
                "resolution": ["576p25"], "workers": [True]}})

    def test_expansion_is_deterministic(self):
        first = expand_cells(mini_spec())
        second = expand_cells(mini_spec())
        assert first == second
        assert len(first) == mini_spec().cell_count() == 4
        assert [c.cell_id for c in first] == [c.cell_id for c in second]

    def test_expansion_order_is_canonical(self):
        cells = expand_cells(mini_spec())
        # codec is the outermost loop; workers vary innermost of the two.
        assert [(c.codec, c.workers) for c in cells] == [
            ("mpeg2", 1), ("mpeg2", 2), ("h264", 1), ("h264", 2)]

    def test_cell_round_trips_through_manifest_dict(self):
        cell = expand_cells(mini_spec())[0]
        assert cell_from_dict(cell.to_dict()) == cell

    def test_fingerprint_ignores_document_key_order(self):
        shuffled = {key: MINI_SPEC[key]
                    for key in reversed(list(MINI_SPEC))}
        assert parse_spec(shuffled).fingerprint() == mini_spec().fingerprint()

    def test_fingerprint_changes_with_content(self):
        other = dict(MINI_SPEC, frames=7)
        assert parse_spec(other).fingerprint() != mini_spec().fingerprint()

    def test_load_spec_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(MINI_SPEC))
        assert load_spec(path) == mini_spec()

    def test_load_spec_yaml_matches_json(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(
            "name: mini\n"
            "axes:\n"
            "  codec: [mpeg2, h264]\n"
            "  sequence: [blue_sky]\n"
            "  resolution: [576p25]\n"
            "  workers: [1, 2]\n"
            "frames: 6\n"
            "scale: 1/16\n")
        spec = load_spec(path)
        assert spec == mini_spec()
        assert spec.fingerprint() == mini_spec().fingerprint()

    def test_yaml_without_pyyaml_is_a_clear_error(self, tmp_path,
                                                  monkeypatch):
        import sys

        monkeypatch.setitem(sys.modules, "yaml", None)
        path = tmp_path / "spec.yaml"
        path.write_text("name: mini\n")
        with pytest.raises(OrchestrateError, match="PyYAML"):
            load_spec(path)

    def test_unreadable_spec_file(self, tmp_path):
        with pytest.raises(OrchestrateError, match="cannot read spec"):
            load_spec(tmp_path / "missing.json")

    def test_invalid_json_spec_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(OrchestrateError, match="not valid JSON"):
            load_spec(path)


# ----------------------------------------------------------------------
# fingerprints + artifact cache
# ----------------------------------------------------------------------


class TestFingerprints:
    FIELDS = {"width": 96, "height": 72, "qp": 26, "backend": "simd"}

    def test_backend_is_excluded(self):
        scalar = dict(self.FIELDS, backend="scalar")
        assert (cell_fingerprint("h264", "abc", self.FIELDS, 1)
                == cell_fingerprint("h264", "abc", scalar, 1))

    @pytest.mark.parametrize("codec, seq, fields, chunks", [
        ("mpeg2", "abc", FIELDS, 1),
        ("h264", "def", FIELDS, 1),
        ("h264", "abc", dict(FIELDS, qp=28), 1),
        ("h264", "abc", FIELDS, 2),
    ])
    def test_every_component_matters(self, codec, seq, fields, chunks):
        base = cell_fingerprint("h264", "abc", self.FIELDS, 1)
        other = cell_fingerprint(codec, seq, fields, chunks)
        if (codec, seq, fields, chunks) == ("h264", "abc", self.FIELDS, 1):
            assert other == base
        else:
            assert other != base

    def test_sequence_digest_is_deterministic(self):
        from repro.sequences import generate_sequence

        one = generate_sequence("blue_sky", "576p25", frames=3,
                                scale=(1, 16))
        two = generate_sequence("blue_sky", "576p25", frames=3,
                                scale=(1, 16))
        assert sequence_digest(one) == sequence_digest(two)


def _tiny_stream():
    from repro.codecs import get_encoder
    from repro.sequences import generate_sequence

    video = generate_sequence("blue_sky", "576p25", frames=3, scale=(1, 16))
    encoder = get_encoder("mjpeg", width=video.width, height=video.height)
    return encoder.encode_sequence(video)


def _flight_worker(root, fingerprint, side_file):
    """Forked single-flight contender: encodes only as the leader."""
    cache = ArtifactCache(root, wait_timeout=60.0, poll_seconds=0.01)

    def produce():
        # O_APPEND side channel: one line per *actual* encode.
        descriptor = os.open(side_file, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                             0o644)
        try:
            os.write(descriptor, b"encoded\n")
        finally:
            os.close(descriptor)
        return _tiny_stream(), {"psnr_db": 30.0}

    entry, _ = cache.ensure(fingerprint, produce)
    assert entry.metrics == {"psnr_db": 30.0}
    assert entry.load_stream().frame_count == 3


class TestArtifactCache:
    def test_miss_then_hit_without_reencoding(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        stream = _tiny_stream()
        entry, hit = cache.ensure("f" * 64,
                                  lambda: (stream, {"psnr_db": 31.5}))
        assert not hit and cache.misses == 1
        assert entry.metrics == {"psnr_db": 31.5}

        def exploding_producer():
            raise AssertionError("cache hit must not re-encode")

        again, hit = cache.ensure("f" * 64, exploding_producer)
        assert hit and cache.hits == 1
        assert again.metrics == {"psnr_db": 31.5}
        assert again.load_stream().total_bytes == stream.total_bytes

    def test_fresh_handle_sees_committed_entry(self, tmp_path):
        root = str(tmp_path / "cache")
        ArtifactCache(root).ensure("a" * 64,
                                   lambda: (_tiny_stream(), {"x": 1.0}))
        entry = ArtifactCache(root).get("a" * 64)
        assert entry is not None and entry.metrics == {"x": 1.0}

    def test_failed_producer_is_not_cached_and_key_is_retryable(
            self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))

        def bad_producer():
            raise OrchestrateError("encoder exploded")

        with pytest.raises(OrchestrateError, match="encoder exploded"):
            cache.ensure("b" * 64, bad_producer)
        assert cache.get("b" * 64) is None
        entry, hit = cache.ensure("b" * 64,
                                  lambda: (_tiny_stream(), {"x": 2.0}))
        assert not hit and entry.metrics == {"x": 2.0}

    def test_corrupt_meta_raises_orchestrate_error(self, tmp_path):
        cache = ArtifactCache(str(tmp_path / "cache"))
        cache.ensure("c" * 64, lambda: (_tiny_stream(), {"x": 1.0}))
        meta = tmp_path / "cache" / "cc" / ("c" * 64) / "meta.json"
        meta.write_text("{broken")
        with pytest.raises(OrchestrateError, match="corrupt cache meta"):
            ArtifactCache(str(tmp_path / "cache")).get("c" * 64)

    def test_single_flight_under_forked_concurrent_writers(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        context = multiprocessing.get_context("fork")
        root = str(tmp_path / "cache")
        side_file = str(tmp_path / "encodes.log")
        fingerprint = "d" * 64
        processes = [
            context.Process(target=_flight_worker,
                            args=(root, fingerprint, side_file))
            for _ in range(6)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        with open(side_file, "rb") as handle:
            encodes = handle.read().splitlines()
        assert encodes == [b"encoded"]    # exactly one leader encoded


# ----------------------------------------------------------------------
# scheduler: run, resume, shards
# ----------------------------------------------------------------------


def run_once(tmp_path, tag, spec=None, run_id="run-A", **kwargs):
    spec = spec or mini_spec()
    store = HistoryStore(str(tmp_path / f"store-{tag}"))
    cache = ArtifactCache(str(tmp_path / "shared-cache"))
    info = RunInfo.capture(run_id=run_id)
    state = run_cells(spec, store, info, cache=cache, **kwargs)
    return store, cache, info, state


class TestScheduler:
    def test_serial_run_records_every_cell(self, tmp_path):
        spec = mini_spec()
        store, cache, info, state = run_once(tmp_path, "a", spec)
        assert len(state.results) == 4 and not state.failures
        records = store.query("orchestrate", run_id="run-A")
        assert len(records) == 4
        assert ({record.axis_key for record in records}
                == {cell.cell_id for cell in expand_cells(spec)})
        for record in records:
            assert record.context["status"] == "ok"
            assert record.created == 0.0
            assert record.metrics["psnr_db"] > 0
            assert record.context["spec_fingerprint"] == spec.fingerprint()

    def test_two_runs_yield_bit_identical_records(self, tmp_path):
        store_a, _, _, _ = run_once(tmp_path, "a")
        store_b, cache_b, _, state_b = run_once(tmp_path, "b")
        lines_a = [json.dumps(r.to_dict(), sort_keys=True)
                   for r in store_a.query("orchestrate", run_id="run-A")]
        lines_b = [json.dumps(r.to_dict(), sort_keys=True)
                   for r in store_b.query("orchestrate", run_id="run-A")]
        assert lines_a == lines_b
        # ... and the second run paid for nothing: every cell was a hit.
        assert state_b.cache_hits == len(state_b.results) == 4
        assert cache_b.hits == 4 and cache_b.misses == 0

    def test_mid_run_kill_then_resume_skips_completed_cells(self, tmp_path):
        spec = mini_spec()
        store = HistoryStore(str(tmp_path / "store"))
        cache = ArtifactCache(str(tmp_path / "cache"))
        info = RunInfo.capture(run_id="run-A")
        seen = []

        def kill_after_two(result):
            seen.append(result.cell_id)
            if len(seen) == 2:
                raise KeyboardInterrupt("simulated mid-run kill")

        with pytest.raises(KeyboardInterrupt):
            run_cells(spec, store, info, cache=cache,
                      on_cell_complete=kill_after_two)
        assert completed_cell_ids(store, "run-A") == set(seen)

        resumed = run_cells(spec, store, info, cache=cache)
        assert sorted(resumed.skipped) == sorted(seen)
        assert len(resumed.results) == 2
        assert {r.cell_id for r in resumed.results}.isdisjoint(seen)
        # The union covers the matrix exactly once.
        records = store.query("orchestrate", run_id="run-A")
        assert len(records) == 4

    def test_failed_cell_is_recorded_and_retried_on_resume(
            self, tmp_path, monkeypatch):
        import repro.orchestrate.scheduler as scheduler_module

        spec = mini_spec()
        real_measure = scheduler_module._measure_cell

        def failing_measure(cell, cache):
            if cell.codec == "h264":
                raise OrchestrateError("injected cell failure")
            return real_measure(cell, cache)

        monkeypatch.setattr(scheduler_module, "_measure_cell",
                            failing_measure)
        store, cache, info, state = run_once(tmp_path, "a", spec)
        assert len(state.failures) == 2
        failed_records = [r for r in store.query("orchestrate")
                          if r.context["status"] == "failed"]
        assert len(failed_records) == 2
        for record in failed_records:
            assert "injected cell failure" in record.context["error"]
            assert "spec=mini" in record.context["error"]
            assert record.metrics == {}
        # Failed cells are not "completed": the resume scan retries them.
        assert len(completed_cell_ids(store, "run-A")) == 2
        monkeypatch.setattr(scheduler_module, "_measure_cell", real_measure)
        resumed = run_cells(spec, store, info, cache=cache)
        assert len(resumed.results) == 2 and not resumed.failures

    def test_unexpected_exception_becomes_orchestrate_error(
            self, tmp_path, monkeypatch):
        import repro.orchestrate.scheduler as scheduler_module

        def exploding_measure(cell, cache):
            raise RuntimeError("boom")

        monkeypatch.setattr(scheduler_module, "_measure_cell",
                            exploding_measure)
        store, _, _, state = run_once(tmp_path, "a")
        assert len(state.failures) == 4
        assert all("unexpected RuntimeError" in f.error
                   for f in state.failures)
        assert all(f"cell={f.cell_id}" in f.error for f in state.failures)

    def test_pooled_run_matches_serial_records(self, tmp_path):
        store_serial, _, _, _ = run_once(tmp_path, "serial")
        store_pool, _, _, state = run_once(tmp_path, "pool",
                                           scheduler_workers=2)
        assert not state.failures
        serial = sorted(json.dumps(r.to_dict(), sort_keys=True)
                        for r in store_serial.query("orchestrate"))
        pooled = sorted(json.dumps(r.to_dict(), sort_keys=True)
                        for r in store_pool.query("orchestrate"))
        assert serial == pooled

    def test_plan_shards_round_robin_partition(self):
        cells = expand_cells(mini_spec())
        shards = plan_shards(cells, 3)
        assert [len(shard) for shard in shards] == [2, 1, 1]
        flattened = [cell for shard in shards for cell in shard]
        assert sorted(c.cell_id for c in flattened) == sorted(
            c.cell_id for c in cells)
        with pytest.raises(OrchestrateError, match="shard count"):
            plan_shards(cells, 0)

    def test_manifest_round_trip(self, tmp_path):
        spec = mini_spec()
        cells = expand_cells(spec)
        paths = write_manifests(spec, cells, 2, tmp_path / "manifests")
        assert len(paths) == 2
        union = []
        for path in paths:
            name, fingerprint, shard_cells = load_manifest(path)
            assert name == "mini"
            assert fingerprint == spec.fingerprint()
            union.extend(shard_cells)
        assert sorted(c.cell_id for c in union) == sorted(
            c.cell_id for c in cells)

    def test_load_manifest_rejects_garbage(self, tmp_path):
        path = tmp_path / "not-a-manifest.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(OrchestrateError, match="not a shard manifest"):
            load_manifest(path)


# ----------------------------------------------------------------------
# report + OBS207 gate
# ----------------------------------------------------------------------


def synthetic_result(workers, seconds, ok=True, hit=False, repeat=0):
    cell = Cell(spec_name="syn", codec="mpeg2", sequence="blue_sky",
                resolution="576p25", backend="simd", workers=workers,
                qp=5, repeat=repeat, frames=6, scale="1/16", seed=0,
                timeout=600.0)
    return CellResult(cell=cell.to_dict(), cell_id=cell.cell_id,
                      status="ok" if ok else "failed",
                      metrics={"psnr_db": 30.0} if ok else {},
                      seconds=seconds, cache_hit=hit,
                      fingerprint="f" * 64 if ok else "",
                      error="" if ok else "OrchestrateError: synthetic")


def gate_without_noise_band(store):
    """The default drift gate's findings with ``mad_sigmas`` 0."""
    policies = [replace(policy, mad_sigmas=0) for policy in DEFAULT_POLICIES]
    return evaluate(store, policies)[1]


class TestReport:
    def spec(self):
        return parse_spec({
            "name": "syn",
            "axes": {"codec": ["mpeg2"], "sequence": ["blue_sky"],
                     "resolution": ["576p25"], "workers": [1, 2, 4]},
            "frames": 6, "scale": "1/16"})

    def state_with(self, results):
        from repro.orchestrate.scheduler import RunState

        return RunState(results=results, skipped=[], wall_seconds=2.0)

    def test_scaling_speedup_efficiency_and_sweet_spot(self):
        results = [synthetic_result(1, 8.0), synthetic_result(2, 4.2),
                   synthetic_result(4, 4.0)]
        summary = summarize(self.spec(), self.state_with(results))
        by_workers = {row.workers: row for row in summary.scaling}
        assert by_workers[1].speedup == pytest.approx(1.0)
        assert by_workers[2].speedup == pytest.approx(8.0 / 4.2)
        assert by_workers[4].speedup == pytest.approx(2.0)
        assert by_workers[4].efficiency == pytest.approx(0.5)
        # 2 workers reach >=90% of the best speedup; 4 buy almost nothing.
        assert summary.sweet_spot == 2

    def test_cache_hits_are_excluded_from_scaling(self):
        results = [synthetic_result(1, 8.0),
                   synthetic_result(2, 0.001, hit=True)]
        summary = summarize(self.spec(), self.state_with(results))
        assert [row.workers for row in summary.scaling] == [1]

    def test_failure_examples_bounded_and_rates(self):
        results = [synthetic_result(1, 1.0)] + [
            synthetic_result(2, 0.1, ok=False, repeat=i) for i in range(7)]
        summary = summarize(self.spec(), self.state_with(results))
        assert summary.cells_failed == 7
        assert summary.cell_failure_rate == pytest.approx(7 / 8)
        assert len(summary.failure_examples) == 5
        text = render_orchestrate(summary)
        assert "OrchestrateError: synthetic" in text
        assert "7 cells" in text

    def test_summary_records_shape(self):
        results = [synthetic_result(1, 1.0), synthetic_result(2, 0.6)]
        summary = summarize(self.spec(), self.state_with(results))
        info = RunInfo.capture(run_id="run-R")
        records = summary_records(summary, info)
        assert [r.bench for r in records] == [
            "orchestrate_run", "orchestrate_scaling", "orchestrate_scaling"]
        run_record = records[0]
        for metric in ("cell_failure_rate", "cache_hit_rate",
                       "cells_per_second", "wall_seconds"):
            assert metric in run_record.metrics

    def test_obs207_gate_flags_planted_cell_failures(self, tmp_path):
        store = HistoryStore(str(tmp_path / "store"))
        info_a = RunInfo.capture(run_id="run-1")
        info_b = RunInfo.capture(run_id="run-2")
        good = summarize(self.spec(), self.state_with(
            [synthetic_result(1, 1.0)]))
        bad = summarize(self.spec(), self.state_with(
            [synthetic_result(1, 1.0),
             synthetic_result(2, 0.1, ok=False)]))
        store.append_many(summary_records(good, info_a))
        store.append_many(summary_records(bad, info_b))
        findings = gate_without_noise_band(store)
        assert any(f.rule_id == "OBS207" and "cell_failure_rate" in f.message
                   for f in findings)

    def test_obs207_gate_clean_on_identical_runs(self, tmp_path):
        store = HistoryStore(str(tmp_path / "store"))
        good = summarize(self.spec(), self.state_with(
            [synthetic_result(1, 1.0)]))
        store.append_many(summary_records(good, RunInfo.capture(run_id="r1")))
        store.append_many(summary_records(good, RunInfo.capture(run_id="r2")))
        findings = gate_without_noise_band(store)
        assert [f for f in findings if f.rule_id == "OBS207"] == []

    def test_resumed_run_omits_unmeasured_rates(self, tmp_path):
        from repro.orchestrate.scheduler import RunState

        resumed = summarize(self.spec(), RunState(
            results=[], skipped=["a", "b", "c"], wall_seconds=0.0))
        records = summary_records(resumed, RunInfo.capture(run_id="r2"))
        for metric in ("cell_failure_rate", "cells_per_second",
                       "cache_hit_rate"):
            assert metric not in records[0].metrics
        assert records[0].metrics["cells_skipped"] == 3.0
        # The gate must not misread an all-skipped resume as a
        # throughput/cache regression.
        store = HistoryStore(str(tmp_path / "store"))
        good = summarize(self.spec(), self.state_with(
            [synthetic_result(1, 1.0)]))
        store.append_many(summary_records(good, RunInfo.capture(run_id="r1")))
        store.append_many(records)
        findings = gate_without_noise_band(store)
        assert [f for f in findings if f.rule_id == "OBS207"] == []

    def test_cell_record_is_deterministic(self):
        result = synthetic_result(1, 1.23)
        info = RunInfo.capture(run_id="run-R")
        record = cell_record(result, info, "feedc0de")
        assert record.created == 0.0
        assert "seconds" not in record.metrics
        assert record.axis_key == result.cell_id
