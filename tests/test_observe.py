"""Tests for the benchmark-observability subsystem (repro.observe)."""

import hashlib
import json
import multiprocessing
import os
from dataclasses import replace

import pytest

from repro.errors import ObserveError
from repro.observe import (
    DEFAULT_POLICIES,
    BenchRecord,
    HistoryStore,
    RunInfo,
    compare_runs,
    current_git_sha,
    evaluate,
    mad,
    median,
    metric_trend,
    new_run_id,
    records_document,
    records_from_document,
    render_openmetrics,
)
from repro.observe.cli import main as observe_main
from repro.observe.record import (
    DOCUMENT_SCHEMA,
    RECORD_SCHEMA,
    records_from_performance,
    records_from_table,
)
from repro.telemetry import MetricsRegistry, MetricsSnapshot


#: A perfbench/run.py result line, trimmed to two metrics.
PERFBENCH_RESULT = {"correct": True, "attempted": 69, "failed": 0, "metrics": {
    "fps": {"value": 33.0, "unit": "frames/s"},
    "peak_rss_mb": {"value": 72.7, "unit": "MB"}}}


def record(run="run-000", bench="performance", fps=100.0, created=1000.0,
           **axes):
    axes = axes or {"codec": "mpeg2", "backend": "simd"}
    return BenchRecord(run_id=run, bench=bench, axes=axes,
                       metrics={"fps": fps}, created=created)


class TestBenchRecord:
    def test_round_trip(self):
        original = BenchRecord(
            run_id="run-1", bench="ratedistortion",
            axes={"codec": "h264", "sequence": "blue_sky"},
            metrics={"psnr_db": 39.5, "bitrate_kbps": 1200.0},
            created=1234.5, git_sha="abc123",
            context={"scale": "1/8", "frames": 9},
            parallel={"mode": "process", "workers": 4},
            telemetry={"schema": "repro.telemetry.metrics/1", "metrics": {}},
        )
        data = original.to_dict()
        assert data["schema"] == RECORD_SCHEMA
        assert BenchRecord.from_dict(data) == original
        # and survives an actual JSON wire trip
        assert BenchRecord.from_dict(json.loads(json.dumps(data))) == original

    def test_optional_attachments_omitted(self):
        data = record().to_dict()
        assert "parallel" not in data
        assert "telemetry" not in data

    def test_axis_key_is_sorted_and_stable(self):
        first = BenchRecord(run_id="r", bench="b",
                            axes={"b": 1, "a": "x"}, metrics={})
        second = BenchRecord(run_id="r", bench="b",
                             axes={"a": "x", "b": 1}, metrics={})
        assert first.axis_key == second.axis_key == "a=x|b=1"

    @pytest.mark.parametrize("bad", [
        dict(run_id=""), dict(bench=""),
        dict(metrics={"fps": float("nan")}),
        dict(metrics={"fps": float("inf")}),
        dict(metrics={"fps": "fast"}),
        dict(metrics={"fps": True}),
        dict(metrics={"": 1.0}),
        dict(axes={"codec": [1, 2]}),
        dict(context={"pid": object()}),
    ])
    def test_validation_rejects(self, bad):
        fields = dict(run_id="r", bench="performance",
                      axes={"codec": "mpeg2"}, metrics={"fps": 1.0})
        fields.update(bad)
        with pytest.raises(ObserveError):
            BenchRecord(**fields)

    def test_from_dict_rejects_wrong_schema(self):
        data = record().to_dict()
        data["schema"] = "something/else"
        with pytest.raises(ObserveError):
            BenchRecord.from_dict(data)

    def test_document_round_trip(self):
        records = [record(run="r1"), record(run="r1", bench="speedups",
                                            codec="h264", operation="decode")]
        document = records_document(records)
        assert document["schema"] == DOCUMENT_SCHEMA
        assert document["run_id"] == "r1"
        assert records_from_document(document) == records
        # a bare record is accepted too
        assert records_from_document(records[0].to_dict()) == [records[0]]

    def test_document_rejects_garbage(self):
        with pytest.raises(ObserveError):
            records_from_document({"schema": "nope"})
        with pytest.raises(ObserveError):
            records_from_document({"schema": DOCUMENT_SCHEMA, "records": 7})

    def test_run_ids_are_unique(self):
        assert new_run_id() != new_run_id()

    def test_current_git_sha_resolves_this_repo(self):
        sha = current_git_sha()
        assert len(sha) == 40
        assert all(ch in "0123456789abcdef" for ch in sha)

    def test_run_info_capture(self):
        info = RunInfo.capture(context={"frames": 3}, run_id="fixed-id")
        assert info.run_id == "fixed-id"
        assert info.created > 0
        assert info.context == {"frames": 3}

    def test_records_from_performance_attaches_telemetry(self):
        class Row:
            operation, backend = "encode", "simd"
            codec, sequence, resolution = "mpeg2", "blue_sky", "576p25"
            fps, real_time = 42.0, False

        info = RunInfo(run_id="r", created=1.0, git_sha="s")
        snapshot = {"schema": "repro.telemetry.metrics/1", "metrics": {}}
        built = records_from_performance([Row()], info, telemetry=snapshot)
        assert built[0].metrics == {"fps": 42.0, "real_time": 0.0}
        assert built[0].telemetry == snapshot

    def test_records_from_table_slugs_headers(self):
        info = RunInfo(run_id="r")
        built = records_from_table(
            "table1", ["Video applications", "fps"], [("a; b", 25)], info)
        assert built[0].axes == {"video_applications": "a; b", "fps": "25"}
        assert built[0].metrics == {}


def _append_worker(root, worker_index, count):
    store = HistoryStore(root)
    for i in range(count):
        store.append(record(run=f"w{worker_index}-{i:03d}",
                            fps=100.0 + worker_index, created=float(i)))


class TestHistoryStore:
    def test_append_load_round_trip(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        assert not store.exists()
        assert store.load() == []
        first, second = record(run="r1"), record(run="r2", fps=90.0)
        store.append(first)
        store.append(second)
        assert store.load() == [first, second]
        assert store.run_ids() == ["r1", "r2"]
        assert store.benches() == ["performance"]

    def test_one_json_line_per_record(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.append_many([record(run=f"r{i}") for i in range(3)])
        lines = store.path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert json.loads(line)["schema"] == RECORD_SCHEMA

    def test_malformed_lines_skipped_not_fatal(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.append(record(run="good-1"))
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("{torn line\n")
            handle.write('{"schema": "wrong/1"}\n')
        store.append(record(run="good-2"))
        loaded = store.load()
        assert [r.run_id for r in loaded] == ["good-1", "good-2"]
        assert store.skipped_lines == 2

    def test_query_by_bench_run_and_axes(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.append(record(run="r1", codec="mpeg2", backend="simd"))
        store.append(record(run="r1", codec="h264", backend="simd"))
        store.append(record(run="r2", codec="mpeg2", backend="scalar"))
        store.append(BenchRecord(run_id="r2", bench="ratedistortion",
                                 axes={"codec": "mpeg2"},
                                 metrics={"psnr_db": 40.0}))
        assert len(store.query(bench="performance")) == 3
        assert len(store.query(run_id="r2")) == 2
        assert len(store.query(codec="mpeg2")) == 3
        only = store.query(bench="performance", codec="mpeg2", backend="simd")
        assert [r.run_id for r in only] == ["r1"]

    def test_history_and_latest_per_axis(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        for run, fps in (("r1", 100.0), ("r2", 101.0), ("r3", 99.0)):
            store.append(record(run=run, fps=fps))
        store.append(record(run="r3", fps=50.0, codec="h264"))
        grouped = store.history_per_axis("performance")
        assert len(grouped) == 2
        key = ("performance", "backend=simd|codec=mpeg2")
        assert [r.run_id for r in grouped[key]] == ["r1", "r2", "r3"]
        assert store.latest_per_axis()[key].metrics["fps"] == 99.0

    def test_compact_keeps_newest_per_axis(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        for i in range(10):
            store.append(record(run=f"a{i}", fps=float(i)))
        for i in range(3):
            store.append(record(run=f"b{i}", fps=float(i), codec="h264"))
        dropped = store.compact(keep_last=4)
        assert dropped == 6
        grouped = store.history_per_axis()
        lengths = sorted(len(h) for h in grouped.values())
        assert lengths == [3, 4]
        key = ("performance", "backend=simd|codec=mpeg2")
        assert [r.run_id for r in grouped[key]] == ["a6", "a7", "a8", "a9"]
        # idempotent once within budget
        assert store.compact(keep_last=4) == 0

    def test_compact_rejects_zero_budget(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.append(record())
        with pytest.raises(ObserveError):
            store.compact(keep_last=0)

    def test_concurrent_writers_never_tear_lines(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        context = multiprocessing.get_context("fork")
        root = str(tmp_path / "hist")
        workers, per_worker = 4, 25
        processes = [
            context.Process(target=_append_worker, args=(root, i, per_worker))
            for i in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        store = HistoryStore(root)
        loaded = store.load()
        assert store.skipped_lines == 0
        assert len(loaded) == workers * per_worker
        run_ids = {r.run_id for r in loaded}
        assert len(run_ids) == workers * per_worker


def fill_axis(store, values, bench="performance", metric="fps", **axes):
    for i, value in enumerate(values):
        store.append(BenchRecord(
            run_id=f"run-{i:03d}", bench=bench, axes=axes or {"codec": "mpeg2"},
            metrics={metric: value}, created=float(i)))


def drift(store, bench=None):
    """The findings of the default drift policies."""
    return evaluate(store, DEFAULT_POLICIES, bench=bench)[1]


class TestRegressionDetection:
    def test_planted_throughput_drop_flagged(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 101.0, 99.5, 100.5, 100.2, 99.8, 80.0])
        findings = drift(store)
        assert [f.rule_id for f in findings] == ["OBS201"]
        assert "fps dropped" in findings[0].message
        assert "run-006" in findings[0].message

    def test_planted_psnr_drop_flagged(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [40.00, 40.01, 39.99, 40.02, 40.00, 39.80],
                  bench="ratedistortion", metric="psnr_db", codec="h264")
        findings = drift(store)
        assert [f.rule_id for f in findings] == ["OBS202"]

    def test_mad_level_noise_not_flagged(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        # jittery axis: swings of ~8% are this axis's normal noise, and the
        # newest value sits inside the noise band
        fill_axis(store, [100.0, 92.0, 108.0, 95.0, 105.0, 93.0, 91.5])
        assert drift(store) == []
        # quiet axis: the same 0.05 dB move stays under the 0.1 dB policy
        fill_axis(store, [40.00, 40.01, 39.99, 40.02, 40.00, 39.95],
                  bench="ratedistortion", metric="psnr_db", codec="h264")
        assert drift(store, bench="ratedistortion") == []

    def test_bitrate_growth_threshold(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [1000.0, 1001.0, 999.0, 1000.5, 1000.0, 1030.0],
                  bench="ratedistortion", metric="bitrate_kbps")
        findings = drift(store)
        assert [f.rule_id for f in findings] == ["OBS203"]
        assert "grew" in findings[0].message
        # 1% growth stays under the 2% tolerance
        store2 = HistoryStore(tmp_path / "hist2")
        fill_axis(store2, [1000.0, 1001.0, 999.0, 1000.5, 1000.0, 1010.0],
                  bench="ratedistortion", metric="bitrate_kbps")
        assert drift(store2) == []

    def test_single_record_axes_have_no_baseline(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.append(record(run="only", fps=10.0))
        assert drift(store) == []

    def test_detection_is_deterministic(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 101.0, 99.5, 100.5, 100.2, 99.8, 80.0])
        fill_axis(store, [40.0, 40.0, 40.0, 40.0, 40.0, 39.5],
                  bench="ratedistortion", metric="psnr_db", codec="h264")
        first = drift(store)
        second = drift(store)
        assert first == second

    def test_threshold_override(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 100.0, 100.0, 100.0, 100.0, 95.0])
        assert drift(store) == []
        tight = [replace(policy, mad_sigmas=0.0, threshold=0.02)
                 if policy.metric == "fps" else policy
                 for policy in DEFAULT_POLICIES]
        findings = evaluate(store, tight)[1]
        assert [f.rule_id for f in findings] == ["OBS201"]

    def test_robustness_rate_policy(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [1.0, 1.0, 1.0, 1.0, 0.9],
                  bench="robustness", metric="graceful_rate", codec="mpeg2")
        findings = drift(store)
        assert [f.rule_id for f in findings] == ["OBS204"]

    def test_policy_validation(self):
        for bad in (dict(window=0), dict(window=2.9), dict(window=True),
                    dict(mad_sigmas=-1.0), dict(mad_sigmas=float("nan")),
                    dict(mad_sigmas=float("inf")), dict(threshold=-0.1),
                    dict(threshold=float("nan")),
                    dict(threshold=float("inf"))):
            with pytest.raises(ObserveError):
                replace(DEFAULT_POLICIES[0], **bad)

    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 3.0, 100.0]) == pytest.approx(1.0)
        with pytest.raises(ObserveError):
            median([])

    def test_policy_table_covers_issue_metrics(self):
        by_metric = {policy.metric: policy for policy in DEFAULT_POLICIES}
        assert by_metric["fps"].threshold == pytest.approx(0.10)
        assert by_metric["psnr_db"].threshold == pytest.approx(0.1)
        assert by_metric["bitrate_kbps"].threshold == pytest.approx(0.02)

    def test_compare_and_trend(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 90.0])
        rows = compare_runs(store, "run-000", "run-001")
        assert rows == [("performance", "codec=mpeg2", "fps", 100.0, 90.0)]
        series = metric_trend(store, "performance", "fps")
        assert series == {"codec=mpeg2": [("run-000", 100.0),
                                          ("run-001", 90.0)]}


class TestOpenMetricsExport:
    def test_exposition_shape(self):
        registry = MetricsRegistry()
        registry.counter("enc.calls").inc(7)
        registry.gauge("pool.workers").set(4)
        histogram = registry.histogram("chunk.bytes", buckets=(10.0, 100.0))
        for value in (5, 50, 500):
            histogram.observe(value)
        rec = BenchRecord(
            run_id="r", bench="performance",
            axes={"codec": "mpeg2", "note": 'quote " back \\ slash'},
            metrics={"fps": 123.5},
            telemetry=registry.snapshot().to_dict(),
        )
        text = render_openmetrics([rec])
        lines = text.splitlines()
        assert text.endswith("# EOF\n")
        assert lines.count("# EOF") == 1
        # every non-comment line is `name{labels} value` or `name value`
        for line in lines:
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert name, line
            assert " " in line
            float(line.rsplit(" ", 1)[1].replace("+Inf", "inf"))
        # counters expose _total, histograms cumulative buckets + count/sum
        assert any("hdvb_telemetry_enc_calls_total 7" in l for l in lines)
        bucket_lines = [l for l in lines if "_bucket" in l]
        assert 'hdvb_telemetry_chunk_bytes_bucket{le="10.0"} 1' in lines
        assert 'hdvb_telemetry_chunk_bytes_bucket{le="100.0"} 2' in lines
        assert 'hdvb_telemetry_chunk_bytes_bucket{le="+Inf"} 3' in lines
        assert len(bucket_lines) == 3
        assert "hdvb_telemetry_chunk_bytes_count 3" in lines
        # label escaping survived
        assert r'note="quote \" back \\ slash"' in text
        # each family has exactly one TYPE line
        type_lines = [l for l in lines if l.startswith("# TYPE ")]
        assert len(type_lines) == len({l.split()[2] for l in type_lines})

    def test_gauge_exports_high_water_mark(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pool.workers")
        gauge.set(8)
        gauge.set(2)
        rec = BenchRecord(run_id="r", bench="performance",
                          axes={"codec": "x"}, metrics={},
                          telemetry=registry.snapshot().to_dict())
        text = render_openmetrics([rec])
        assert "hdvb_telemetry_pool_workers 2" in text
        assert 'hdvb_telemetry_pool_workers{aggregation="max"} 8' in text


class TestMetricsSnapshot:
    def test_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(5)
        registry.gauge("g").set(3)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        data = registry.snapshot().to_dict()
        rebuilt = MetricsRegistry.from_dict(data)
        assert rebuilt.snapshot().to_dict() == data

    def test_to_dict_is_a_deep_copy(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        data = registry.snapshot().to_dict()
        data["metrics"]["c"]["value"] = 999
        assert registry.snapshot().to_dict()["metrics"]["c"]["value"] == 1

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            MetricsSnapshot.from_dict({"schema": "nope", "metrics": {}})
        with pytest.raises(ValueError):
            MetricsSnapshot.from_dict(
                {"schema": "repro.telemetry.metrics/1",
                 "metrics": {"x": {"kind": "alien"}}})

    def test_histogram_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.6, 3.0, 3.5, 7.0):
            histogram.observe(value)
        assert 0.0 < histogram.p50 <= 4.0
        assert histogram.p50 <= histogram.p95 <= histogram.p99 <= 8.0
        # overflow values report the last finite bound, not infinity
        histogram.observe(100.0)
        assert histogram.p99 == 8.0
        with pytest.raises(ValueError):
            histogram.percentile(1.5)
        empty = registry.histogram("empty", buckets=(1.0,))
        assert empty.p50 == 0.0


class TestObserveCli:
    def gate(self, store, *extra):
        return observe_main(["gate", "--store", str(store)] + list(extra))

    def test_gate_exit_codes(self, tmp_path, capsys):
        store_dir = tmp_path / "hist"
        # 2: no history at all
        assert self.gate(store_dir) == 2
        assert "no history" in capsys.readouterr().err
        # 0: healthy history
        store = HistoryStore(store_dir)
        fill_axis(store, [100.0, 100.5, 99.5, 100.0, 100.2, 100.1])
        assert self.gate(store_dir) == 0
        assert "no findings" in capsys.readouterr().out
        # 1: planted regression
        store.append(BenchRecord(run_id="run-bad", bench="performance",
                                 axes={"codec": "mpeg2"},
                                 metrics={"fps": 80.0}, created=99.0))
        assert self.gate(store_dir) == 1
        assert "OBS201" in capsys.readouterr().out

    def test_gate_output_is_bit_reproducible(self, tmp_path, capsys):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 101.0, 99.5, 100.5, 100.2, 80.0])
        assert self.gate(tmp_path / "hist") == 1
        first = capsys.readouterr().out
        assert self.gate(tmp_path / "hist") == 1
        assert capsys.readouterr().out == first

    def test_gate_json_format(self, tmp_path, capsys):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 100.0, 100.0, 100.0, 100.0, 70.0])
        assert self.gate(tmp_path / "hist", "--format", "json") == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro.analysis.findings/1"
        assert document["findings"][0]["rule"] == "OBS201"

    def test_gate_threshold_flags(self, tmp_path, capsys):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 100.0, 100.0, 100.0, 100.0, 95.0])
        assert self.gate(tmp_path / "hist") == 0
        capsys.readouterr()
        assert self.gate(tmp_path / "hist", "--fps-drop", "0.02",
                         "--mad-sigmas", "0") == 1
        capsys.readouterr()
        # a NaN tolerance is a usage error, not a verdict
        assert self.gate(tmp_path / "hist", "--fps-drop", "nan") == 2
        assert "finite" in capsys.readouterr().err

    def test_malformed_lines_warn_on_gate_and_slo(self, tmp_path, capsys):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 100.0])
        with open(store.path, "ab") as handle:
            handle.write(b"not a record\n")
        for command in ("gate", "slo"):
            for fmt in ("human", "json"):
                assert observe_main([command, "--store", str(tmp_path / "hist"),
                                     "--format", fmt]) == 0
                assert capsys.readouterr().err == (
                    "warning: 1 malformed history line(s) skipped\n")

    def test_record_ingests_documents(self, tmp_path, capsys):
        document = records_document([record(run="rX")])
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        store_dir = tmp_path / "hist"
        assert observe_main(["record", "--store", str(store_dir),
                             str(path)]) == 0
        assert "appended 1 record(s)" in capsys.readouterr().err
        assert HistoryStore(store_dir).run_ids() == ["rX"]
        # --run-id override restamps every ingested record
        assert observe_main(["record", "--store", str(store_dir),
                             "--run-id", "rY", str(path)]) == 0
        assert HistoryStore(store_dir).run_ids() == ["rX", "rY"]

    def test_record_ingests_perfbench_results(self, tmp_path, capsys):
        # The last stdout line of perfbench/run.py, as it prints it.
        path = tmp_path / "result.json"
        path.write_text(json.dumps(PERFBENCH_RESULT) + "\n")
        store_dir = tmp_path / "hist"
        for run, fps in (("parent", 33.0), ("change", 44.0)):
            result = json.loads(path.read_text())
            result["metrics"]["fps"]["value"] = fps
            path.write_text(json.dumps(result))
            assert observe_main(["record", "--store", str(store_dir), "--run-id", run,
                                 "--axes", "workload=mpeg-decode,seed=1,trace=0",
                                 str(path)]) == 0
        records = HistoryStore(store_dir).query(bench="perfbench")
        assert [record.run_id for record in records] == ["parent", "change"]
        assert records[0].axes == {"workload": "mpeg-decode", "seed": "1", "trace": "0"}
        assert records[0].metrics == {"fps": 33.0, "peak_rss_mb": 72.7,
                                      "attempted": 69, "failed": 0}
        capsys.readouterr()
        assert observe_main(["compare", "--store", str(store_dir),
                             "--runs", "parent,change", "--bench", "perfbench"]) == 0
        out = capsys.readouterr().out
        assert "seed=1|trace=0|workload=mpeg-decode" in out and "+33.3%" in out

    @pytest.mark.parametrize("result, axes, message", [
        ({"attempted": 1, "failed": 0}, "workload=w,seed=1,trace=0", "no 'metrics'"),
        ({"attempted": 1, "failed": 0, "metrics": {"fps": 3.0}},
         "workload=w,seed=1,trace=0", "has no value"),
        ({"failed": 0, "metrics": {}}, "workload=w,seed=1,trace=0", "'attempted'"),
        ({"attempted": 1, "failed": 0, "metrics": {"fps": {"value": "fast"}}},
         "workload=w,seed=1,trace=0", "numeric"),
        (PERFBENCH_RESULT, "workload=w,seed=1", "trace"),
        (PERFBENCH_RESULT, "workload=w,seed=1,seed=2,trace=0", "key=value"),
        (PERFBENCH_RESULT, "workload", "key=value"),
        (records_document([record(run="rX")]), "workload=w,seed=1,trace=0",
         "perfbench results only"),
    ])
    def test_record_rejects_malformed_perfbench_results(self, tmp_path, capsys,
                                                        result, axes, message):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(result))
        assert observe_main(["record", "--store", str(tmp_path / "h"),
                             "--axes", axes, str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not HistoryStore(tmp_path / "h").exists()

    def test_record_rejects_non_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert observe_main(["record", "--store", str(tmp_path / "h"),
                             str(path)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_compare_and_trend_cli(self, tmp_path, capsys):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0, 90.0])
        assert observe_main(["compare", "--store",
                             str(tmp_path / "hist")]) == 0
        out = capsys.readouterr().out
        assert "run-000" in out and "run-001" in out and "-10.0%" in out
        assert observe_main(["trend", "--store", str(tmp_path / "hist"),
                             "--bench", "performance"]) == 0
        assert "codec=mpeg2" in capsys.readouterr().out
        assert observe_main(["trend", "--store", str(tmp_path / "hist"),
                             "--bench", "nope"]) == 2

    def test_export_cli(self, tmp_path, capsys):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [100.0])
        assert observe_main(["export", "--store", str(tmp_path / "hist")]) == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "hdvb_performance_fps" in out
        target = tmp_path / "metrics.prom"
        assert observe_main(["export", "--store", str(tmp_path / "hist"),
                             "--output", str(target)]) == 0
        assert target.read_text().endswith("# EOF\n")

    def test_compact_cli(self, tmp_path, capsys):
        store = HistoryStore(tmp_path / "hist")
        fill_axis(store, [float(i) for i in range(8)])
        assert observe_main(["compact", "--store", str(tmp_path / "hist"),
                             "--keep-last", "3"]) == 0
        assert "dropped 5" in capsys.readouterr().err
        assert len(HistoryStore(tmp_path / "hist").load()) == 3


#: One seeded history for the output pins.  Per (bench, axes): the
#: metric series, oldest first; ``None`` is a record that omits the
#: series' rate metrics, as a resumed orchestrate run does.
PIN_HISTORY = (
    ("performance", {"codec": "h264", "operation": "decode",
                     "resolution": "720p25"},
     {"fps": [30.0, 30.2, 29.8, 30.1, 29.9, 30.0, 20.0]}),
    ("performance", {"codec": "mpeg2", "operation": "decode",
                     "resolution": "720p25"},
     {"fps": [26.0, 24.0, 23.0, 22.0, 21.0]}),
    ("performance", {"codec": "h264", "operation": "encode",
                     "resolution": "720p25"},
     {"fps": [10.0, 10.0, 10.0]}),
    ("ratedistortion", {"codec": "h264", "sequence": "blue_sky"},
     {"psnr_db": [40.0, 40.01, 39.99, 40.0, 39.7],
      "bitrate_kbps": [1000.0, 1001.0, 999.0, 1000.0, 1050.0]}),
    ("robustness", {"codec": "mpeg2"},
     {"graceful_rate": [1.0, 1.0, 1.0, 0.9],
      "mean_psnr_delta_db": [-1.0, -1.0, -1.0, -1.5]}),
    ("serve", {"clients": 24, "seed": 0},
     {"deadline_miss_rate": [0.0, 0.01, 0.0, 0.3, 0.35, 0.4],
      "graceful_rate": [1.0, 1.0, 1.0, 1.0, 1.0, 0.97],
      "unhandled_escapes": [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
      "sessions_per_second": [5.0, 5.1, 4.9, 5.0, 5.0, 5.0]}),
    ("serve", {"clients": 8, "seed": 3},
     {"deadline_miss_rate": [0.0, 0.0, 0.01],
      "graceful_rate": [1.0, 1.0, 1.0]}),
    # An older record lacks the rates: drift's baseline and burn's
    # trailing window both skip it.
    ("orchestrate_run", {"spec": "mini-a"},
     {"cell_failure_rate": [0.0, None, 0.0, 0.25],
      "cache_hit_rate": [1.0, None, 0.5, 0.9],
      "cells_per_second": [10.0, None, 9.0, 10.0]}),
    # The newest record lacks the rates: drift judges nothing, burn
    # judges the newest record that carries them.
    ("orchestrate_run", {"spec": "mini-b"},
     {"cell_failure_rate": [0.0, 0.5, None],
      "cache_hit_rate": [1.0, 0.2, None],
      "cells_per_second": [10.0, 4.0, None]}),
)

PIN_SPEC = {
    "schema": "repro.observe.slo/1",
    "objectives": [
        {"name": "mpeg2-decode-fps", "bench": "performance", "metric": "fps",
         "objective": 25.0, "direction": "min", "window": 4,
         "fast_window": 2, "budget": 0.5, "burn_threshold": 1.5,
         "axes": {"codec": "mpeg2", "operation": "decode"}},
        {"name": "orchestrate-failures", "bench": "orchestrate_run",
         "metric": "cell_failure_rate", "objective": 0.0, "direction": "max",
         "window": 3, "fast_window": 1},
        {"name": "serve-miss-short", "bench": "serve",
         "metric": "deadline_miss_rate", "objective": 0.05,
         "window": 3, "fast_window": 1, "budget": 0.4},
    ],
}


def seed_pin_store(root):
    """Append :data:`PIN_HISTORY` plus one malformed line under ``root``."""
    store = HistoryStore(root)
    created = 0.0
    for bench, axes, series in PIN_HISTORY:
        length = len(next(iter(series.values())))
        for index in range(length):
            metrics = {metric: values[index]
                       for metric, values in series.items()
                       if values[index] is not None}
            if not metrics:
                metrics = {"cells_skipped": 3.0}
            created += 1.0
            store.append(BenchRecord(
                run_id=f"run-{index:03d}", bench=bench, axes=axes,
                metrics=metrics, created=created))
    with open(store.path, "ab") as handle:
        handle.write(b"not a record\n")
    return store


class TestGateOutputPins:
    """``gate`` and ``slo`` stdout and exit codes over one seeded store.

    The digests are of stdout with the store path replaced by
    ``<store>``; any change to a verdict, a message, the row order or
    the report layout shows here.
    """

    PINS = [
        (["gate"], 1,
         "d326d38a18260f90593f853418303a75ab595cdca80084cf682b4b5a0b20f8c8"),
        (["gate", "--format", "json"], 1,
         "f773588dfe4f42f4ce007b8d58fa7785cac65b7305bfd9c397b52728e298652a"),
        (["gate", "--mad-sigmas", "0"], 1,
         "9a3d3a9e97178665afd7903fd548bc2efd788b116267d2eeb2931db372c7b900"),
        (["gate", "--window", "2", "--fps-drop", "0.05", "--psnr-drop",
          "0.5", "--bitrate-growth", "0.1"], 1,
         "ea330a05c067d28ea27fafc1268db7c546ad63a7cdae13b7b0c9ffa6547c65f8"),
        (["gate", "--bench", "serve"], 1,
         "9372c3f515d1c9568e1c5d5620c30b6798130fa886e15c0192039c72de609e81"),
        (["slo"], 1,
         "5970ee77955d1f32b68ad0505b08301c12070033db404e1c1e1bf4e592b828b0"),
        (["slo", "--format", "json"], 1,
         "18f1b85ee1edd5f5659d510cb21e79b9a7564019a55af3c818da89bc1ccd796a"),
        (["slo", "--bench", "performance"], 1,
         "06f14173e39bfb1499e222c905fdbc7e29ae84e7a1f91103f227dcf41e9e9c9c"),
        (["slo", "--spec", "SPEC"], 1,
         "1a277275b7202368c46f5989b252d8fe9c8aa4b2114ffe3ee83e1fd03a72b912"),
        (["slo", "--spec", "SPEC", "--format", "json"], 1,
         "a30b4ac9c784af811bcce8481da8cee3bd878c26f9a4f8028fa127db69b9f71b"),
    ]

    def invoke(self, tmp_path, capsys, argv):
        store = seed_pin_store(tmp_path / "hist")
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps(PIN_SPEC))
        argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
        code = observe_main(argv + ["--store", str(tmp_path / "hist")])
        out = capsys.readouterr().out.replace(str(store.path), "<store>")
        return code, out

    @pytest.mark.parametrize("argv, code, digest", PINS,
                             ids=[" ".join(argv) for argv, _, _ in PINS])
    def test_output_is_pinned(self, tmp_path, capsys, argv, code, digest):
        got_code, out = self.invoke(tmp_path, capsys, argv)
        assert got_code == code
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_store_fires_every_rule(self, tmp_path, capsys):
        fired = set()
        for index, argv in enumerate((
                ["gate", "--format", "json"],
                ["slo", "--format", "json"],
                ["slo", "--spec", "SPEC", "--format", "json"])):
            (tmp_path / str(index)).mkdir()
            _, out = self.invoke(tmp_path / str(index), capsys, argv)
            fired |= {finding["rule"]
                      for finding in json.loads(out)["findings"]}
        assert fired == {f"OBS20{n}" for n in range(1, 8)} | {
            "OBS300", "OBS301", "OBS302"}


class TestBenchCliIntegration:
    """--json / --record threaded through hdvb-bench."""

    def test_static_table_json(self, capsys):
        from repro.bench.cli import main as bench_main

        assert bench_main(["table1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        records = records_from_document(document)
        assert len(records) == 6
        assert records[0].bench == "table1"
        assert records[0].axes["benchmark"] == "Mediabench I"

    def test_ratedistortion_alias_records_to_store(self, tmp_path, capsys,
                                                   monkeypatch):
        from repro.bench.cli import main as bench_main

        monkeypatch.chdir(tmp_path)
        args = ["ratedistortion", "--codecs", "mpeg2", "--sequences",
                "rush_hour", "--tiers", "576p25", "--scale", "1/16",
                "--frames", "2", "--runs", "1", "--json", "--record",
                "--store", str(tmp_path / "hist"), "--run-id", "ci-run"]
        assert bench_main(args) == 0
        captured = capsys.readouterr()
        document = json.loads(captured.out)
        assert document["run_id"] == "ci-run"
        store = HistoryStore(tmp_path / "hist")
        records = store.query(bench="ratedistortion", run_id="ci-run")
        assert records
        assert {"psnr_db", "bitrate_kbps"} <= set(records[0].metrics)
        assert "recorded" in captured.err

    def test_performance_record_attaches_telemetry(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        args = ["performance", "--codecs", "mpeg2", "--sequences",
                "rush_hour", "--tiers", "576p25", "--scale", "1/16",
                "--frames", "2", "--runs", "1", "--record",
                "--store", str(tmp_path / "hist")]
        assert bench_main(args) == 0
        capsys.readouterr()
        records = HistoryStore(tmp_path / "hist").query(bench="performance")
        assert records and records[0].telemetry is not None
        snapshot = MetricsSnapshot.from_dict(records[0].telemetry)
        assert snapshot["metrics"]
        assert len(records[0].git_sha) == 40


class TestRenderTableAlignment:
    def test_numeric_columns_right_aligned_above_1000(self):
        from repro.bench.report import render_table

        text = render_table(["codec", "fps"],
                            [("mpeg2", "1234.5"), ("h264", "9.8")])
        lines = text.splitlines()
        wide, narrow = lines[-2], lines[-1]
        # magnitude alignment: both values end at the same column
        assert wide.rstrip().endswith("1234.5")
        assert narrow.rstrip().endswith("9.8")
        assert len(wide.rstrip()) == len(narrow.rstrip())

    def test_text_columns_stay_left_aligned(self):
        from repro.bench.report import render_table

        text = render_table(["name", "comment"],
                            [("a", "first words"), ("bbbb", "x")])
        lines = text.splitlines()
        assert lines[-2].startswith("a    |")
        assert lines[-1].startswith("bbbb |")
