"""Unit tests for the repro.telemetry subsystem (trace/metrics/profile)."""

from __future__ import annotations

import asyncio
import importlib.util
import json
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

import repro.telemetry as telemetry
from repro.telemetry import flightrec
from repro.telemetry.events import correlation_scope, emit
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import DEFAULT_MAX_RECORDS, NOOP_SPAN

ROOT = Path(__file__).resolve().parents[1]


def load_check_trace():
    spec = importlib.util.spec_from_file_location(
        "check_trace", ROOT / "scripts" / "check_trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test starts disabled with empty buffers and leaves no residue."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert telemetry.span("anything", key="value") is NOOP_SPAN
        with telemetry.span("anything") as sp:
            sp.set(ignored=True)
        assert len(telemetry.current_trace()) == 0

    def test_enabled_span_records_wall_time_and_attrs(self):
        telemetry.enable()
        with telemetry.span("work", codec="mpeg2") as sp:
            sp.set(frames=9)
        (record,) = telemetry.current_trace().spans()
        assert record.name == "work"
        assert record.attrs == {"codec": "mpeg2", "frames": 9}
        assert record.duration >= 0
        assert record.parent_id is None

    def test_nesting_links_parents(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        records = {r.span_id: r for r in telemetry.current_trace().spans()}
        outer = next(r for r in records.values() if r.name == "outer")
        inners = [r for r in records.values() if r.name == "inner"]
        assert len(inners) == 2
        assert all(r.parent_id == outer.span_id for r in inners)
        # Siblings closed before the outer span did.
        assert all(r.end <= outer.end for r in inners)

    def test_span_closes_and_records_error_under_exception(self):
        telemetry.enable()
        with pytest.raises(ValueError):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    raise ValueError("boom")
        records = telemetry.current_trace().spans()
        assert len(records) == 2
        by_name = {r.name: r for r in records}
        assert by_name["inner"].attrs["error"] == "ValueError"
        assert by_name["outer"].attrs["error"] == "ValueError"
        # The stacks unwound: a new root span has no parent.
        with telemetry.span("after"):
            pass
        assert telemetry.current_trace().spans("after")[0].parent_id is None

    def test_explicit_error_attribute_wins(self):
        telemetry.enable()
        with pytest.raises(KeyError):
            with telemetry.span("lookup") as sp:
                sp.set(error="CustomLabel")
                raise KeyError("x")
        (record,) = telemetry.current_trace().spans()
        assert record.attrs["error"] == "CustomLabel"

    @staticmethod
    def _run_in_threads():
        ready = threading.Barrier(2)

        def worker(tag):
            with telemetry.span(f"root.{tag}"):
                ready.wait(timeout=5)
                with telemetry.span(f"child.{tag}"):
                    pass

        threads = [threading.Thread(target=worker, args=(t,)) for t in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()

    @staticmethod
    def _run_in_tasks():
        async def worker(tag, ready):
            other = "b" if tag == "a" else "a"
            with telemetry.span(f"root.{tag}"):
                ready[tag].set()
                # Both roots are open across this await.
                await asyncio.wait_for(ready[other].wait(), timeout=5)
                with telemetry.span(f"child.{tag}"):
                    pass

        async def main():
            ready = {tag: asyncio.Event() for tag in "ab"}
            await asyncio.gather(*(worker(tag, ready) for tag in "ab"))

        asyncio.run(main())

    @pytest.mark.parametrize("run", ["threads", "tasks"])
    def test_threads_keep_separate_stacks(self, run):
        telemetry.enable()
        getattr(self, f"_run_in_{run}")()
        records = telemetry.current_trace().spans()
        assert len(records) == 4
        for tag in "ab":
            child = next(r for r in records if r.name == f"child.{tag}")
            root = next(r for r in records if r.name == f"root.{tag}")
            assert root.parent_id is None
            assert child.parent_id == root.span_id
            assert child.tid == root.tid


# ---------------------------------------------------------------------------
# the record log: one bound, one reset
# ---------------------------------------------------------------------------

class TestRecordLog:
    @pytest.mark.parametrize("kind", ["span", "event"])
    def test_buffer_cap_drops_and_counts(self, kind):
        telemetry.enable(max_records=3)
        try:
            for index in range(5):
                if kind == "span":
                    with telemetry.span("s"):
                        pass
                else:
                    emit("session.state", state=index)
            log = telemetry.current_trace()
            assert len(log) == 3
            assert log.dropped == 2
            kept = log.spans() if kind == "span" else log.events()
            assert len(kept) == 3
        finally:
            telemetry.state.trace.max_records = DEFAULT_MAX_RECORDS

    def test_reset_empties_everything(self, tmp_path):
        recorder = flightrec.recorder
        original_dir = recorder.dump_dir
        recorder.configure(dump_dir=str(tmp_path / "flightrec"))
        try:
            telemetry.enable()
            telemetry.registry().counter("work").inc()
            with telemetry.span("done"):
                pass
            with correlation_scope(session_id="s1"):
                emit("session.state", state="live")
                with telemetry.span("still.open"):
                    assert recorder.dump("session.aborted") is not None
                    assert recorder.ring("s1") and recorder.open_spans()
                    telemetry.reset()
                    log = telemetry.current_trace()
                    assert log.spans() == [] and log.events() == []
                    assert len(log) == 0 and log.dropped == 0
                    assert recorder.ring("s1") == recorder.ring(None) == []
                    assert recorder.open_spans() == []
                    assert recorder.dumps == []
                    assert len(telemetry.registry()) == 0
                    assert emit("session.state", state="again").seq == 1
        finally:
            recorder.configure(dump_dir=original_dir)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

class TestExport:
    def _traced(self):
        telemetry.enable()
        with telemetry.span("outer", codec="h264"):
            with telemetry.span("inner"):
                pass
        telemetry.disable()
        return telemetry.current_trace()

    def test_native_json_schema(self):
        trace = self._traced()
        document = json.loads(trace.to_json())
        assert document["schema"] == "repro.telemetry.trace/1"
        assert len(document["spans"]) == 2
        outer = next(s for s in document["spans"] if s["name"] == "outer")
        assert outer["attrs"] == {"codec": "h264"}
        assert outer["end"] >= outer["start"]

    def test_chrome_trace_schema(self):
        trace = self._traced()
        document = trace.to_chrome(metadata={"tool": "test"})
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(events) == 2
        for event in events:
            assert event["ts"] >= 0 and event["dur"] >= 0
        assert document["otherData"]["schema"] == "repro.telemetry.trace/1"
        assert document["otherData"]["tool"] == "test"

    def test_check_trace_validates_both_formats(self, tmp_path):
        check_trace = load_check_trace()
        trace = self._traced()
        chrome = tmp_path / "chrome.json"
        chrome.write_text(trace.to_chrome_json())
        native = tmp_path / "native.json"
        native.write_text(trace.to_json())
        assert "valid Chrome trace" in check_trace.validate_trace_file(str(chrome))
        assert "valid repro.telemetry.trace/1" in check_trace.validate_trace_file(str(native))

    def test_check_trace_rejects_garbage(self, tmp_path):
        check_trace = load_check_trace()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": [{"ph": "X", "name": ""}]}))
        with pytest.raises(check_trace.TraceValidationError):
            check_trace.validate_trace_file(str(bad))
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"traceEvents": [],
                                     "otherData": {"schema": "repro.telemetry.trace/1"}}))
        with pytest.raises(check_trace.TraceValidationError):
            check_trace.validate_trace_file(str(empty))
        not_json = tmp_path / "not.json"
        not_json.write_text("{")
        with pytest.raises(check_trace.TraceValidationError):
            check_trace.validate_trace_file(str(not_json))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _worker_snapshot(amount: int):
    """ProcessPoolExecutor entry point: build a registry, ship its snapshot."""
    registry = MetricsRegistry()
    registry.counter("worker.pictures").inc(amount)
    registry.gauge("worker.queue").set(amount * 2)
    registry.histogram("worker.bytes", buckets=(10, 100, 1000)).observe(amount)
    return registry.snapshot()


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("bits")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_max(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.max == 5

    def test_histogram_buckets_and_mean(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("sizes", buckets=(10, 100))
        for value in (5, 50, 500):
            histogram.observe(value)
        assert histogram.counts == [1, 1, 1]   # <=10, <=100, overflow
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(555 / 3)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_merge_roundtrip(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.histogram("h", buckets=(1, 2)).observe(1)
        b = MetricsRegistry()
        b.counter("n").inc(4)
        b.histogram("h", buckets=(1, 2)).observe(5)
        b.merge(a.snapshot())
        assert b.value("n") == 7
        assert b.get("h").count == 2
        assert b.get("h").counts == [1, 0, 1]

    def test_merge_accepts_registry_and_creates_missing(self):
        a = MetricsRegistry()
        a.counter("only.in.a").inc(2)
        b = MetricsRegistry()
        b.merge(a)
        assert b.value("only.in.a") == 2

    def test_merge_histogram_bucket_mismatch_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b = MetricsRegistry()
        b.histogram("h", buckets=(1, 3)).observe(1)
        with pytest.raises(ValueError):
            b.merge(a.snapshot())

    def test_merge_across_process_pool_workers(self):
        """The parallel_encode pattern: workers ship snapshots, parent merges."""
        parent = MetricsRegistry()
        with ProcessPoolExecutor(max_workers=2) as pool:
            snapshots = list(pool.map(_worker_snapshot, [3, 4, 5]))
        for snapshot in snapshots:
            parent.merge(snapshot)
        assert parent.value("worker.pictures") == 12
        assert parent.get("worker.queue").max == 10
        histogram = parent.get("worker.bytes")
        assert histogram.count == 3
        assert histogram.counts == [3, 0, 0, 0]


# ---------------------------------------------------------------------------
# stage profile
# ---------------------------------------------------------------------------

class TestStageProfile:
    def test_self_time_subtracts_children(self):
        telemetry.enable()
        with telemetry.span("encode"):
            for _ in range(3):
                with telemetry.span("encode.picture"):
                    pass
        telemetry.disable()
        trace = telemetry.current_trace()
        rows = {row.name: row for row in telemetry.stage_table(trace)}
        encode = rows["encode"]
        pictures = rows["encode.picture"]
        assert pictures.calls == 3
        child_total = pictures.total_seconds
        assert encode.self_seconds == pytest.approx(
            encode.total_seconds - child_total, abs=1e-6
        )
        # Shares are fractions of the root total.
        assert 0.0 <= encode.share <= 1.0
        total_share = sum(row.share for row in rows.values())
        assert total_share == pytest.approx(1.0, abs=0.01)

    def test_prefix_filter(self):
        telemetry.enable()
        with telemetry.span("mpeg2.encode"):
            pass
        with telemetry.span("h264.encode"):
            pass
        telemetry.disable()
        rows = telemetry.stage_table(telemetry.current_trace(), prefix="mpeg2.")
        assert [row.name for row in rows] == ["mpeg2.encode"]

    def test_coverage_against_wall(self):
        telemetry.enable()
        with telemetry.span("root"):
            pass
        telemetry.disable()
        trace = telemetry.current_trace()
        root = trace.spans()[0].duration
        assert telemetry.coverage(trace, root) == pytest.approx(1.0)
        assert telemetry.coverage(trace, root * 2) == pytest.approx(0.5)
        assert telemetry.coverage(trace, 0.0) == 0.0

    def test_render_stage_table_mentions_every_stage(self):
        telemetry.enable()
        with telemetry.span("alpha"):
            with telemetry.span("beta"):
                pass
        telemetry.disable()
        text = telemetry.render_stage_table(
            telemetry.stage_table(telemetry.current_trace())
        )
        assert "alpha" in text and "beta" in text and "self ms" in text


class TestHistogramPercentiles:
    def test_to_dict_carries_percentile_summary(self):
        from repro.telemetry.metrics import LATENCY_BUCKETS, MetricsRegistry
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=LATENCY_BUCKETS)
        for value in (0.002, 0.02, 0.02, 0.2, 2.0):
            histogram.observe(value)
        data = histogram.to_dict()
        assert {"p50", "p99", "p999"} <= set(data)
        assert data["p50"] <= data["p99"] <= data["p999"]
        assert data["count"] == 5

    def test_depth_buckets_cover_queue_range(self):
        from repro.telemetry.metrics import DEPTH_BUCKETS, MetricsRegistry
        registry = MetricsRegistry()
        histogram = registry.histogram("depth", buckets=DEPTH_BUCKETS)
        for depth in range(8):
            histogram.observe(depth)
        assert histogram.count == 8
        assert histogram.p999 <= DEPTH_BUCKETS[-1]

    def test_empty_histogram_percentiles_are_zero(self):
        from repro.telemetry.metrics import MetricsRegistry
        histogram = MetricsRegistry().histogram("empty", buckets=(1, 2))
        assert histogram.p50 == histogram.p99 == histogram.p999 == 0.0
