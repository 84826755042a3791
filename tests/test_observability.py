"""Tests for the observability plane: correlated events, the flight
recorder, SLO burn rates, timeline reconstruction, tail and the
OpenMetrics HTTP endpoint."""

import json
import urllib.request

import pytest

from repro.errors import (
    ConfigError,
    ObserveError,
    OriginError,
    ReproError,
    SessionAborted,
)
from repro.observe.cli import main as observe_main
from repro.observe.httpd import parse_listen, serve_metrics
from repro.observe.record import BenchRecord
from repro.observe.slo import (
    DEFAULT_SLOS,
    SLO_SCHEMA,
    SloObjective,
    evaluate_slos,
    load_slo_spec,
    render_slo_table,
)
from repro.observe.store import HistoryStore
from repro.observe.tail import (
    render_event_line,
    render_history_line,
    tail_files,
)
from repro.observe.timeline import (
    TIMELINE_SCHEMA,
    build_timeline,
    load_events_jsonl,
    load_flight_dumps,
    render_timeline,
)
from repro.telemetry import flightrec, trace
from repro.telemetry.events import (
    EVENT_NAMES,
    EVENT_SCHEMA,
    correlation_id,
    correlation_scope,
    current_correlation,
    emit,
)
from repro.telemetry.flightrec import FLIGHTDUMP_SCHEMA, FlightRecorder


@pytest.fixture(autouse=True)
def _telemetry_hygiene(tmp_path):
    """Every test starts and ends with telemetry off and rings clear."""
    trace.disable()
    trace.reset()
    original_dir = flightrec.recorder.dump_dir
    original_ring = flightrec.recorder.ring_events
    flightrec.recorder.configure(dump_dir=str(tmp_path / "flightrec"))
    yield
    trace.disable()
    trace.reset()
    flightrec.recorder.configure(dump_dir=original_dir,
                                 ring_events=original_ring)


class TestEventLog:
    def test_disabled_emit_is_a_noop(self):
        assert emit("session.state", state="live") is None
        assert trace.current_trace().events() == []
        # disabled emits never validate names either (the fast path).
        assert emit("not.a.registered.name") is None

    def test_enabled_emit_records_and_validates(self):
        trace.enable()
        event = emit("session.state", state="live")
        assert event is not None and event.seq == 1
        with pytest.raises(ConfigError, match="unregistered event name"):
            emit("totally.made.up")

    def test_canonical_dict_excludes_wall_pid_tid(self):
        trace.enable()
        event = emit("session.state", b=2, a=1)
        canonical = event.canonical_dict()
        assert canonical["schema"] == EVENT_SCHEMA
        assert set(canonical) == {"schema", "seq", "name", "correlation",
                                  "fields"}
        assert list(canonical["fields"]) == ["a", "b"]
        full = event.to_dict()
        assert {"wall", "pid", "tid"} <= set(full)

    def test_correlation_scope_nests_and_merges(self):
        with correlation_scope(run_id="r1"):
            assert current_correlation() == {"run_id": "r1"}
            with correlation_scope(cell_id="c1", run_id="r2"):
                assert current_correlation() == {"run_id": "r2",
                                                 "cell_id": "c1"}
                assert correlation_id() == "c1"  # cell beats run
                with correlation_scope(session_id="s1"):
                    assert correlation_id() == "s1"  # session beats all
            assert current_correlation() == {"run_id": "r1"}
        assert current_correlation() == {}
        assert correlation_id() is None

    def test_events_carry_the_active_scope(self):
        trace.enable()
        with correlation_scope(session_id="s9"):
            event = emit("session.state", state="live")
        assert event.correlation == {"session_id": "s9"}

    def test_reset_restarts_sequence(self):
        trace.enable()
        emit("session.state", state="a")
        trace.reset()
        trace.enable()
        assert emit("session.state", state="b").seq == 1

    def test_jsonl_export_is_bit_stable(self):
        def one_run():
            trace.reset()
            trace.enable()
            with correlation_scope(session_id="s0"):
                emit("session.state", state="live", t=0.25)
                emit("session.degrade", action="fec", t=0.5)
            text = trace.current_trace().to_jsonl()
            trace.disable()
            return text

        assert one_run() == one_run()


class TestReproErrorCorrelation:
    def test_scope_autofills_context(self):
        with correlation_scope(session_id="s7", cell_id="c3"):
            error = OriginError("boom")
        assert error.session_id == "s7"
        assert error.cell_id == "c3"
        assert error.correlation_id == "s7"
        context = error.to_context_dict()
        assert context["error"] == "OriginError"
        assert context["message"] == "boom"
        assert context["correlation_id"] == "s7"

    def test_run_scope_fills_correlation_only(self):
        with correlation_scope(run_id="r42"):
            error = ReproError("x")
        assert error.session_id is None
        assert error.correlation_id == "r42"

    def test_explicit_ids_win_over_scope(self):
        with correlation_scope(session_id="scope"):
            error = OriginError("x", session_id="explicit")
        assert error.session_id == "explicit"

    def test_outside_scope_stays_none(self):
        error = ReproError("x")
        assert error.correlation_id is None
        assert error.to_context_dict() == {"error": "ReproError",
                                           "message": "x"}


class TestFlightRecorder:
    def test_ring_is_bounded_per_scope(self):
        recorder = FlightRecorder(ring_events=4)
        trace.enable()
        trace.current_trace().sink = recorder
        with correlation_scope(session_id="s1"):
            for index in range(10):
                emit("session.state", state=index)
        trace.current_trace().sink = flightrec.recorder
        ring = recorder.ring("s1")
        assert len(ring) == 4
        assert [event.fields["state"] for event in ring] == [6, 7, 8, 9]
        # the global ring mirrors scoped traffic
        assert len(recorder.ring(None)) == 4

    def test_dump_is_noop_while_disabled(self, tmp_path):
        recorder = FlightRecorder(dump_dir=str(tmp_path / "fr"))
        assert recorder.dump("session.aborted") is None
        assert recorder.dumps == []

    def test_dump_writes_wellformed_document(self, tmp_path):
        trace.enable()
        with correlation_scope(session_id="s2"):
            emit("session.state", state="live", t=1.0)
            error = SessionAborted("failure budget exhausted")
            path = flightrec.recorder.dump("session.aborted", error=error)
        assert path is not None
        document = json.loads(open(path, encoding="utf-8").read())
        assert document["schema"] == FLIGHTDUMP_SCHEMA
        assert document["trigger"] == "session.aborted"
        assert document["correlation_id"] == "s2"
        assert document["error"]["error"] == "SessionAborted"
        assert document["error"]["session_id"] == "s2"
        names = [event["name"] for event in document["events"]]
        assert "session.state" in names
        for event in document["events"]:
            assert {"wall", "pid", "tid"}.isdisjoint(event)

    @staticmethod
    def _unwritable_dump_dir(tmp_path):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        flightrec.recorder.configure(dump_dir=str(blocker / "flightrec"))

    def test_unwritable_dump_returns_none(self, tmp_path):
        self._unwritable_dump_dir(tmp_path)
        trace.enable()
        assert flightrec.recorder.dump("session.aborted") is None
        assert flightrec.recorder.dumps == []

    def test_failed_cell_survives_an_unwritable_dump(self, tmp_path,
                                                     monkeypatch):
        import repro.orchestrate.scheduler as scheduler
        from repro.chaos.harness import DEFAULT_SPEC
        from repro.errors import OrchestrateError
        from repro.orchestrate.artifacts import ArtifactCache
        from repro.orchestrate.spec import expand_cells, parse_spec

        def failing_measure(cell, cache):
            raise OrchestrateError("injected cell failure")

        monkeypatch.setattr(scheduler, "_measure_cell", failing_measure)
        self._unwritable_dump_dir(tmp_path)
        trace.enable()
        cell = expand_cells(parse_spec(DEFAULT_SPEC))[0]
        result = scheduler.execute_cell(
            cell, ArtifactCache(str(tmp_path / "cache")))
        assert result.status == "failed"
        assert "injected cell failure" in result.error

    def test_session_abort_survives_an_unwritable_dump(self, tmp_path):
        import asyncio

        from repro.origin import clock
        from repro.origin.server import Origin, OriginConfig
        from repro.origin.session import (
            ClientProfile, SessionConfig, StreamSessionRunner,
        )

        # Two nacked pictures exhaust a budget of one: the abort path.
        config = SessionConfig(decode=False, failure_budget=1)
        origin = Origin(OriginConfig(frames=4, encode_seconds=0.05,
                                     session=config))
        profile = ClientProfile(session_id="s-dump", seed=4, codec="h264",
                                render_seconds=0.005,
                                chaos={0: (("nack",),), 1: (("nack",),)})
        runner = StreamSessionRunner(profile, config, origin.cache,
                                     origin.supervisor)

        async def main():
            task = origin.supervisor.spawn(runner.run(), profile.session_id)
            await asyncio.wait({task})
            # Bounded (virtual seconds): a skipped teardown leaves the
            # reader task waiting forever.
            await origin.supervisor.drain(timeout=60.0)

        self._unwritable_dump_dir(tmp_path)
        trace.enable()
        clock.run(main())
        assert runner.result.aborted
        assert runner.result.final_state == "closed"    # torn down
        assert not origin.supervisor.unhandled

    def test_dump_captures_open_spans(self):
        trace.enable()
        with correlation_scope(session_id="s3"):
            with trace.span("origin.session", session="s3"):
                emit("session.state", state="live")
                path = flightrec.recorder.dump("session.aborted")
        document = json.loads(open(path, encoding="utf-8").read())
        open_names = [span["name"] for span in document["open_spans"]]
        assert "origin.session" in open_names
        # after exit the span is no longer open
        assert flightrec.recorder.open_spans() == []

    def test_dump_lists_only_its_scopes_open_spans(self):
        import asyncio

        async def hold(session_id, opened, release):
            with correlation_scope(session_id=session_id):
                with trace.span("origin.cache.encode", key=session_id):
                    opened.set()
                    await asyncio.wait_for(release.wait(), timeout=5)

        async def main():
            release = asyncio.Event()
            opened = {sid: asyncio.Event() for sid in ("c1", "c2")}
            tasks = [asyncio.create_task(hold(sid, flag, release))
                     for sid, flag in opened.items()]
            for flag in opened.values():
                await asyncio.wait_for(flag.wait(), timeout=5)
            with correlation_scope(session_id="c1"):
                scoped = flightrec.recorder.dump("session.aborted")
            unscoped = flightrec.recorder.dump("gate.fail")
            release.set()
            await asyncio.gather(*tasks)
            return scoped, unscoped

        def open_keys(path):
            document = json.loads(open(path, encoding="utf-8").read())
            return [span["attrs"]["key"] for span in document["open_spans"]]

        trace.enable()
        scoped, unscoped = asyncio.run(main())
        assert open_keys(scoped) == ["c1"]
        assert open_keys(unscoped) == ["c1", "c2"]


class TestSloObjectives:
    def test_validation_rejects_bad_specs(self):
        with pytest.raises(ObserveError, match="direction"):
            SloObjective(name="x", bench="b", metric="m", objective=1.0,
                         direction="sideways")
        with pytest.raises(ObserveError, match="budget"):
            SloObjective(name="x", bench="b", metric="m", objective=1.0,
                         budget=0.0)
        with pytest.raises(ObserveError, match="fast_window"):
            SloObjective(name="x", bench="b", metric="m", objective=1.0,
                         window=2, fast_window=3)

    def test_spec_file_round_trip(self, tmp_path):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({
            "schema": SLO_SCHEMA,
            "objectives": [obj.to_dict() for obj in DEFAULT_SLOS],
        }))
        parsed = load_slo_spec(str(spec))
        assert [obj.name for obj in parsed] == [obj.name
                                                for obj in DEFAULT_SLOS]

    def test_spec_file_rejects_wrong_schema(self, tmp_path):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps({"schema": "nope", "objectives": []}))
        with pytest.raises(ObserveError, match="schema"):
            load_slo_spec(str(spec))

    def _seed(self, store, miss_rates):
        records = []
        for index, rate in enumerate(miss_rates):
            records.append(BenchRecord(
                run_id=f"run-{index:03d}", bench="serve",
                axes={"codec": "h264"},
                metrics={"deadline_miss_rate": rate, "graceful_rate": 1.0},
                created=1000.0 + index))
        store.append_many(records)

    def test_clean_history_yields_no_findings(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        self._seed(store, [0.0, 0.01, 0.0, 0.015])
        statuses, findings = evaluate_slos(store)
        assert findings == []
        assert all(not status.breached for status in statuses)
        table = render_slo_table(statuses)
        assert "serve-deadline-miss" in table

    def test_planted_burn_raises_all_three_findings(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        self._seed(store, [0.0] * 5 + [0.2, 0.25, 0.3])
        statuses, findings = evaluate_slos(store)
        ids = [finding.rule_id for finding in findings]
        assert ids == ["OBS300", "OBS301", "OBS302"]
        breached = [status for status in statuses if status.breached]
        assert breached and breached[0].budget_remaining == 0.0

    def test_cli_exit_codes(self, tmp_path, capsys):
        store = tmp_path / "hist"
        self._seed(HistoryStore(store), [0.0, 0.0, 0.0])
        assert observe_main(["slo", "--store", str(store)]) == 0
        capsys.readouterr()
        self._seed(HistoryStore(store), [0.3] * 8)
        assert observe_main(["slo", "--store", str(store),
                             "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == SLO_SCHEMA
        assert [f["rule"] for f in payload["findings"]] == [
            "OBS300", "OBS301", "OBS302"]


class TestTimeline:
    def _write_events(self, path):
        trace.enable()
        with correlation_scope(session_id="s1"):
            emit("session.state", state="live", t=0.1)
            emit("session.degrade", action="fec", t=0.2)
        with correlation_scope(session_id="other"):
            emit("session.state", state="live", t=0.3)
        path.write_text(trace.current_trace().to_jsonl())

    def test_strict_schema_check(self, tmp_path):
        bad = tmp_path / "events.jsonl"
        bad.write_text('{"schema": "wrong/1", "seq": 1, "name": "x"}\n')
        with pytest.raises(ObserveError, match="schema"):
            load_events_jsonl(str(bad))

    def test_build_filters_and_orders(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        self._write_events(log_path)
        loaded = load_events_jsonl(str(log_path))
        timeline = build_timeline("s1", loaded)
        assert timeline["schema"] == TIMELINE_SCHEMA
        assert [event["name"] for event in timeline["events"]] == [
            "session.state", "session.degrade"]
        human = render_timeline(timeline)
        assert "timeline for s1" in human
        assert "session.degrade" in human

    def test_dump_events_fill_holes_and_dedupe(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        self._write_events(log_path)
        with correlation_scope(session_id="s1"):
            dump_path = flightrec.recorder.dump(
                "session.aborted", error=SessionAborted("dead"))
        loaded = load_events_jsonl(str(log_path))
        dumps = load_flight_dumps(str(tmp_path / "flightrec"))
        assert len(dumps) == 1
        timeline = build_timeline("s1", loaded, dumps)
        seqs = [event["seq"] for event in timeline["events"]]
        assert seqs == sorted(set(seqs))  # deduplicated, ordered
        assert timeline["triggers"][0]["trigger"] == "session.aborted"
        assert timeline["triggers"][0]["error"]["error"] == "SessionAborted"
        assert dump_path.endswith(".json")

    def test_reconstruction_is_deterministic(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        self._write_events(log_path)
        loaded = load_events_jsonl(str(log_path))
        first = json.dumps(build_timeline("s1", loaded), sort_keys=True)
        second = json.dumps(build_timeline("s1", loaded), sort_keys=True)
        assert first == second


class TestTail:
    def test_render_event_line(self):
        line = json.dumps({"schema": EVENT_SCHEMA, "seq": 3,
                           "name": "session.state",
                           "correlation": {"session_id": "s1"},
                           "fields": {"state": "live"}})
        rendered = render_event_line(line)
        assert rendered == "#3 [session_id=s1] session.state state=live"
        assert render_event_line("not json") is None

    def test_render_history_line(self):
        line = json.dumps({"bench": "serve", "run_id": "r1",
                           "axes": {"codec": "h264"},
                           "metrics": {"fps": 30.0}})
        rendered = render_history_line(line)
        assert "serve" in rendered and "fps=30" in rendered

    def test_one_shot_tail_keeps_last_n(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        lines = []
        for seq in range(5):
            lines.append(json.dumps({
                "schema": EVENT_SCHEMA, "seq": seq,
                "name": "session.state", "correlation": {},
                "fields": {}}))
        events_path.write_text("\n".join(lines) + "\n")
        captured = []
        count = tail_files(events_path=str(events_path), lines=2,
                           emit_line=captured.append)
        assert count == 2
        assert captured[-1].startswith("events  #4")

    def test_follow_picks_up_appends(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text("")
        captured = []
        import threading

        def append_soon():
            with open(events_path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "schema": EVENT_SCHEMA, "seq": 1,
                    "name": "session.state", "correlation": {},
                    "fields": {}}) + "\n")

        timer = threading.Timer(0.05, append_soon)
        timer.start()
        try:
            count = tail_files(events_path=str(events_path), follow=True,
                               interval=0.02, max_seconds=0.5,
                               emit_line=captured.append)
        finally:
            timer.cancel()
        assert count == 1
        assert captured[0].startswith("events  #1")


class TestMetricsEndpoint:
    def test_parse_listen_validation(self):
        assert parse_listen("127.0.0.1:9100") == ("127.0.0.1", 9100)
        for bad in ("nohost", "host:notaport", "host:99999", ":8080"):
            with pytest.raises(ObserveError):
                parse_listen(bad)

    def test_scrape_serves_fresh_exposition(self, tmp_path):
        store = HistoryStore(tmp_path / "hist")
        store.append(BenchRecord(
            run_id="r1", bench="serve", axes={"codec": "h264"},
            metrics={"fps": 30.0}, created=1000.0))
        server = serve_metrics(store, "127.0.0.1:0")
        thread = server.serve_background()
        try:
            body = urllib.request.urlopen(server.url).read().decode()
            assert body.rstrip().endswith("# EOF")
            # on-scrape refresh: a record appended after bind shows up
            store.append(BenchRecord(
                run_id="r2", bench="serve", axes={"codec": "mpeg2"},
                metrics={"fps": 31.0}, created=1001.0))
            fresh = urllib.request.urlopen(server.url).read().decode()
            assert "mpeg2" in fresh
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url.replace("/metrics",
                                                          "/nope"))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestServeEventIntegration:
    """End-to-end: a seeded serve with a forced abort is reproducible."""

    def _serve(self, tmp_path, tag):
        from repro.bench.cli import main as bench_main
        store = tmp_path / f"store-{tag}"
        events_path = tmp_path / f"events-{tag}.jsonl"
        code = bench_main([
            "serve", "--clients", "6", "--seeds", "3", "--frames", "8",
            "--chaos", "1.0", "--failure-budget", "0",
            "--events", str(events_path), "--store", str(store)])
        assert code == 0
        return store, events_path

    def test_forced_abort_dump_and_reproducibility(self, tmp_path):
        store_a, events_a = self._serve(tmp_path, "a")
        store_b, events_b = self._serve(tmp_path, "b")
        assert events_a.read_text() == events_b.read_text()
        dumps_a = load_flight_dumps(str(store_a / "flightrec"))
        dumps_b = load_flight_dumps(str(store_b / "flightrec"))
        assert dumps_a, "budget-0 chaos serve must abort at least once"
        assert [d["correlation_id"] for d in dumps_a] == [
            d["correlation_id"] for d in dumps_b]
        aborted = dumps_a[0]["correlation_id"]
        timeline_a = build_timeline(
            aborted, load_events_jsonl(str(events_a)), dumps_a)
        timeline_b = build_timeline(
            aborted, load_events_jsonl(str(events_b)), dumps_b)
        assert (json.dumps(timeline_a, sort_keys=True)
                == json.dumps(timeline_b, sort_keys=True))
        assert timeline_a["events"], "the abort timeline must have events"
        assert any(trigger["trigger"] == "session.aborted"
                   for trigger in timeline_a["triggers"])
