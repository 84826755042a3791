"""Tests for ``repro.analysis`` — the hdvb-lint static-analysis engine.

Every shipped rule gets a planted-violation fixture and a corrected twin:
the rule must catch the former and stay silent on the latter.  On top of
that: inline-suppression and baseline round-trips, the JSON reporter
schema, CLI exit codes, and the self-lint gate asserting the shipped
tree is clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    FINDINGS_SCHEMA,
    BaselineError,
    all_rules,
    canonical_module,
    empty_baseline,
    findings_document,
    load_baseline,
    render_human,
    run,
    suppressed_ids,
    write_baseline,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_tree(tmp_path, files, **kwargs):
    """Write {relpath: source} under tmp_path and lint the tree."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run([str(tmp_path)], **kwargs)


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


class TestEngineBasics:
    def test_rule_catalogue_is_complete(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == sorted(ids)
        assert {"HDVB101", "HDVB102", "HDVB110", "HDVB111", "HDVB120",
                "HDVB130", "HDVB140", "HDVB150", "HDVB170", "HDVB190",
                "HDVB200", "HDVB201", "HDVB202", "HDVB203",
                "HDVB210"} <= set(ids)
        for rule in all_rules():
            assert rule.name and rule.rationale, rule.rule_id

    def test_canonical_module_strips_wrappers(self):
        assert canonical_module(Path("src/repro/codecs/base.py")) == "codecs/base.py"
        assert canonical_module(Path("repro/me/search.py")) == "me/search.py"
        assert canonical_module(Path("codecs/base.py")) == "codecs/base.py"

    def test_unparsable_file_reports_hdvb100(self, tmp_path):
        result = lint_tree(tmp_path, {"codecs/broken.py": "def broken(:\n"})
        assert rule_ids(result) == ["HDVB100"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run(["no/such/tree"])

    def test_select_and_ignore_filter_rules(self, tmp_path):
        files = {
            "codecs/evil.py": """
                import random

                def jitter():
                    return random.random()

                def parse(value):
                    raise ValueError(value)
            """,
        }
        both = lint_tree(tmp_path, files)
        assert sorted(rule_ids(both)) == ["HDVB101", "HDVB110"]
        only = lint_tree(tmp_path, files, select=["HDVB101"])
        assert rule_ids(only) == ["HDVB101"]
        skipped = lint_tree(tmp_path, files, ignore=["HDVB101"])
        assert rule_ids(skipped) == ["HDVB110"]


class TestDeterminismRules:
    def test_hdvb101_catches_module_state_random(self, tmp_path):
        result = lint_tree(tmp_path, {"robustness/evil.py": """
            import random

            def pick(items):
                return random.choice(items)
        """})
        assert rule_ids(result) == ["HDVB101"]
        assert "random.choice" in result.findings[0].message

    def test_hdvb101_catches_numpy_module_state(self, tmp_path):
        result = lint_tree(tmp_path, {"transport/evil.py": """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """})
        assert rule_ids(result) == ["HDVB101"]

    def test_hdvb101_clean_twin_seeded_generators(self, tmp_path):
        result = lint_tree(tmp_path, {"robustness/clean.py": """
            import random
            import numpy as np

            def pick(items, seed):
                return random.Random(seed).choice(items)

            def noise(n, seed):
                return np.random.default_rng(seed).normal(size=n)
        """})
        assert result.clean

    def test_hdvb101_out_of_scope_module_allowed(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/jitterutil.py": """
            import random

            def pause():
                return random.uniform(0.5, 1.5)
        """})
        assert result.clean

    def test_hdvb102_catches_wall_clock(self, tmp_path):
        result = lint_tree(tmp_path, {"transport/clock.py": """
            import time
            from datetime import datetime

            def stamp():
                return time.time(), datetime.now()
        """})
        assert sorted(rule_ids(result)) == ["HDVB102", "HDVB102"]

    def test_hdvb102_clean_twin_perf_counter(self, tmp_path):
        result = lint_tree(tmp_path, {"transport/clock.py": """
            import time

            def measure():
                return time.perf_counter()
        """})
        assert result.clean


class TestTaxonomyRules:
    def test_hdvb110_catches_builtin_raise_in_decode_path(self, tmp_path):
        result = lint_tree(tmp_path, {"codecs/dec.py": """
            def parse_header(value):
                if value < 0:
                    raise ValueError(f"bad header {value}")
                return value
        """})
        assert rule_ids(result) == ["HDVB110"]

    def test_hdvb110_clean_twin_taxonomy_raise(self, tmp_path):
        result = lint_tree(tmp_path, {"codecs/dec.py": """
            from repro.errors import BitstreamError

            def parse_header(value):
                if value < 0:
                    raise BitstreamError(f"bad header {value}")
                return value
        """})
        assert result.clean

    def test_hdvb110_out_of_scope_module_allowed(self, tmp_path):
        result = lint_tree(tmp_path, {"common/yuvish.py": """
            def check(value):
                raise ValueError(value)
        """})
        assert result.clean

    def test_hdvb110_reraise_of_bound_name_allowed(self, tmp_path):
        result = lint_tree(tmp_path, {"robustness/eng.py": """
            def guarded(failure):
                if failure is not None:
                    raise failure
        """})
        assert result.clean

    def test_hdvb111_catches_bare_except(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/sweep.py": """
            def trial(fn):
                try:
                    fn()
                except:
                    pass
        """})
        assert rule_ids(result) == ["HDVB111"]

    def test_hdvb111_catches_blind_exception_swallow(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/sweep.py": """
            def trial(fn):
                try:
                    fn()
                except Exception:
                    return None
        """})
        assert rule_ids(result) == ["HDVB111"]

    def test_hdvb111_clean_twins(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/sweep.py": """
            def rethrow(fn):
                try:
                    fn()
                except Exception:
                    raise

            def recorded(fn, log):
                try:
                    fn()
                except Exception as error:
                    log.append(repr(error))

            def narrow(fn):
                try:
                    fn()
                except KeyError:
                    return None
        """})
        assert result.clean


KERNEL_TRIO_CLEAN = {
    "kernels/scalar.py": """
        class ScalarKernels:
            def sad(self, a, b):
                return 0

            def idct8(self, coeffs):
                return coeffs
    """,
    "kernels/simd.py": """
        class SimdKernels:
            def sad(self, a, b):
                return 0

            def idct8(self, coeffs):
                return coeffs
    """,
    "kernels/api.py": """
        KERNEL_NAMES = ("sad", "idct8")
    """,
}


class TestKernelParityRule:
    def test_clean_trio_passes(self, tmp_path):
        result = lint_tree(tmp_path, dict(KERNEL_TRIO_CLEAN))
        assert result.clean

    def test_missing_simd_counterpart(self, tmp_path):
        files = dict(KERNEL_TRIO_CLEAN)
        files["kernels/simd.py"] = """
            class SimdKernels:
                def sad(self, a, b):
                    return 0
        """
        files["kernels/api.py"] = 'KERNEL_NAMES = ("sad",)\n'
        result = lint_tree(tmp_path, files)
        assert rule_ids(result) == ["HDVB120"]
        assert "idct8" in result.findings[0].message

    def test_signature_divergence(self, tmp_path):
        files = dict(KERNEL_TRIO_CLEAN)
        files["kernels/simd.py"] = """
            class SimdKernels:
                def sad(self, a, b, stride=1):
                    return 0

                def idct8(self, coeffs):
                    return coeffs
        """
        result = lint_tree(tmp_path, files)
        assert rule_ids(result) == ["HDVB120"]
        assert "signature diverges" in result.findings[0].message

    def test_dispatch_table_gap_both_directions(self, tmp_path):
        files = dict(KERNEL_TRIO_CLEAN)
        files["kernels/api.py"] = 'KERNEL_NAMES = ("sad", "phantom")\n'
        result = lint_tree(tmp_path, files)
        messages = " | ".join(f.message for f in result.findings)
        assert rule_ids(result) == ["HDVB120", "HDVB120"]
        assert "idct8" in messages and "phantom" in messages

    def test_annotations_do_not_count_as_divergence(self, tmp_path):
        files = dict(KERNEL_TRIO_CLEAN)
        files["kernels/scalar.py"] = """
            class ScalarKernels:
                def sad(self, a, b) -> int:
                    return 0

                def idct8(self, coeffs):
                    return coeffs
        """
        files["kernels/simd.py"] = """
            import numpy as np

            class SimdKernels:
                def sad(self, a, b) -> np.integer:
                    return np.int64(0)

                def idct8(self, coeffs):
                    return coeffs
        """
        result = lint_tree(tmp_path, files)
        assert result.clean


class TestPickleSafetyRule:
    def test_lambda_submission_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"parallel.py": """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(jobs):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda job: job, job) for job in jobs]
        """})
        assert rule_ids(result) == ["HDVB130"]
        assert "lambda" in result.findings[0].message

    def test_nested_def_submission_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"parallel.py": """
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(jobs):
                def worker(job):
                    return job
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(worker, job) for job in jobs]
        """})
        assert rule_ids(result) == ["HDVB130"]
        assert "closures" in result.findings[0].message

    def test_lambda_argument_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"parallel.py": """
            from concurrent.futures import ProcessPoolExecutor

            def encode(job):
                return job

            def fan_out(jobs):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(encode, key=lambda: 1) for job in jobs]
        """})
        assert rule_ids(result) == ["HDVB130"]

    def test_clean_twin_module_level_worker(self, tmp_path):
        result = lint_tree(tmp_path, {"parallel.py": """
            from concurrent.futures import ProcessPoolExecutor

            def encode(job):
                return job

            def fan_out(jobs):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(encode, job) for job in jobs]
        """})
        assert result.clean

    def test_modules_without_process_pools_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/queueing.py": """
            def fan_out(pool, jobs):
                return [pool.submit(lambda job: job, job) for job in jobs]
        """})
        assert result.clean


class TestBitstreamSeamRule:
    def test_ad_hoc_bitreader_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"codecs/h999/decoder.py": """
            from repro.common.bitstream import BitReader

            def decode(payload):
                return BitReader(payload).read_bits(8)
        """})
        assert rule_ids(result) == ["HDVB140"]
        assert "bit-position" in result.findings[0].message

    def test_stray_struct_unpack_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"me/wire.py": """
            import struct

            def parse(buffer):
                return struct.unpack(">I", buffer[:4])
        """})
        assert rule_ids(result) == ["HDVB140"]

    def test_clean_twin_inside_guarded_seam(self, tmp_path):
        result = lint_tree(tmp_path, {"transport/packetize.py": """
            import struct
            from repro.common.bitstream import BitReader

            def parse(buffer):
                return struct.unpack(">I", buffer[:4]), BitReader(buffer)
        """})
        assert result.clean


class TestSpanContextRule:
    def test_discarded_span_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/instrumented.py": """
            from repro.telemetry.trace import span

            def work():
                span("bench.work")
                return 1
        """})
        assert rule_ids(result) == ["HDVB150"]

    def test_never_entered_handle_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/instrumented.py": """
            from repro.telemetry.trace import span as telemetry_span

            def work():
                handle = telemetry_span("bench.work")
                return handle
        """})
        assert rule_ids(result) == ["HDVB150"]

    def test_clean_twins_with_statement_forms(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/instrumented.py": """
            from repro.telemetry.trace import span as telemetry_span

            def direct():
                with telemetry_span("bench.direct", codec="mpeg2"):
                    return 1

            def via_handle():
                handle = telemetry_span("bench.handle")
                with handle:
                    handle.set(extra=1)
        """})
        assert result.clean


class TestResultSinkRule:
    def test_json_dump_in_bench_module_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/sweep.py": """
            import json

            def save(rows, path):
                with open(path) as handle:
                    json.dump(rows, handle)
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_json_dump_from_import_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"robustness/bench.py": """
            from json import dump

            def save(rows, handle):
                dump(rows, handle)
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_open_for_writing_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"transport/bench.py": """
            def save(text, path):
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_append_mode_keyword_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/sweep.py": """
            def save(text, path):
                with open(path, mode="a") as handle:
                    handle.write(text)
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_clean_twin_uses_the_store(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/sweep.py": """
            import json

            from repro.observe.store import HistoryStore

            def save(records, document):
                HistoryStore().append_many(records)
                return json.dumps(document)

            def load(path):
                with open(path, "r", encoding="utf-8") as handle:
                    return handle.read()

            def load_binary(path):
                with open(path, "rb") as handle:
                    return handle.read()
        """})
        assert result.clean

    def test_outside_bench_scope_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {"codecs/dump.py": """
            import json

            def save(rows, path):
                with open(path, "w") as handle:
                    json.dump(rows, handle)
        """})
        assert result.clean

    def test_inline_suppression(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/sweep.py": """
            def save(text, path):
                with open(path, "w") as handle:  # hdvb: disable=HDVB190
                    handle.write(text)
        """})
        assert result.clean
        assert result.suppressed == 1


class TestEventDisciplineRule:
    def test_emit_outside_scope_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/feeder.py": """
            from repro.telemetry.events import emit

            def feed():
                emit("session.state", state="streaming")
        """})
        assert rule_ids(result) == ["HDVB210"]
        assert "correlation_scope" in result.findings[0].message

    def test_unregistered_name_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"orchestrate/steps.py": """
            from repro.telemetry.events import correlation_scope, emit

            def step(cell):
                with correlation_scope(cell_id=cell):
                    emit("my.custom.event", cell=cell)
        """})
        assert rule_ids(result) == ["HDVB210"]
        assert "EVENT_NAMES" in result.findings[0].message

    def test_computed_name_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/feeder.py": """
            from repro.telemetry.events import correlation_scope, emit

            def feed(kind):
                with correlation_scope(session_id="s0"):
                    emit("cache." + kind)
        """})
        assert rule_ids(result) == ["HDVB210"]
        assert "literal" in result.findings[0].message

    def test_clean_twin_scoped_literal_emit(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/feeder.py": """
            from repro.telemetry.events import correlation_scope, emit

            def feed(session_id):
                with correlation_scope(session_id=session_id):
                    emit("session.state", state="streaming")
        """})
        assert result.clean

    def test_class_lifetime_scope_covers_methods(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/runner.py": """
            from repro.telemetry import events as _events
            from repro.telemetry.events import correlation_scope

            class Runner:
                def run(self):
                    with correlation_scope(session_id="s0"):
                        self._step()

                def _step(self):
                    _events.emit("session.state", state="live")

                def _emit(self, name, **fields):
                    _events.emit(name, **fields)
        """})
        assert result.clean

    def test_module_alias_emit_outside_scope_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/loose.py": """
            from repro.telemetry import events as _events

            def fire():
                _events.emit("session.state", state="live")
        """})
        assert rule_ids(result) == ["HDVB210"]

    def test_outside_event_scope_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/helper.py": """
            from repro.telemetry.events import emit

            def fire():
                emit("anything.goes")
        """})
        assert result.clean


class TestSuppressionsAndBaseline:
    def test_inline_pragma_parsing(self):
        assert suppressed_ids("x = 1  # hdvb: disable=HDVB101") == {"HDVB101"}
        assert suppressed_ids("x  # hdvb: disable=HDVB101, HDVB110") == {
            "HDVB101", "HDVB110"}
        assert suppressed_ids("plain line") == set()

    def test_inline_suppression_silences_finding(self, tmp_path):
        result = lint_tree(tmp_path, {"codecs/dec.py": """
            def parse(value):
                raise ValueError(value)  # hdvb: disable=HDVB110
        """})
        assert result.clean
        assert result.suppressed == 1

    def test_suppression_of_other_rule_does_not_apply(self, tmp_path):
        result = lint_tree(tmp_path, {"codecs/dec.py": """
            def parse(value):
                raise ValueError(value)  # hdvb: disable=HDVB101
        """})
        assert rule_ids(result) == ["HDVB110"]

    def test_baseline_round_trip(self, tmp_path):
        files = {"codecs/dec.py": """
            def parse(value):
                raise ValueError(value)
        """}
        first = lint_tree(tmp_path, files)
        assert len(first.findings) == 1

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings, reason="grandfathered")
        baseline = load_baseline(baseline_path)
        assert len(baseline.entries) == 1

        second = run([str(tmp_path)], baseline=baseline)
        assert second.clean
        assert len(second.baselined) == 1
        assert not second.stale_baseline

    def test_stale_baseline_entry_surfaces(self, tmp_path):
        files = {"codecs/dec.py": """
            def parse(value):
                raise ValueError(value)
        """}
        first = lint_tree(tmp_path, files)
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, first.findings, reason="grandfathered")
        # Fix the violation; the baseline entry is now stale.
        (tmp_path / "codecs/dec.py").write_text(textwrap.dedent("""
            from repro.errors import BitstreamError

            def parse(value):
                raise BitstreamError(str(value))
        """))
        result = run([str(tmp_path)], baseline=load_baseline(baseline_path))
        assert result.clean
        assert len(result.stale_baseline) == 1

    def test_baseline_entries_require_reasons(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({
            "schema": "repro.analysis.baseline/1",
            "entries": [{"rule": "HDVB110", "module": "m.py",
                         "message": "x", "reason": ""}],
        }))
        with pytest.raises(BaselineError, match="reason"):
            load_baseline(bad)

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{}")
        with pytest.raises(BaselineError):
            load_baseline(bad)


class TestReporters:
    def _findings(self, tmp_path):
        return lint_tree(tmp_path, {"codecs/dec.py": """
            def parse(value):
                raise ValueError(value)
        """}).findings

    def test_json_document_schema(self, tmp_path):
        findings = self._findings(tmp_path)
        document = findings_document(findings, files_scanned=1)
        assert document["schema"] == FINDINGS_SCHEMA
        assert document["summary"]["total"] == 1
        assert document["summary"]["by_rule"] == {"HDVB110": 1}
        record = document["findings"][0]
        assert set(record) == {"rule", "path", "module", "line", "column",
                               "message", "hint"}
        assert record["rule"] == "HDVB110"
        assert record["module"] == "codecs/dec.py"
        assert record["line"] == 3
        # The document must be JSON-serialisable as-is.
        json.loads(json.dumps(document))

    def test_human_report_lines(self, tmp_path):
        findings = self._findings(tmp_path)
        text = render_human(findings, files_scanned=1)
        assert "HDVB110" in text
        assert "codecs/dec.py:3" in text
        assert "1 finding(s)" in text
        assert render_human([], files_scanned=3).endswith("no findings")


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--no-baseline"]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_one_on_findings_and_json_format(self, tmp_path, capsys):
        target = tmp_path / "codecs"
        target.mkdir()
        (target / "dec.py").write_text(
            "def parse(v):\n    raise ValueError(v)\n")
        code = lint_main([str(tmp_path), "--no-baseline", "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == FINDINGS_SCHEMA
        assert document["summary"]["total"] == 1

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "missing")]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("HDVB101", "HDVB110", "HDVB120", "HDVB130",
                        "HDVB140", "HDVB150", "HDVB190"):
            assert rule_id in out

    def test_write_baseline_round_trip(self, tmp_path, capsys):
        target = tmp_path / "codecs"
        target.mkdir()
        (target / "dec.py").write_text(
            "def parse(v):\n    raise ValueError(v)\n")
        baseline_path = tmp_path / "baseline.json"
        assert lint_main([str(tmp_path), "--baseline", str(baseline_path),
                          "--write-baseline"]) == 0
        assert lint_main([str(tmp_path), "--baseline",
                          str(baseline_path)]) == 0
        capsys.readouterr()


class TestSelfLint:
    """The shipped tree must satisfy its own invariants."""

    def test_src_is_clean_without_baseline(self):
        result = run([str(REPO_ROOT / "src")], baseline=empty_baseline())
        assert result.findings == [], render_human(result.findings)

    def test_committed_baseline_is_near_empty_and_fresh(self):
        baseline_path = REPO_ROOT / ".hdvb-lint-baseline.json"
        baseline = load_baseline(baseline_path)
        # Fix violations instead of baselining them (ISSUE 4 satellite).
        assert len(baseline.entries) <= 3
        result = run([str(REPO_ROOT / "src")], baseline=baseline)
        assert result.clean
        assert not result.stale_baseline, result.stale_descriptions()


class TestSupervisedTaskRule:
    def test_bare_create_task_in_origin_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/evil.py": """
            import asyncio

            def fire(coro):
                return asyncio.create_task(coro)
        """})
        assert rule_ids(result) == ["HDVB170"]

    def test_from_import_ensure_future_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/evil.py": """
            from asyncio import ensure_future

            def fire(coro):
                return ensure_future(coro)
        """})
        assert rule_ids(result) == ["HDVB170"]

    def test_loop_method_form_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/evil.py": """
            import asyncio

            def fire(coro):
                loop = asyncio.get_running_loop()
                return loop.create_task(coro)
        """})
        assert rule_ids(result) == ["HDVB170"]

    def test_aliased_import_resolved(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/evil.py": """
            import asyncio as aio

            def fire(coro):
                return aio.create_task(coro)
        """})
        assert rule_ids(result) == ["HDVB170"]

    def test_supervise_module_is_sanctioned(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/supervise.py": """
            import asyncio

            def spawn(coro, name):
                return asyncio.create_task(coro, name=name)
        """})
        assert result.clean

    def test_outside_origin_scope_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {"transport/util.py": """
            import asyncio

            def fire(coro):
                return asyncio.create_task(coro)
        """})
        assert result.clean

    def test_clean_twin_spawns_through_supervisor(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/clean.py": """
            def fire(supervisor, coro):
                return supervisor.spawn(coro, "session.reader")
        """})
        assert result.clean


class TestOrchestratorCellRule:
    def test_builtin_raise_in_orchestrate_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"orchestrate/evil.py": """
            def parse(value):
                raise ValueError(f"bad spec value {value!r}")
        """})
        assert rule_ids(result) == ["HDVB110"]

    def test_json_dump_sink_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"orchestrate/evil.py": """
            import json

            def save(results, handle):
                json.dump(results, handle)
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_text_write_sink_flagged(self, tmp_path):
        # Also a non-atomic write: one finding per call, not two.
        result = lint_tree(tmp_path, {"orchestrate/evil.py": """
            def save(results, path):
                with open(path, "w") as handle:
                    handle.write(str(results))
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_binary_atomic_write_is_legal(self, tmp_path):
        # Artifact/manifest files are binary temp+replace writes -- the
        # sanctioned layout, not an ad-hoc result sink.
        result = lint_tree(tmp_path, {"orchestrate/clean.py": """
            import json
            import os

            def commit(path, payload):
                with open(path + ".tmp", "wb") as handle:
                    handle.write(json.dumps(payload).encode("utf-8"))
                os.replace(path + ".tmp", path)
        """})
        assert result.clean

    def test_clean_twin_uses_store_and_taxonomy(self, tmp_path):
        result = lint_tree(tmp_path, {"orchestrate/clean.py": """
            from repro.errors import OrchestrateError

            def persist(store, records, cell_id):
                if not records:
                    raise OrchestrateError("cell produced no records",
                                           cell=cell_id)
                store.append_many(records)
        """})
        assert result.clean

    def test_outside_orchestrate_scope_ignored(self, tmp_path):
        # A private helper: public origin/ entries raising builtins are
        # HDVB202's business, which is not what this test probes.
        result = lint_tree(tmp_path, {"origin/util.py": """
            def _parse(value):
                raise ValueError(value)
        """})
        assert result.clean

    def test_shipped_orchestrate_tree_is_clean(self):
        result = run([str(REPO_ROOT / "src" / "repro" / "orchestrate")],
                     baseline=empty_baseline())
        assert result.clean, render_human(result.findings)


class TestAtomicWriteRule:
    def test_plain_write_open_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"observe/evil.py": """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_binary_write_open_flagged_unlike_hdvb160(self, tmp_path):
        result = lint_tree(tmp_path, {"orchestrate/evil.py": """
            def save(path, payload):
                with open(path, "wb") as handle:
                    handle.write(payload)
        """})
        assert "HDVB190" in rule_ids(result)

    def test_path_write_text_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"observe/evil.py": """
            def save(path, text):
                path.write_text(text)
        """})
        assert rule_ids(result) == ["HDVB190"]

    def test_replace_in_same_function_is_atomic(self, tmp_path):
        result = lint_tree(tmp_path, {"observe/clean.py": """
            import os

            def save(path, payload):
                with open(path + ".tmp", "wb") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(path + ".tmp", path)
        """})
        assert result.clean

    def test_fileops_seam_is_atomic(self, tmp_path):
        result = lint_tree(tmp_path, {"observe/clean.py": """
            import os

            from repro.chaos.fsops import fileops

            def append(path, payload):
                ops = fileops()
                fd = ops.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
                try:
                    ops.write(fd, payload, path=path)
                finally:
                    ops.close(fd)
        """})
        assert result.clean

    def test_read_open_not_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"observe/clean.py": """
            def load(path):
                with open(path, "r") as handle:
                    return handle.read()
        """})
        assert result.clean

    def test_outside_scope_ignored(self, tmp_path):
        result = lint_tree(tmp_path, {"bench/report_writer.py": """
            def save(path, text):
                path.write_text(text)
        """})
        assert result.clean

    def test_inline_suppression_respected(self, tmp_path):
        result = lint_tree(tmp_path, {"observe/cli_like.py": """
            def export(path, text):
                with open(path, "w") as handle:  # hdvb: disable=HDVB190
                    handle.write(text)
        """})
        assert result.clean
        assert result.suppressed == 1

    def test_shipped_observe_tree_is_clean(self):
        result = run([str(REPO_ROOT / "src" / "repro" / "observe")],
                     baseline=empty_baseline())
        assert result.clean, render_human(result.findings)
