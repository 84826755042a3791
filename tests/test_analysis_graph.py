"""Tests for the whole-program tier: call graph, dataflow, HDVB200-203.

Layout mirrors ``test_analysis.py``: construction units for the graph
(alias/relative-import/method resolution, the honest unresolved bucket),
fixed-point convergence on cyclic call graphs, violation+clean twin
fixtures for each interprocedural rule — every violation twin is a
**two-hop** case the corresponding HDVB1xx rule provably misses — plus
the cache, ``--changed-only``, ``--prune-stale`` and graph-export
surfaces, and the self-lint gate over ``src/``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    GRAPH_SCHEMA,
    LintCache,
    Project,
    Seed,
    build_graph,
    empty_baseline,
    load_baseline,
    propagate,
    render_human,
    run,
    witness,
)
from repro.analysis.cli import graph_main, main as lint_main
from repro.analysis.engine import load_units
from repro.analysis.graph import module_key, normalize_import

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))


def graph_of(tmp_path, files):
    write_tree(tmp_path, files)
    units, _ = load_units([str(tmp_path)])
    return build_graph(Project(units=units))


def lint_tree(tmp_path, files, **kwargs):
    write_tree(tmp_path, files)
    return run([str(tmp_path)], **kwargs)


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


# ---------------------------------------------------------------------------
# graph construction


class TestModuleKeys:
    def test_plain_module(self):
        assert module_key("origin/session.py") == "origin.session"

    def test_package_init(self):
        assert module_key("telemetry/__init__.py") == "telemetry"

    def test_root_init(self):
        assert module_key("__init__.py") == ""

    def test_normalize_strips_wrappers(self):
        assert normalize_import("repro.origin.session") == "origin.session"
        assert normalize_import("src.repro.codecs") == "codecs"
        assert normalize_import("numpy.random") == "numpy.random"


class TestCallResolution:
    def test_same_module_function_call(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            def helper():
                return 1

            def entry():
                return helper()
        """})
        calls = graph.functions["a.py::entry"].calls
        assert [c.target for c in calls] == ["a.py::helper"]

    def test_from_import_with_alias(self, tmp_path):
        graph = graph_of(tmp_path, {
            "util.py": """
                def helper():
                    return 1
            """,
            "main.py": """
                from util import helper as h

                def entry():
                    return h()
            """,
        })
        calls = graph.functions["main.py::entry"].calls
        assert [c.target for c in calls] == ["util.py::helper"]

    def test_module_import_attribute_call(self, tmp_path):
        graph = graph_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": """
                def helper():
                    return 1
            """,
            "main.py": """
                import pkg.util

                def entry():
                    return pkg.util.helper()
            """,
        })
        calls = graph.functions["main.py::entry"].calls
        assert [c.target for c in calls] == ["pkg/util.py::helper"]

    def test_relative_import_resolves(self, tmp_path):
        graph = graph_of(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/util.py": """
                def helper():
                    return 1
            """,
            "pkg/main.py": """
                from .util import helper

                def entry():
                    return helper()
            """,
        })
        calls = graph.functions["pkg/main.py::entry"].calls
        assert [c.target for c in calls] == ["pkg/util.py::helper"]

    def test_self_method_resolution(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            class Worker:
                def step(self):
                    return self._inner()

                def _inner(self):
                    return 1
        """})
        calls = graph.functions["a.py::Worker.step"].calls
        assert [c.target for c in calls] == ["a.py::Worker._inner"]

    def test_method_through_local_instance(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            class Worker:
                def step(self):
                    return 1

            def entry():
                worker = Worker()
                return worker.step()
        """})
        targets = [c.target for c in graph.functions["a.py::entry"].calls]
        # The constructor edge (synthetic __init__) plus the method.
        assert "a.py::Worker.step" in targets
        assert "a.py::Worker.__init__" in targets
        assert graph.functions["a.py::Worker.__init__"].synthetic

    def test_inherited_method_resolution(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            class Base:
                def step(self):
                    return 1

            class Child(Base):
                def run(self):
                    return self.step()
        """})
        calls = graph.functions["a.py::Child.run"].calls
        assert [c.target for c in calls] == ["a.py::Base.step"]

    def test_external_call_resolved_as_external(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            import time

            def entry():
                return time.sleep(1)
        """})
        calls = graph.functions["a.py::entry"].calls
        assert calls[0].external == "time.sleep"
        assert calls[0].target is None

    def test_unresolved_bucket_is_honest(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            def entry(callback):
                value = callback()
                return value.method()
        """})
        sites = graph.unresolved_sites()
        assert len(sites) == 2
        assert graph.counts()["unresolved_calls"] == 2
        document = graph.to_document()
        assert document["schema"] == GRAPH_SCHEMA
        assert document["unresolved"]["count"] == 2
        assert len(document["unresolved"]["sites"]) == 2

    def test_async_flag_recorded(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            async def entry():
                return 1
        """})
        assert graph.functions["a.py::entry"].is_async

    def test_nested_function_qualname(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            def outer():
                def inner():
                    return 1
                return inner()
        """})
        calls = graph.functions["a.py::outer"].calls
        assert [c.target for c in calls] == ["a.py::outer.inner"]
        assert "a.py::outer.inner" in graph.functions


# ---------------------------------------------------------------------------
# dataflow


class TestFixedPoint:
    def test_converges_on_cycle(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            import time

            def ping(n):
                if n:
                    return pong(n - 1)
                return time.time()

            def pong(n):
                return ping(n)
        """})
        seeds = {"a.py::ping": {"time.time": Seed("time.time", 8)}}
        facts = propagate(graph, seeds)
        assert "time.time" in facts["a.py::ping"]
        assert "time.time" in facts["a.py::pong"]
        chain = witness(graph, facts, "a.py::pong", "time.time")
        assert chain[-1].startswith("time.time")

    def test_facts_stop_at_blocker(self, tmp_path):
        graph = graph_of(tmp_path, {"a.py": """
            def source():
                raise ValueError("boom")

            def shielded():
                try:
                    return source()
                except ValueError:
                    return None

            def exposed():
                return source()
        """})
        seeds = {"a.py::source": {"raise:ValueError":
                                  Seed("raise ValueError", 2)}}

        def blocks(caller, site, fact):
            return "ValueError" in site.handled

        facts = propagate(graph, seeds, blocks=blocks)
        assert "a.py::shielded" not in facts
        assert "raise:ValueError" in facts["a.py::exposed"]


# ---------------------------------------------------------------------------
# HDVB200 nondeterminism taint


class TestNondetTaintRule:
    TWO_HOP = {
        # The helper lives OUTSIDE the determinism scope, so HDVB101
        # cannot flag it; the codec entry contains no RNG call at all,
        # so HDVB101 cannot flag it either.  Only the graph connects
        # them.
        "util/jitter.py": """
            import random

            def jitter():
                return random.uniform(0.5, 1.5)
        """,
        "codecs/enc.py": """
            from util.jitter import jitter

            def encode(frame):
                return frame * jitter()
        """,
    }

    def test_two_hop_taint_flagged(self, tmp_path):
        result = lint_tree(tmp_path, self.TWO_HOP)
        assert rule_ids(result) == ["HDVB200"]
        finding = result.findings[0]
        assert finding.module == "codecs/enc.py"
        assert "random.uniform" in finding.message
        assert "jitter" in finding.message

    def test_hdvb101_alone_misses_the_two_hop_case(self, tmp_path):
        result = lint_tree(tmp_path, self.TWO_HOP, select=["HDVB101"])
        assert result.clean

    def test_clean_twin_seeded_rng(self, tmp_path):
        result = lint_tree(tmp_path, {
            "util/jitter.py": """
                import random

                def jitter(rng: random.Random):
                    return rng.uniform(0.5, 1.5)
            """,
            "codecs/enc.py": """
                import random

                from util.jitter import jitter

                def encode(frame, seed):
                    return frame * jitter(random.Random(seed))
            """,
        })
        assert result.clean

    def test_direct_source_in_orchestrate_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"orchestrate/sched.py": """
            import time

            def stamp():
                return time.time()
        """})
        assert rule_ids(result) == ["HDVB200"]

    def test_telemetry_sources_exempt(self, tmp_path):
        result = lint_tree(tmp_path, {
            "telemetry/trace.py": """
                import time

                def now():
                    return time.time()
            """,
            "orchestrate/sched.py": """
                from telemetry.trace import now

                def record():
                    return now()
            """,
        })
        assert result.clean

    def test_wallclock_two_hop_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "util/stamp.py": """
                import time

                def stamp():
                    return time.time()
            """,
            "transport/chan.py": """
                from util.stamp import stamp

                def send(packet):
                    return (stamp(), packet)
            """,
        })
        assert rule_ids(result) == ["HDVB200"]


# ---------------------------------------------------------------------------
# HDVB201 async blocking


class TestAsyncBlockingRule:
    TWO_HOP = {
        # The sleep hides in a sync helper outside origin/: HDVB170 has
        # no opinion, HDVB101/102 have no opinion (time.sleep is not a
        # wall-clock *read*), and no local rule connects coroutine to
        # helper.
        "util/throttle.py": """
            import time

            def settle():
                time.sleep(0.1)
        """,
        "origin/server.py": """
            from util.throttle import settle

            async def serve(session):
                settle()
                return session
        """,
    }

    def test_two_hop_blocking_flagged(self, tmp_path):
        result = lint_tree(tmp_path, self.TWO_HOP)
        assert rule_ids(result) == ["HDVB201"]
        finding = result.findings[0]
        assert finding.module == "origin/server.py"
        assert "time.sleep" in finding.message

    def test_local_rules_alone_miss_it(self, tmp_path):
        result = lint_tree(tmp_path, self.TWO_HOP,
                           select=["HDVB101", "HDVB102", "HDVB170"])
        assert result.clean

    def test_clean_twin_async_path(self, tmp_path):
        result = lint_tree(tmp_path, {
            "util/throttle.py": """
                import asyncio

                async def settle():
                    await asyncio.sleep(0.1)
            """,
            "origin/server.py": """
                from util.throttle import settle

                async def serve(session):
                    await settle()
                    return session
            """,
        })
        assert result.clean

    def test_sync_open_two_hop_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "util/disk.py": """
                def slurp(path):
                    with open(path) as handle:
                        return handle.read()
            """,
            "origin/server.py": """
                from util.disk import slurp

                async def serve(path):
                    return slurp(path)
            """,
        })
        assert rule_ids(result) == ["HDVB201"]

    def test_submit_result_wait_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {"origin/server.py": """
            async def serve(pool, job):
                return pool.submit(job).result()
        """})
        assert rule_ids(result) == ["HDVB201"]

    def test_sync_caller_not_flagged(self, tmp_path):
        # The same blocking helper reached from a *sync* function in
        # origin/ is legal -- only coroutines hold the loop hostage.
        result = lint_tree(tmp_path, {
            "util/throttle.py": """
                import time

                def settle():
                    time.sleep(0.1)
            """,
            "origin/setup.py": """
                from util.throttle import settle

                def warm_up():
                    settle()
            """,
        })
        assert result.clean

    def test_no_await_cascade(self, tmp_path):
        # Only the coroutine that owns the blocking call is flagged,
        # not every coroutine awaiting it up the chain.
        result = lint_tree(tmp_path, {"origin/server.py": """
            import time

            async def leaf():
                time.sleep(0.1)

            async def trunk():
                await leaf()
        """})
        assert rule_ids(result) == ["HDVB201"]
        assert "leaf" in result.findings[0].message


# ---------------------------------------------------------------------------
# HDVB202 exception escapes


class TestExceptionEscapeRule:
    TWO_HOP = {
        # The raise lives OUTSIDE the decode scope (HDVB110 cannot flag
        # it) and the public decode entry contains no raise at all.
        "util/varint.py": """
            def read_varint(buf):
                if not buf:
                    raise ValueError("empty buffer")
                return buf[0]
        """,
        "codecs/dec.py": """
            from util.varint import read_varint

            def decode(buf):
                return read_varint(buf)
        """,
    }

    def test_two_hop_escape_flagged(self, tmp_path):
        result = lint_tree(tmp_path, self.TWO_HOP)
        assert rule_ids(result) == ["HDVB202"]
        finding = result.findings[0]
        assert finding.module == "codecs/dec.py"
        assert "ValueError" in finding.message

    def test_hdvb110_alone_misses_the_two_hop_case(self, tmp_path):
        result = lint_tree(tmp_path, self.TWO_HOP, select=["HDVB110"])
        assert result.clean

    def test_clean_twin_normalises_at_boundary(self, tmp_path):
        result = lint_tree(tmp_path, {
            "util/varint.py": """
                def read_varint(buf):
                    if not buf:
                        raise ValueError("empty buffer")
                    return buf[0]
            """,
            "codecs/dec.py": """
                from repro.errors import BitstreamError

                from util.varint import read_varint

                def decode(buf):
                    try:
                        return read_varint(buf)
                    except ValueError as error:
                        raise BitstreamError(str(error)) from error
            """,
        })
        assert result.clean

    def test_ancestor_handler_blocks_fact(self, tmp_path):
        # except LookupError catches the KeyError two hops down.
        result = lint_tree(tmp_path, {
            "util/table.py": """
                def lookup(table, key):
                    if key not in table:
                        raise KeyError(key)
                    return table[key]
            """,
            "codecs/dec.py": """
                from util.table import lookup

                def decode(table, key):
                    try:
                        return lookup(table, key)
                    except LookupError:
                        return None
            """,
        })
        assert result.clean

    def test_private_entry_not_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "util/varint.py": """
                def read_varint(buf):
                    if not buf:
                        raise ValueError("empty buffer")
                    return buf[0]
            """,
            "codecs/dec.py": """
                from util.varint import read_varint

                def _decode(buf):
                    return read_varint(buf)
            """,
        })
        assert result.clean

    def test_direct_raise_in_origin_entry_flagged(self, tmp_path):
        # HDVB110 never scoped origin/, so the direct raise is this
        # rule's to report.
        result = lint_tree(tmp_path, {"origin/server.py": """
            def serve(session):
                raise RuntimeError(session)
        """})
        assert rule_ids(result) == ["HDVB202"]


# ---------------------------------------------------------------------------
# HDVB203 shared mutable state


class TestSharedMutableStateRule:
    TWO_HOP = {
        "parallel.py": """
            def run_pooled(worker, jobs, workers):
                return [worker(*job) for job in jobs]
        """,
        "orchestrate/state.py": """
            from parallel import run_pooled

            RESULTS = []

            def _cell(job):
                RESULTS.append(job)
                return job

            def run(jobs):
                results = run_pooled(_cell, jobs, 2)
                RESULTS.clear()
                return results
        """,
    }

    def test_both_sides_write_flagged(self, tmp_path):
        result = lint_tree(tmp_path, self.TWO_HOP)
        assert rule_ids(result) == ["HDVB203"]
        finding = result.findings[0]
        assert "RESULTS" in finding.message

    def test_clean_twin_merge_in_parent(self, tmp_path):
        result = lint_tree(tmp_path, {
            "parallel.py": """
                def run_pooled(worker, jobs, workers):
                    return [worker(*job) for job in jobs]
            """,
            "orchestrate/state.py": """
                from parallel import run_pooled

                RESULTS = []

                def _cell(job):
                    return job

                def run(jobs):
                    outcomes = run_pooled(_cell, jobs, 2)
                    RESULTS.extend(outcomes)
                    return outcomes
            """,
        })
        assert result.clean

    def test_module_body_init_not_a_parent_write(self, tmp_path):
        # Import-time initialisation runs in both processes by design.
        result = lint_tree(tmp_path, {
            "parallel.py": """
                def run_pooled(worker, jobs, workers):
                    return [worker(*job) for job in jobs]
            """,
            "orchestrate/state.py": """
                from parallel import run_pooled

                RESULTS = []
                RESULTS.append(0)

                def _cell(job):
                    RESULTS.append(job)
                    return job

                def run(jobs):
                    return run_pooled(_cell, jobs, 2)
            """,
        })
        assert result.clean

    def test_declared_global_rebind_detected(self, tmp_path):
        result = lint_tree(tmp_path, {
            "parallel.py": """
                def run_pooled(worker, jobs, workers):
                    return [worker(*job) for job in jobs]
            """,
            "orchestrate/state.py": """
                from parallel import run_pooled

                TOTAL = 0

                def _cell(job):
                    global TOTAL
                    TOTAL += 1
                    return job

                def reset():
                    global TOTAL
                    TOTAL = 0

                def run(jobs):
                    reset()
                    return run_pooled(_cell, jobs, 2)
            """,
        })
        assert rule_ids(result) == ["HDVB203"]


# ---------------------------------------------------------------------------
# cache, changed-only, prune-stale, graph export


class TestLintCache:
    def test_warm_run_hits_ast_and_graph(self, tmp_path):
        write_tree(tmp_path, {"codecs/a.py": """
            def encode(frame):
                return frame
        """})
        cache_dir = tmp_path / ".cache"
        cold = LintCache(cache_dir)
        result = run([str(tmp_path / "codecs")], cache=cold)
        assert result.clean
        assert cold.ast_hits == 0

        warm = LintCache(cache_dir)
        result = run([str(tmp_path / "codecs")], cache=warm)
        assert result.clean
        assert warm.ast_hits == 1
        assert warm.ast_misses == 0
        assert warm.graph_hit

    def test_edited_file_misses_and_reprimes(self, tmp_path):
        target = tmp_path / "codecs" / "a.py"
        write_tree(tmp_path, {"codecs/a.py": "def encode(f):\n    return f\n"})
        cache_dir = tmp_path / ".cache"
        run([str(tmp_path / "codecs")], cache=LintCache(cache_dir))

        target.write_text("def encode(f):\n    return f + 1\n")
        second = LintCache(cache_dir)
        run([str(tmp_path / "codecs")], cache=second)
        assert not second.graph_hit
        assert second.ast_hits == 0

        third = LintCache(cache_dir)
        run([str(tmp_path / "codecs")], cache=third)
        assert third.ast_hits == 1
        assert third.graph_hit

    def test_findings_identical_with_and_without_cache(self, tmp_path):
        files = dict(TestNondetTaintRule.TWO_HOP)
        write_tree(tmp_path, files)
        cache_dir = tmp_path / ".cache"
        uncached = run([str(tmp_path)])
        run([str(tmp_path)], cache=LintCache(cache_dir))     # prime
        cached = run([str(tmp_path)], cache=LintCache(cache_dir))
        strip = lambda fs: [(f.rule_id, f.module, f.line, f.message)
                            for f in fs]
        assert strip(cached.findings) == strip(uncached.findings)

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        write_tree(tmp_path, {"codecs/a.py": "def f():\n    return 1\n"})
        cache_dir = tmp_path / ".cache"
        run([str(tmp_path / "codecs")], cache=LintCache(cache_dir))
        for entry in (cache_dir / "ast").iterdir():
            entry.write_bytes(b"not a pickle")
        rerun = LintCache(cache_dir)
        result = run([str(tmp_path / "codecs")], cache=rerun)
        assert result.clean
        assert rerun.ast_hits == 0


class TestChangedOnly:
    def test_scopes_module_rules_but_not_graph_rules(self, tmp_path):
        write_tree(tmp_path, dict(TestNondetTaintRule.TWO_HOP))
        write_tree(tmp_path, {"codecs/local.py": """
            import random

            def noisy():
                return random.random()
        """})
        # Pretend only an unrelated file changed: the local HDVB101 in
        # codecs/local.py is skipped, the interprocedural HDVB200 in
        # codecs/enc.py still fires because the graph stays whole-program.
        result = run([str(tmp_path)],
                     changed_modules={"codecs/enc.py", "util/jitter.py"})
        assert rule_ids(result) == ["HDVB200"]

    def test_unscoped_run_reports_both(self, tmp_path):
        write_tree(tmp_path, dict(TestNondetTaintRule.TWO_HOP))
        write_tree(tmp_path, {"codecs/local.py": """
            import random

            def noisy():
                return random.random()
        """})
        result = run([str(tmp_path)])
        assert sorted(rule_ids(result)) == ["HDVB101", "HDVB200"]


class TestPruneStale:
    def test_prune_preserves_live_entries_and_reasons(self, tmp_path, capsys):
        write_tree(tmp_path, {"codecs/dec.py": """
            def parse(v):
                raise ValueError(v)
        """})
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "schema": "repro.analysis.baseline/1",
            "entries": [
                {"rule": "HDVB110", "module": "codecs/dec.py",
                 "message": "decode path raises builtin ValueError instead "
                            "of a ReproError subclass",
                 "reason": "live entry, keep me"},
                {"rule": "HDVB101", "module": "codecs/gone.py",
                 "message": "stale entry", "reason": "dead"},
            ],
        }, indent=2))
        code = lint_main([str(tmp_path), "--baseline", str(baseline_path),
                          "--prune-stale"])
        capsys.readouterr()
        assert code == 0
        pruned = load_baseline(baseline_path)
        assert len(pruned.entries) == 1
        assert pruned.entries[0].reason == "live entry, keep me"

    def test_prune_is_idempotent(self, tmp_path, capsys):
        write_tree(tmp_path, {"codecs/ok.py": "X = 1\n"})
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "schema": "repro.analysis.baseline/1",
            "entries": [{"rule": "HDVB101", "module": "codecs/gone.py",
                         "message": "stale", "reason": "dead"}],
        }, indent=2))
        lint_main([str(tmp_path), "--baseline", str(baseline_path),
                   "--prune-stale"])
        first = baseline_path.read_bytes()
        lint_main([str(tmp_path), "--baseline", str(baseline_path),
                   "--prune-stale"])
        capsys.readouterr()
        assert baseline_path.read_bytes() == first

    def test_write_fault_leaves_the_baseline_byte_identical(self, tmp_path,
                                                            capsys):
        from repro.chaos import ChaosFS, FaultPlan, activate

        write_tree(tmp_path, {"codecs/dec.py": """
            def parse(v):
                raise ValueError(v)
        """})
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps({
            "schema": "repro.analysis.baseline/1",
            "entries": [{"rule": "HDVB101", "module": "codecs/gone.py",
                         "message": "stale", "reason": "dead"}],
        }, indent=2))
        before = baseline_path.read_bytes()
        for flag in ("--prune-stale", "--write-baseline"):
            plan = FaultPlan(seed=0, rate=1.0, kinds=["enospc"],
                             ops=["write"])
            with activate(ChaosFS(plan)):
                assert lint_main([str(tmp_path), "--baseline",
                                  str(baseline_path), flag]) == 2
            assert "cannot write baseline" in capsys.readouterr().err
            assert plan.injected
            assert baseline_path.read_bytes() == before
            assert not Path(str(baseline_path) + ".tmp").exists()


class TestGraphExport:
    def test_json_document_schema_and_determinism(self, tmp_path, capsys):
        write_tree(tmp_path, {"a.py": """
            def helper():
                return 1

            def entry(cb):
                cb()
                return helper()
        """})
        assert graph_main([str(tmp_path), "--format", "json"]) == 0
        first = capsys.readouterr().out
        document = json.loads(first)
        assert document["schema"] == GRAPH_SCHEMA
        assert ["a.py::entry", "a.py::helper"] in document["edges"]
        assert document["unresolved"]["count"] == 1
        assert graph_main([str(tmp_path), "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_dot_export_renders_clusters(self, tmp_path, capsys):
        write_tree(tmp_path, {"a.py": """
            def helper():
                return 1

            def entry():
                return helper()
        """})
        assert graph_main([str(tmp_path), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph hdvb_callgraph")
        assert '"a.py::entry" -> "a.py::helper";' in out


# ---------------------------------------------------------------------------
# self-lint gate


class TestSelfLintGraphTier:
    def test_graph_rules_clean_over_src(self):
        result = run([str(REPO_ROOT / "src")], baseline=empty_baseline(),
                     select=["HDVB200", "HDVB201", "HDVB202", "HDVB203"])
        assert result.findings == [], render_human(result.findings)

    def test_graph_resolves_every_module_under_src(self):
        units, _ = load_units([str(REPO_ROOT / "src")])
        project = Project(units=units)
        graph = project.graph()
        parsed = {unit.module for unit in units if unit.tree is not None}
        assert parsed == set(graph.modules)
        counts = graph.counts()
        assert counts["internal_calls"] > 1000
        assert counts["unresolved_calls"] > 0     # honesty, not omniscience
