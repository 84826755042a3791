"""Self-tests of the codec-core benchmark.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys

import pytest

import perfbench

perfbench.use_source_tree()

from perfbench import REPO_ROOT  # noqa: E402
from perfbench.run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from perfbench.tracer import LayerTracer, kernel_group, layer_targets  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, DigestCheck, frames_digest, generate, prepare, stream_digest)
from repro.bench.characterize import CountingKernels  # noqa: E402
from repro.codecs import get_decoder  # noqa: E402
from repro.kernels.api import KERNEL_NAMES  # noqa: E402
from repro.sequences import SEQUENCE_NAMES  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def h264_encode_op():
    """The rush_hour operation of ``h264-encode`` (the smallest H.264 input)."""
    return prepare(WORKLOADS["h264-encode"], SEED)[-1]


@pytest.fixture(scope="module")
def mpeg2_stream():
    op = prepare(WORKLOADS["mpeg2-encode"], SEED)[-1]
    return op.build().encode_sequence(op.source)


def traced(run, codec):
    tracer = LayerTracer()
    tracer.install()
    try:
        tracer.attach(codec)
        output, _ = tracer.operation(run, codec)
    finally:
        tracer.uninstall()
    return tracer, output


def kernel_calls(tracer):
    return dict(zip(tracer.kernel_names, tracer.kernel_calls))


def counting_calls(counting):
    return {name: stats.calls for name, stats in counting.profile.kernels.items()}


def test_every_kernel_has_a_layer():
    assert [name for name in KERNEL_NAMES if kernel_group(name) is None] == []


def test_traced_kernel_calls_equal_counting_kernels_on_encode(h264_encode_op):
    op = h264_encode_op
    tracer, stream = traced(op.run, op.build())
    encoder = op.build()
    counting = CountingKernels("simd")
    encoder.kernels = counting
    reference = encoder.encode_sequence(op.source)
    assert stream_digest(stream) == stream_digest(reference)
    assert kernel_calls(tracer) == counting_calls(counting)


def test_traced_kernel_calls_equal_counting_kernels_on_decode(mpeg2_stream):
    tracer, video = traced(lambda decoder: decoder.decode(mpeg2_stream), get_decoder("mpeg2"))
    decoder = get_decoder("mpeg2")
    counting = CountingKernels("simd")
    decoder.kernels = counting
    assert frames_digest(video) == frames_digest(decoder.decode(mpeg2_stream))
    assert kernel_calls(tracer) == counting_calls(counting)


def test_per_layer_counts_repeat_across_traced_runs(h264_encode_op):
    op = h264_encode_op
    first, _ = traced(op.run, op.build())
    second, _ = traced(op.run, op.build())
    for attribute in ("spans", "reentries", "outgoing", "callable_calls",
                      "kernel_calls", "subpel_kernel_calls"):
        assert getattr(first, attribute) == getattr(second, attribute), attribute
    assert first.layer_calls("me.search") > 0
    assert first.layer_calls("robustness.engine") == 0


def test_decoder_counts_engine_and_entropy(mpeg2_stream):
    tracer, _ = traced(lambda decoder: decoder.decode(mpeg2_stream), get_decoder("mpeg2"))
    for layer in ("robustness.engine", "entropy", "bitstream", "transform"):
        assert tracer.layer_calls(layer) > 0, layer
    assert tracer.layer_calls("me.search") == 0
    # Self times partition the operation: no time is counted twice.
    assert sum(tracer.self_s) > 0
    assert min(tracer.self_s) >= 0


def _bindings():
    """Identity of every attribute of every repro module and of its classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for member, member_value in list(vars(value).items()):
                    seen[(name, attr, member)] = id(member_value)
    return seen


def test_install_patches_and_uninstall_restores_everything():
    targets = layer_targets()
    before = _bindings()
    tracer = LayerTracer()
    tracer.install(targets)
    try:
        during = _bindings()
        from repro.codecs.h264 import decoder as h264_decoder
        from repro.common import expgolomb

        assert h264_decoder.read_ue is expgolomb.read_ue
        assert hasattr(expgolomb.read_ue, "__wrapped__")
    finally:
        tracer.uninstall()
    assert before != during
    assert _bindings() == before


def test_two_seeds_give_different_content():
    for sequence in SEQUENCE_NAMES:
        first = frames_digest(generate(sequence, "720p25", 2, 1))
        again = frames_digest(generate(sequence, "720p25", 2, 1))
        other = frames_digest(generate(sequence, "720p25", 2, 2))
        assert first == again
        assert first != other, sequence


def test_digest_check_pins_and_repeats():
    unpinned = DigestCheck(None)
    assert unpinned.check("a", "stream", "x") and unpinned.check("a", "stream", "x")
    assert not unpinned.check("a", "stream", "y")
    pinned = DigestCheck({"a": {"stream": "x"}})
    assert pinned.check("a", "stream", "x")
    assert not pinned.check("a", "decoded", "z")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_pinned_digests_cover_every_workload():
    pinned = json.loads((REPO_ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))
    for seed in (pinned["dev_seed"], pinned["held_out_seed"]):
        by_workload = pinned["digests"][str(seed)]
        assert set(by_workload) == set(WORKLOADS)
        for name, workload in WORKLOADS.items():
            assert len(by_workload[name]) == len(SEQUENCE_NAMES) * len(workload.codecs)
            for kinds in by_workload[name].values():
                assert set(kinds) == {"stream", "decoded"}


def test_setup_only_reports_setup_and_reference_seconds():
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mpeg2-encode", "--seed", "1",
         "--seconds", "0", "--setup-only"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    setup_s, reference_s = map(float, completed.stdout.split())
    assert 0 < reference_s < setup_s


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(REPO_ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h264-encode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
