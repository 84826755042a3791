"""Run one codec-core benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload h264-encode --seed 1 --seconds 15 --trace 0

Single thread, closed loop: each encode or decode starts when the previous
one has finished, all in one process.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped (``setup_s`` from fresh processes
that only set up, see :func:`setup_times`); ``--trace 1`` alternates untraced
and traced passes over the workload's operations and reports per-layer
metrics from the traced ones (see ``perfbench/tracer.py``).  Progress goes
to stderr; the last line of stdout is the result object.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402

#: Fresh processes set up per timed run; ``setup_s`` is the median of their
#: set-up times.  Each is a process's first set-up, so import-time work such
#: as the codecs' VLC table builds counts in every sample.
SETUP_PROCESSES = 5
#: Minimum repetitions of every operation in a timed run.
MIN_PASSES = 3

#: Kernels reported individually (calls and microseconds per call).
KERNEL_METRICS = (
    "sad", "satd4", "get_block", "mc_halfpel", "mc_qpel_bilinear", "mc_qpel_h264",
    "sub", "add_clip", "fdct8", "idct8", "fwd_transform4", "inv_transform4",
    "quant_h264_4x4", "deblock_normal", "deblock_strong",
)
INTERP_KERNELS = ("mc_halfpel", "mc_qpel_bilinear", "mc_qpel_h264")

#: Iterations of the reference loop run between operations, and its time on
#: the machine the benchmark was tuned on (2-core x86-64 VM, Python 3.11,
#: NumPy 2.4), in seconds.
REFERENCE_ITERATIONS = 3000
REFERENCE_NOMINAL_S = 0.021
#: While an operation runs, a short reference sample every PROBE_INTERVAL_S.
PROBE_ITERATIONS = 300
PROBE_INTERVAL_S = 0.05

END_TO_END_UNITS = {
    "fps": "frames/s",
    "setup_s": "s",
    "success_rate": "ratio",
    "psnr_y_db": "dB",
    "kbps": "kbit/s",
    "peak_rss_mb": "MB",
}


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    from perfbench.tracer import CONTROL, LAYERS

    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.self_s_net"] = "s"
        units[f"{layer}.share"] = "ratio"
        if layer != CONTROL:
            units[f"{layer}.calls"] = "count"
    for kernel in KERNEL_METRICS:
        units[f"kernels.{kernel}.calls"] = "count"
        units[f"kernels.{kernel}.us_per_call"] = "us"
    units["me.search.cost_calls_per_search"] = "calls/search"
    units["me.subpel.interp_calls_per_refine"] = "calls/refine"
    units["bitstream.calls_per_kbit"] = "calls/kbit"
    units["trace.overhead"] = "ratio"
    units["fps_wall"] = "frames/s"
    return units


def _metric(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds for a fixed mix of small NumPy and interpreter work.

    It resembles a codec's per-block work and touches no ``repro`` code, so
    its time tracks how fast the machine runs right now and nothing else.
    The garbage collector is off while it runs, so a collection the
    program's allocations have made due is not timed as machine speed.  A
    quarter as many iterations run untimed first: a timer signal that
    arrives during a collection is handled right after it, on caches the
    collection has just emptied, and without the warm-up an allocation-heavy
    program slows its own samples and hides part of its cost.
    """
    import numpy as np

    a = np.arange(256, dtype=np.int64).reshape(16, 16)
    b = a[::-1].copy()
    table: Dict[int, int] = {}
    acc = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        for count in (max(1, iterations // 4), iterations):   # warm-up, then timed
            start = time.perf_counter()
            for i in range(count):
                k = i & 7
                acc += int(np.abs(a[k:k + 8, 0:8] - b[0:8, 0:8]).sum())
                acc = (acc * 31 + i) & 0xFFFF
                table[i & 15] = acc
                acc ^= table.get((i + 1) & 15, 0) >> 1
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """Scales timed blocks to a nominal machine speed.

    The machine this runs on is shared: its speed changes by up to 2x
    within a second.  The reference loop runs before and after each timed
    block and, from a timer signal, every PROBE_INTERVAL_S inside it.
    :meth:`nominal` scales a block's time by the speed those samples saw, so
    a slow phase stretches both and cancels.  The samples' own time inside
    the block is kept in ``cost_s`` for the caller to subtract.
    """

    def __init__(self) -> None:
        self._edge = reference_loop()
        self._ref_s, self._iterations, self.cost_s = 0.0, 0, 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._ref_s += reference_loop(PROBE_ITERATIONS)
        self._iterations += PROBE_ITERATIONS
        self.cost_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._ref_s, self._iterations, self.cost_s = self._edge, REFERENCE_ITERATIONS, 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._edge = reference_loop()
        self._ref_s += self._edge
        self._iterations += REFERENCE_ITERATIONS

    def nominal(self, seconds: float) -> float:
        """``seconds`` measured in the last block, at the nominal machine speed."""
        nominal_per_iteration = REFERENCE_NOMINAL_S / REFERENCE_ITERATIONS
        return seconds * nominal_per_iteration * self._iterations / self._ref_s


# -- one operation -----------------------------------------------------------

def run_operation(op, check, tracer=None, probe=None) -> Tuple[bool, float, object]:
    """Run ``op`` once; returns (output correct, seconds, output).

    With ``probe`` the operation runs inside it and the probe's own
    samples are taken out of the seconds.
    """
    codec = op.build()
    try:
        if tracer is None:
            with probe or contextlib.nullcontext():
                start = time.perf_counter()
                output = op.run(codec)
                elapsed = time.perf_counter() - start
            if probe is not None:
                elapsed -= probe.cost_s
        else:
            tracer.attach(codec)
            output, elapsed = tracer.operation(op.run, codec)
    except Exception:  # an operation that raises counts as failed; the run goes on
        log(f"{op.label} raised:\n{traceback.format_exc()}")
        return False, 0.0, None
    if op.direction == "encode" and op.stream is None:
        op.stream = output
    if op.direction == "decode" and op.decoded is None:
        op.decoded = output
    kind, digest = op.digest(output)
    return check.check(op.label, kind, digest), elapsed, output


def finish_checks(operations, check) -> int:
    """Check the digests not produced by the loop; returns the failures.

    An encode workload's streams are decoded once here (untimed) so their
    pictures can be checked and their PSNR measured.
    """
    from perfbench.workloads import frames_digest, stream_digest

    failed = 0
    for op in operations:
        if op.stream is None:
            failed += 1
            continue
        if op.direction == "encode":
            try:
                op.decoded = op.build_decoder().decode(op.stream)
            except Exception:  # counted as a failed operation
                log(f"{op.label} decode raised:\n{traceback.format_exc()}")
                failed += 1
                continue
            failed += not check.check(op.label, "decoded", frames_digest(op.decoded))
        else:
            failed += not check.check(op.label, "stream", stream_digest(op.stream))
    return failed


# -- timed run ---------------------------------------------------------------

def timed_run(operations, seconds: float, check) -> Dict:
    """Closed loop over the operations for ``seconds``; at least MIN_PASSES passes.

    Each operation's time is scaled to the nominal machine speed by a
    :class:`SpeedProbe`, so ``fps`` reads frames per second at that speed.
    """
    samples: Dict[str, List[float]] = {op.label: [] for op in operations}
    wall: Dict[str, List[float]] = {op.label: [] for op in operations}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    index = 0
    probe = SpeedProbe()
    while True:
        op = operations[index % len(operations)]
        index += 1
        attempted += 1
        ok, elapsed, _ = run_operation(op, check, probe=probe)
        if ok:
            samples[op.label].append(probe.nominal(elapsed))
            wall[op.label].append(elapsed)
        else:
            failed += 1
        if index >= MIN_PASSES * len(operations) and time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted += len(operations)
    failed += finish_checks(operations, check)
    frames = sum(op.frames for op in operations if samples[op.label])

    def fps(times: Dict[str, List[float]]) -> float:
        busy = sum(statistics.median(values) for values in times.values() if values)
        return frames / busy if busy else 0.0

    log(f"{index} operations, {index / len(operations):.1f} passes, "
        f"wall-clock fps {fps(wall):.3f}, at nominal speed {fps(samples):.3f}")
    return {"attempted": attempted, "failed": failed, "fps": fps(samples),
            "peak_rss_mb": peak_rss_mb}


# -- traced run --------------------------------------------------------------

def _snapshot(tracer, wall: float, call_cost) -> Dict:
    return {
        "wall": wall,
        "call_cost": call_cost,
        "self_s": list(tracer.self_s),
        "spans": list(tracer.spans),
        "reentries": list(tracer.reentries),
        "outgoing": list(tracer.outgoing),
        "kernel_calls": list(tracer.kernel_calls),
        "kernel_s": list(tracer.kernel_s),
        "subpel_kernel_calls": list(tracer.subpel_kernel_calls),
        "callable_calls": list(tracer.callable_calls),
    }


_COUNT_KEYS = ("spans", "reentries", "outgoing", "kernel_calls", "subpel_kernel_calls",
               "callable_calls")


def traced_run(operations, seconds: float, check) -> Dict:
    from perfbench.tracer import LayerTracer, calibrate, layer_targets

    targets = layer_targets()
    untraced_walls: List[float] = []
    snapshots: List[Dict] = []
    attempted = failed = 0
    tracer = None
    deadline = time.perf_counter() + seconds
    while not snapshots or time.perf_counter() < deadline:
        wall = 0.0
        for op in operations:
            attempted += 1
            ok, elapsed, _ = run_operation(op, check)
            failed += not ok
            wall += elapsed
        untraced_walls.append(wall)
        # Calibrated next to the pass it corrects: the machine's speed drifts.
        call_cost = calibrate()
        tracer = LayerTracer()
        tracer.install(targets)
        outputs = []
        try:
            for op in operations:
                attempted += 1
                outputs.append(run_operation(op, check, tracer))
        finally:
            tracer.uninstall()
        failed += sum(not ok for ok, _, _ in outputs)
        snapshots.append(_snapshot(tracer, sum(elapsed for _, elapsed, _ in outputs), call_cost))
    attempted += len(operations)
    failed += finish_checks(operations, check)
    repeat = all(snapshot[key] == snapshots[0][key]
                 for snapshot in snapshots for key in _COUNT_KEYS)
    if not repeat:
        log("per-layer call counts differ between traced passes")
    log(f"{len(snapshots)} traced and {len(untraced_walls)} untraced passes")
    return {
        "attempted": attempted,
        "failed": failed + (not repeat),
        "metrics": layer_metrics(tracer, snapshots, untraced_walls, operations),
    }


def layer_metrics(tracer, snapshots, untraced_walls, operations) -> Dict:
    """Per-layer metrics, as medians over the traced passes.

    A layer's net self time takes out the callee part of the tracer's own
    cost (a :class:`~perfbench.tracer.CallCost`, calibrated for each pass)
    for each call into it, and the caller part for each call it made into
    another layer.
    """
    from perfbench.tracer import CONTROL, LAYERS
    from perfbench.workloads import coded_kbits

    units = per_layer_units()
    first = snapshots[0]
    wall = statistics.median([snapshot["wall"] for snapshot in snapshots])
    values: Dict[str, float] = {}
    for index, layer in enumerate(LAYERS):
        self_s = statistics.median([snapshot["self_s"][index] for snapshot in snapshots])
        calls = first["spans"][index] + first["reentries"][index]
        if layer == CONTROL:
            calls -= len(operations)    # operation roots are not wrapped calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.self_s_net"] = statistics.median(
            snapshot["self_s"][index] - calls * snapshot["call_cost"].callee
            - first["outgoing"][index] * snapshot["call_cost"].caller
            for snapshot in snapshots)
        values[f"{layer}.share"] = self_s / wall
        if layer != CONTROL:
            values[f"{layer}.calls"] = calls
    for kernel in KERNEL_METRICS:
        index = tracer.kernel_names.index(kernel)
        calls = first["kernel_calls"][index]
        seconds = statistics.median([snapshot["kernel_s"][index] for snapshot in snapshots])
        values[f"kernels.{kernel}.calls"] = calls
        values[f"kernels.{kernel}.us_per_call"] = 1e6 * seconds / calls if calls else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    calls = dict(zip(tracer.callable_names, first["callable_calls"]))
    interp = sum(first["subpel_kernel_calls"][tracer.kernel_names.index(kernel)]
                 for kernel in INTERP_KERNELS)
    values["me.search.cost_calls_per_search"] = ratio(
        calls.get("repro.me.cost.MotionCost.evaluate", 0),
        calls.get("repro.me.search.run_search", 0))
    values["me.subpel.interp_calls_per_refine"] = ratio(
        interp, calls.get("repro.me.subpel.refine_subpel", 0))
    values["bitstream.calls_per_kbit"] = ratio(
        values["bitstream.calls"], coded_kbits(operations))
    untraced = statistics.median(untraced_walls)
    values["trace.overhead"] = wall / untraced
    values["fps_wall"] = sum(op.frames for op in operations) / untraced
    return {name: _metric(values[name], unit) for name, unit in units.items()}


# -- set-up ------------------------------------------------------------------

def setup_times(args: argparse.Namespace) -> List[Tuple[float, float]]:
    """(wall, nominal) set-up seconds of SETUP_PROCESSES fresh processes.

    The processes run one after another.  Each imports the program, prepares
    the workload's inputs and builds its codecs -- all a timed run does
    before its first operation -- and reports the seconds from its start to
    there, and then the time of one reference loop, which scales its
    set-up time to the nominal machine speed.  The decode inputs are cached
    by then: encoding them is paid once per seed and program, not by every
    run.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_PROCESSES):
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=True, timeout=60)
        wall, reference_s = map(float, child.stdout.strip().splitlines()[-1].split())
        times.append((wall, wall * REFERENCE_NOMINAL_S / reference_s))
    return times


# -- entry point -------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds since process start and one "
                             "reference loop's seconds, and exit (one setup_s sample)")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    try:
        perfbench.use_source_tree()
        from perfbench.workloads import (
            WORKLOADS, DigestCheck, kbps, mean_psnr_y, pinned_digests, prepare)
    except perfbench.MissingProgram as error:
        log(str(error))
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
        return 2
    start = time.perf_counter()
    operations = prepare(workload, args.seed, log)
    if args.setup_only:
        print(time.perf_counter() - _STARTED, reference_loop())
        return 0
    check = DigestCheck(pinned_digests(workload.name, args.seed))
    log(f"{workload.name} seed {args.seed}: inputs prepared in "
        f"{time.perf_counter() - start:.3f} s "
        f"({'pinned' if check.pinned else 'unpinned'} digests)")

    if args.trace:
        result = traced_run(operations, args.seconds, check)
        metrics = result["metrics"]
    else:
        setups = setup_times(args)
        log("wall-clock set-up " + ", ".join(f"{wall:.3f}" for wall, _ in setups) + " s")
        result = timed_run(operations, args.seconds, check)
        attempted, failed = result["attempted"], result["failed"]
        # Quality and bitrate come from the outputs that were produced; a
        # failed operation shows in success_rate.
        decoded = [op for op in operations if op.decoded is not None]
        coded = [op for op in operations if op.stream is not None]
        if not decoded or not coded:
            log("no operation produced an output: nothing to measure")
            return 1
        values = {
            "fps": result["fps"],
            "setup_s": statistics.median(nominal for _, nominal in setups),
            "success_rate": (attempted - failed) / attempted,
            "psnr_y_db": mean_psnr_y(decoded),
            "kbps": kbps(coded),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    for mismatch in check.mismatches:
        log(f"digest mismatch: {mismatch}")
    summary = {
        "correct": result["failed"] == 0 and not check.mismatches,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
