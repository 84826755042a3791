"""One command for the whole benchmark: end-to-end metrics and per-layer tables.

    python3 perfbench/report.py --seed 1 [--seconds 15] [--workloads h264-encode,...]

Runs ``perfbench/run.py`` once with ``--trace 0`` and once with
``--trace 1`` per workload, each in its own process, one after another, and
prints every end-to-end metric by name with its unit, then a per-layer
table for each workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def fmt(value: float) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def layer_table(metrics: dict) -> str:
    from perfbench.run import KERNEL_METRICS
    from perfbench.tracer import CONTROL, LAYERS

    value = {name: entry["value"] for name, entry in metrics.items()}
    lines = [f"  {'layer':18s} {'self_s':>9s} {'net_s':>9s} {'share':>7s} {'calls':>9s} {'us/call':>8s}"]
    for layer in LAYERS:
        calls = value.get(f"{layer}.calls", 0)
        self_s = value[f"{layer}.self_s"]
        per_call = f"{1e6 * self_s / calls:8.2f}" if calls else f"{'-':>8s}"
        calls_text = f"{calls:9d}" if layer != CONTROL else f"{'residual':>9s}"
        lines.append(f"  {layer:18s} {self_s:9.4f} {value[f'{layer}.self_s_net']:9.4f} "
                     f"{100 * value[f'{layer}.share']:6.1f}% {calls_text} {per_call}")
    lines.append("  kernels (calls x us/call): " + ", ".join(
        f"{kernel} {value[f'kernels.{kernel}.calls']}x"
        f"{value[f'kernels.{kernel}.us_per_call']:.1f}"
        for kernel in KERNEL_METRICS if value[f"kernels.{kernel}.calls"]))
    lines.append("  " + ", ".join(
        f"{name} {fmt(value[name])}" for name in (
            "me.search.cost_calls_per_search", "me.subpel.interp_calls_per_refine",
            "bitstream.calls_per_kbit", "trace.overhead", "fps_wall")))
    return "\n".join(lines)


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT))
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    results = {}
    for workload in args.workloads.split(","):
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        results[workload] = (run(workload, args.seed, args.seconds, 0),
                             run(workload, args.seed, args.seconds, 1))

    print(f"End-to-end metrics (seed {args.seed}, {args.seconds} s per run)")
    for workload, (timed, traced) in results.items():
        attempted, failed = timed["attempted"], timed["failed"]
        print(f"{workload}: correct={timed['correct'] and traced['correct']} "
              f"attempted={attempted} failed={failed} error_rate={failed / attempted:.4g}")
        for entry in spec["end_to_end"]:
            metric = timed["metrics"][entry["name"]]
            print(f"  {entry['name']:14s} {fmt(metric['value']):>12s} {metric['unit']}")
    for workload, (_, traced) in results.items():
        print(f"\nPer-layer (traced run, per pass over the workload): {workload}")
        print(layer_table(traced["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
