"""Pin the output digests of every workload for the development and held-out seeds.

    python3 perfbench/pin.py            # rewrite perfbench/digests.json
    python3 perfbench/pin.py --check    # compare against it, exit 1 on a difference

Each operation runs once, untimed; the digests are those the benchmark
checks on every timed and traced run of these seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import perfbench  # noqa: E402

DEV_SEED = 1
HELD_OUT_SEED = 1009


def compute() -> dict:
    from perfbench.run import finish_checks, run_operation
    from perfbench.workloads import WORKLOADS, DigestCheck, prepare

    digests: dict = {}
    for seed in (DEV_SEED, HELD_OUT_SEED):
        for name, workload in WORKLOADS.items():
            operations = prepare(workload, seed)
            check = DigestCheck(None)
            failures = sum(not run_operation(op, check)[0] for op in operations)
            failures += finish_checks(operations, check)
            if failures:
                raise SystemExit(f"{name} seed {seed}: {failures} failed operations")
            digests.setdefault(str(seed), {})[name] = check.expected
            print(f"pinned {name} seed {seed}", file=sys.stderr, flush=True)
    return {"dev_seed": DEV_SEED, "held_out_seed": HELD_OUT_SEED, "digests": digests}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the pinned file instead of rewriting it")
    args = parser.parse_args()
    perfbench.use_source_tree()
    from perfbench.workloads import DIGESTS_FILE

    pinned = compute()
    if args.check:
        current = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
        same = current == pinned
        print("digests match" if same else "digests differ")
        return 0 if same else 1
    DIGESTS_FILE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
