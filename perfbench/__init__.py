"""Codec-core benchmark: SIMD encode/decode workloads with per-layer attribution.

Run one workload, printing its result as JSON on the last line::

    python3 perfbench/run.py --workload h264-encode --seed 1 --seconds 20 --trace 0

or every workload with a human-readable report::

    python3 perfbench/report.py --seed 1

The benchmark reaches the program only through the ``src/`` tree of the
checkout it sits in; :func:`use_source_tree` puts that tree on ``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SOURCE_TREE = REPO_ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SOURCE_TREE / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program to measure: {SOURCE_TREE / 'repro'} is missing")
    if str(SOURCE_TREE) not in sys.path:
        sys.path.insert(0, str(SOURCE_TREE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE_TREE / "repro":
        raise MissingProgram(f"repro was imported from {repro.__file__}, not {SOURCE_TREE}")
