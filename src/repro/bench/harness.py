"""Timing methodology: repeated runs, median frames/second.

The paper collects five runs of each application and reports throughput in
frames per second against the 25 fps real-time line (Section VI).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, List

from repro.common.resolution import FRAME_RATE
from repro.errors import ConfigError

#: The paper's real-time threshold (25 frames per second).
REAL_TIME_FPS = float(FRAME_RATE)


@dataclass(frozen=True)
class Timing:
    """Result of a timed measurement."""

    seconds: float          # median over runs
    runs: List[float]       # all run durations
    frame_count: int

    @property
    def fps(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.frame_count / self.seconds

    @property
    def real_time(self) -> bool:
        """Does this measurement meet the 25 fps real-time line?"""
        return self.fps >= REAL_TIME_FPS


def time_callable(fn: Callable[[], object], frame_count: int,
                  runs: int = 3, warmup: int = 1) -> Timing:
    """Time ``fn`` over ``runs`` runs (after ``warmup`` unmeasured runs)."""
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    for _ in range(warmup):
        fn()
    durations = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        durations.append(time.perf_counter() - start)
    return Timing(seconds=statistics.median(durations), runs=durations,
                  frame_count=frame_count)
