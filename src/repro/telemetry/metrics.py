"""Counters, gauges and fixed-bucket histograms.

Complements :mod:`repro.telemetry.trace`: spans answer *where time went*,
metrics answer *how much work happened* — bits written, macroblocks
coded, motion-search points evaluated, concealment events.

All instruments live in a :class:`MetricsRegistry`.  The process-global
registry (:func:`registry`) is what the instrumented seams use; worker
processes (``parallel_encode`` chunks) build their own registry, ship a
:meth:`~MetricsRegistry.snapshot` back over the pool, and the parent
folds it in with :meth:`~MetricsRegistry.merge`::

    snap = remote_registry.snapshot()     # plain picklable dict
    registry().merge(snap)                # counters add, histograms add

Mutation is lock-protected, so instruments are safe to share between
threads; cross-process aggregation is explicit via snapshot/merge.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "registry",
]

#: Schema identifier stamped into snapshots.
METRICS_SCHEMA = "repro.telemetry.metrics/1"

#: Default histogram bucket upper bounds (generic powers of four, useful
#: for byte/bit/point counts); callers pick their own for specific data.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Bucket preset for latencies/deadline overshoot in seconds: sub-ms to
#: 30 s, roughly logarithmic, dense where frame deadlines live (tens of
#: milliseconds) so p99/p999 estimates stay tight.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Bucket preset for queue depths and other small occupancy counts.
DEPTH_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Bucket preset for orchestrator cell wall times in seconds: cache hits
#: land in the sub-100 ms buckets, real encodes spread over the seconds
#: to minutes range up to the default per-cell timeout.
CELL_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 150.0, 600.0,
)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        with self._lock:
            self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value}

    def merge(self, data: Dict[str, Any]) -> None:
        with self._lock:
            self.value += data["value"]


class Gauge:
    """A point-in-time value (last write wins, max remembered)."""

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self.max = 0
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self.value = value
            if value > self.max:
                self.max = value

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "value": self.value, "max": self.max}

    def merge(self, data: Dict[str, Any]) -> None:
        # Merging gauges from a worker: adopt the worker's last value and
        # keep the high-water mark across both processes.
        with self._lock:
            self.value = data["value"]
            self.max = max(self.max, data.get("max", data["value"]))


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets plus overflow)."""

    kind = "histogram"

    def __init__(self, name: str,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty buckets")
        self.name = name
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.buckets) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, quantile: float) -> float:
        """Estimate the ``quantile`` (0..1) from the bucket counts.

        Linear interpolation inside the bucket that contains the target
        rank; the first bucket interpolates up from 0 and the overflow
        bucket (values above every bound) reports the last finite bound —
        the tightest claim the fixed buckets can support.
        """
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {quantile}")
        with self._lock:
            counts = list(self.counts)
            total = self.count
        if not total:
            return 0.0
        target = quantile * total
        cumulative = 0
        for index, count in enumerate(counts):
            previous = cumulative
            cumulative += count
            if cumulative >= target and count:
                if index >= len(self.buckets):
                    return float(self.buckets[-1])
                low = float(self.buckets[index - 1]) if index else 0.0
                high = float(self.buckets[index])
                fraction = (target - previous) / count
                return low + (high - low) * min(1.0, max(0.0, fraction))
        return float(self.buckets[-1])

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        return self.percentile(0.999)

    def to_dict(self) -> Dict[str, Any]:
        # The percentile summary rides along in snapshots so persisted
        # records (repro.observe) can report tail latencies without
        # re-deriving them; merge() reads only buckets/counts/count/sum.
        return {
            "kind": self.kind,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
        }

    def merge(self, data: Dict[str, Any]) -> None:
        if list(data["buckets"]) != list(self.buckets):
            raise ValueError(
                f"histogram {self.name!r} bucket mismatch: "
                f"{data['buckets']} vs {list(self.buckets)}"
            )
        with self._lock:
            for index, count in enumerate(data["counts"]):
                self.counts[index] += count
            self.count += data["count"]
            self.sum += data["sum"]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsSnapshot(dict):
    """A registry snapshot: a picklable dict with an explicit round-trip.

    Behaves exactly like the plain dict :meth:`MetricsRegistry.snapshot`
    has always returned (``{"schema": ..., "metrics": {...}}``) so
    existing merge/pickle call sites keep working, and adds the public
    :meth:`to_dict` / :meth:`from_dict` pair that persistence layers
    (:mod:`repro.observe`) use instead of reaching into instrument state.
    """

    def to_dict(self) -> Dict[str, Any]:
        """A deep plain-dict copy, safe to mutate or serialise."""
        return {
            "schema": self.get("schema", METRICS_SCHEMA),
            "metrics": {name: dict(data)
                        for name, data in self.get("metrics", {}).items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        """Validate and adopt a previously serialised snapshot dict."""
        schema = data.get("schema")
        if schema != METRICS_SCHEMA:
            raise ValueError(
                f"not a metrics snapshot: schema {schema!r} "
                f"(expected {METRICS_SCHEMA!r})"
            )
        metrics = data.get("metrics")
        if not isinstance(metrics, dict):
            raise ValueError("metrics snapshot has no 'metrics' mapping")
        for name, entry in metrics.items():
            if not isinstance(entry, dict) or entry.get("kind") not in _KINDS:
                raise ValueError(
                    f"snapshot metric {name!r} has unknown kind "
                    f"{entry.get('kind') if isinstance(entry, dict) else entry!r}"
                )
        return cls({"schema": METRICS_SCHEMA,
                    "metrics": {name: dict(entry)
                                for name, entry in metrics.items()}})


class MetricsRegistry:
    """Named instruments with a picklable snapshot/merge API."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # get-or-create accessors
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, buckets)

    def _get(self, name: str, kind, *args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, *args)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, requested {kind.__name__}"
                )
            return instrument

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._instruments)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    # ------------------------------------------------------------------
    # snapshot / merge
    # ------------------------------------------------------------------

    def snapshot(self) -> "MetricsSnapshot":
        """A picklable :class:`MetricsSnapshot` of every instrument's state."""
        with self._lock:
            instruments = dict(self._instruments)
        return MetricsSnapshot({
            "schema": METRICS_SCHEMA,
            "metrics": {name: instrument.to_dict()
                        for name, instrument in instruments.items()},
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a snapshot dict (the round-trip twin
        of ``registry.snapshot().to_dict()``)."""
        built = cls()
        built.merge(MetricsSnapshot.from_dict(data))
        return built

    def merge(self, other: Union["MetricsRegistry", Dict[str, Any]]) -> None:
        """Fold ``other`` (a registry or a snapshot dict) into this one.

        Counters and histograms add; gauges adopt the incoming value and
        keep the joint high-water mark.  Unknown names are created.
        """
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        metrics = other.get("metrics", {})
        for name, data in metrics.items():
            kind = _KINDS.get(data.get("kind"))
            if kind is None:
                raise ValueError(f"snapshot metric {name!r} has unknown kind "
                                 f"{data.get('kind')!r}")
            if kind is Histogram:
                instrument = self._get(name, Histogram, tuple(data["buckets"]))
            else:
                instrument = self._get(name, kind)
            instrument.merge(data)

    def value(self, name: str, default: Union[int, float] = 0) -> Union[int, float]:
        """Convenience: the scalar value of a counter/gauge (0 if absent)."""
        instrument = self.get(name)
        if instrument is None:
            return default
        return instrument.value


#: The process-global registry used by the instrumented seams.
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    return _registry
