"""The history store's gates: one evaluator, two policy kinds.

:func:`evaluate` serves ``hdvb-observe gate`` and ``slo`` with one walk
of the store; the kinds differ in which records they judge and how.

**Drift** (:class:`MetricPolicy`, OBS201–207) asks *did this run move
against its own history*.  For every (bench, axis) group the newest
record is compared against a **rolling median baseline** of the
previous ``window`` records.  A metric regresses when it moves against
its good direction by more than the larger of

* the policy threshold (the paper-level tolerances: throughput drop
  > 10 %, PSNR drop > 0.1 dB, bitrate growth > 2 %), and
* the noise band ``mad_sigmas * 1.4826 * MAD`` of the baseline —
  the robust analogue of k-sigma, so an axis whose history is naturally
  jittery is not flagged for ordinary jitter while a quiet axis still
  trips on small, real shifts.

**Burn** (:class:`SloObjective`, OBS300–302) asks the service-level
question: *is the system meeting its stated objectives over time*?  An
objective is a bound on one observe-store metric over a trailing window
of records — the reproduction's stand-ins for SRE service-level
objectives, e.g. the paper's real-time line (decode fps >= 25 at 720p)
or the origin's deadline discipline (miss rate <= 2%).  Specs are
schema-versioned documents (``repro.observe.slo/1``)::

    {"schema": "repro.observe.slo/1",
     "objectives": [
       {"name": "serve-deadline-miss", "bench": "serve",
        "metric": "deadline_miss_rate", "objective": 0.02,
        "direction": "max", "window": 8, "fast_window": 2,
        "budget": 0.25, "burn_threshold": 2.0}]}

Evaluation follows the multi-window burn-rate pattern: each window's
**burn rate** is the fraction of violating records divided by the error
``budget`` (the tolerated violating fraction).  Burn 1.0 consumes the
budget exactly; a *fast* window burning at ``burn_threshold`` while the
*slow* window also burns ≥ 1.0 pages (OBS301) — that combination means
the breach is both severe and sustained, the standard defence against
paging on a single bad record.  Exhausting the slow-window budget
outright is OBS302; the newest record simply violating the bound is
OBS300 (informational severity ordering: 300 < 301 < 302 numerically,
reported together).

The two kinds keep separate window rules on purpose.  Drift judges the
newest record of a group and skips the group when that record lacks
the metric: a resumed orchestrate run leaves its rates out, and judging
the newest record that *carries* them would flag the earlier run again.
Burn judges the trailing records that carry the metric.

Findings are reported through the shared
:class:`repro.analysis.findings.Finding` record, so the lint reporters
(human and ``repro.analysis.findings/1`` JSON) and the 0/1/2 exit-code
convention apply unchanged.  The whole pass is pure arithmetic over the
stored records: the same history yields the same findings, bit for bit.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding, sort_findings
from repro.errors import ObserveError
from repro.observe.record import BenchRecord
from repro.observe.store import HistoryStore

#: Consistent-estimator factor: MAD * 1.4826 estimates one sigma for
#: normally distributed noise.
MAD_SIGMA_FACTOR = 1.4826

#: Schema of one SLO spec document.
SLO_SCHEMA = "repro.observe.slo/1"


def median(values: Sequence[float]) -> float:
    if not values:
        raise ObserveError("median of an empty sequence")
    return statistics.median(values)


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation from the median."""
    centre = median(values)
    return median([abs(value - centre) for value in values])


def _shortfall(value: float, reference: float, higher_is_good: bool) -> float:
    """How far ``value`` sits on the bad side of ``reference``."""
    return reference - value if higher_is_good else value - reference


def _finding(rule_id: str, location: str, bench: str, axis_key: str,
             message: str, hint: str) -> Finding:
    return Finding(rule_id=rule_id, path=location,
                   module=f"{bench}:{axis_key}", line=0,
                   message=message, hint=hint)


def _require(owner: str, minimum: float, integer: bool = False,
             **values: Any) -> None:
    """Reject non-numbers, bools, NaN, infinities and values below
    ``minimum``.  Thresholds and windows arrive from CLI flags and spec
    files: a NaN compares false with everything and would silently flip
    a verdict, and a window of 2.9 or ``true`` must not be truncated."""
    kind = "an integer" if integer else "a finite number"
    for name, value in values.items():
        if (isinstance(value, bool)
                or not isinstance(value, int if integer else (int, float))
                or not -math.inf < value < math.inf or value < minimum):
            raise ObserveError(
                f"{owner} {name} must be {kind} >= {minimum:g}, "
                f"got {value!r}")


#: What ``check`` returns: the burn status (or ``None``), the findings.
Verdict = Tuple[Optional["SloStatus"], List[Finding]]


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric is gated for drift.

    ``direction`` is the *good* direction: ``"higher"`` metrics regress
    by dropping, ``"lower"`` metrics by growing.  ``relative`` thresholds
    are fractions of the baseline median; absolute thresholds are in the
    metric's own unit.  ``window`` baseline records precede the newest
    one; ``mad_sigmas`` is the noise band width in robust sigmas.
    """

    metric: str
    rule_id: str
    direction: str            # "higher" | "lower"
    threshold: float
    relative: bool
    unit: str = ""
    window: int = 5
    mad_sigmas: float = 3.0

    def __post_init__(self) -> None:
        owner = f"policy {self.metric!r}"
        _require(owner, 1, integer=True, window=self.window)
        _require(owner, 0.0, threshold=self.threshold,
                 mad_sigmas=self.mad_sigmas)

    def limit(self, baseline_median: float) -> float:
        if self.relative:
            return self.threshold * abs(baseline_median)
        return self.threshold

    def check(self, bench: str, axis_key: str,
              history: Sequence[BenchRecord], location: str) -> Verdict:
        """Judge the newest record against the ``window`` before it."""
        newest = history[-1]
        baseline = [record.metrics[self.metric]
                    for record in history[-1 - self.window:-1]
                    if self.metric in record.metrics]
        if self.metric not in newest.metrics or not baseline:
            return None, []
        centre = median(baseline)
        noise = self.mad_sigmas * MAD_SIGMA_FACTOR * mad(baseline)
        value = newest.metrics[self.metric]
        higher_is_good = self.direction == "higher"
        move = _shortfall(value, centre, higher_is_good)
        tolerance = max(self.limit(centre), noise)
        if move <= tolerance:
            return None, []
        verb = "dropped" if higher_is_good else "grew"
        unit = f" {self.unit}" if self.unit else ""
        if self.relative and centre:
            amount = f"{abs(move) / abs(centre) * 100.0:.1f}%"
        else:
            amount = f"{abs(move):.3f}{unit}"
        return None, [_finding(
            self.rule_id, location, bench, axis_key,
            f"{bench} [{axis_key}] {self.metric} {verb} "
            f"{amount}: {value:.3f}{unit} vs rolling median {centre:.3f}{unit} "
            f"over {len(baseline)} run(s) "
            f"(tolerance {tolerance:.3f}{unit}, run {newest.run_id})",
            "confirm with a re-run; if the shift is intended, let the new "
            "level enter the rolling baseline (or compact the old history)",
        )]


#: The default gate: the three headline tolerances, plus the
#: resilience-rate and concealment-quality analogues so the robustness
#: and streaming benches gate through the same machinery.
DEFAULT_POLICIES: Tuple[MetricPolicy, ...] = (
    MetricPolicy("fps", "OBS201", "higher", 0.10, relative=True, unit="fps"),
    MetricPolicy("psnr_db", "OBS202", "higher", 0.1, relative=False, unit="dB"),
    MetricPolicy("bitrate_kbps", "OBS203", "lower", 0.02, relative=True,
                 unit="kbit/s"),
    MetricPolicy("graceful_rate", "OBS204", "higher", 0.02, relative=False),
    MetricPolicy("conceal_rate", "OBS204", "higher", 0.02, relative=False),
    MetricPolicy("complete_rate", "OBS204", "higher", 0.02, relative=False),
    MetricPolicy("fec_recovery_rate", "OBS204", "higher", 0.02, relative=False),
    MetricPolicy("mean_psnr_delta_db", "OBS205", "higher", 0.1, relative=False,
                 unit="dB"),
    # OBS206: the streaming-origin serve gate.  Rates are absolute
    # fractions; throughput and tail latency are relative to the rolling
    # median.  ``unhandled_escapes`` has zero tolerance — one task
    # escaping raw is a regression by definition.
    MetricPolicy("deadline_miss_rate", "OBS206", "lower", 0.02,
                 relative=False),
    MetricPolicy("p99_miss_seconds", "OBS206", "lower", 0.25, relative=True,
                 unit="s"),
    MetricPolicy("shed_rate", "OBS206", "lower", 0.02, relative=False),
    MetricPolicy("sessions_per_second", "OBS206", "higher", 0.10,
                 relative=True),
    MetricPolicy("unhandled_escapes", "OBS206", "lower", 0.0,
                 relative=False),
    # OBS207: the orchestrator run gate.  ``cell_failure_rate`` has zero
    # tolerance — a matrix with newly failing cells is a regression even
    # when the rest speeds up.  ``cache_hit_rate`` guards the artifact
    # cache's economy (a rerun of an unchanged spec should hit ~always);
    # ``cells_per_second`` guards orchestration throughput relative to
    # the rolling median.
    MetricPolicy("cell_failure_rate", "OBS207", "lower", 0.0,
                 relative=False),
    MetricPolicy("cache_hit_rate", "OBS207", "higher", 0.05,
                 relative=False),
    MetricPolicy("cells_per_second", "OBS207", "higher", 0.10,
                 relative=True),
)


@dataclass(frozen=True)
class SloObjective:
    """One service-level objective over an observe-store metric.

    ``direction`` is the side the bound sits on: ``"max"`` means the
    metric must stay at or below ``objective`` (a miss-rate ceiling),
    ``"min"`` means at or above (an fps floor).  ``axes`` filters the
    records the objective applies to (subset match on the record's
    axes); empty applies to every axis group of ``bench``.
    """

    name: str
    bench: str
    metric: str
    objective: float
    direction: str = "max"            # "max" | "min"
    #: Trailing records in the slow window.
    window: int = 8
    #: Trailing records in the fast window.
    fast_window: int = 2
    #: Fraction of a window's records allowed to violate the objective.
    budget: float = 0.25
    #: Fast-window burn rate that, combined with slow burn >= 1, alerts.
    burn_threshold: float = 2.0
    axes: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ObserveError("SLO objective needs a non-empty name")
        if not self.bench or not self.metric:
            raise ObserveError(
                f"SLO {self.name!r} needs both a bench and a metric")
        if self.direction not in ("max", "min"):
            raise ObserveError(
                f"SLO {self.name!r} direction must be 'max' or 'min', "
                f"got {self.direction!r}")
        owner = f"SLO {self.name!r}"
        _require(owner, 1, integer=True, window=self.window,
                 fast_window=self.fast_window)
        if self.fast_window > self.window:
            raise ObserveError(
                f"SLO {self.name!r} fast_window ({self.fast_window}) "
                f"cannot exceed window ({self.window})")
        if not 0.0 < self.budget <= 1.0:
            raise ObserveError(
                f"SLO {self.name!r} budget must be in (0, 1], "
                f"got {self.budget}")
        _require(owner, -math.inf, objective=self.objective)
        _require(owner, 1.0, burn_threshold=self.burn_threshold)

    def violates(self, value: float) -> bool:
        return _shortfall(value, self.objective, self.direction == "min") > 0

    @property
    def bound_text(self) -> str:
        sign = "<=" if self.direction == "max" else ">="
        return f"{self.metric} {sign} {self.objective:g}"

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SloObjective":
        if not isinstance(data, Mapping):
            raise ObserveError(
                f"SLO objective must be an object, got {type(data).__name__}")
        unknown = set(data) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ObserveError(
                f"SLO objective has unknown keys: {sorted(unknown)}")
        # Absent optional keys take the field defaults; windows pass
        # through unconverted for ``__post_init__`` to check.
        values = {**{spec.name: spec.default for spec in fields(cls)
                     if spec.default is not MISSING}, **data}
        try:
            return cls(
                name=str(values["name"]),
                bench=str(values["bench"]),
                metric=str(values["metric"]),
                objective=float(values["objective"]),
                direction=str(values["direction"]),
                window=values["window"],
                fast_window=values["fast_window"],
                budget=float(values["budget"]),
                burn_threshold=float(values["burn_threshold"]),
                axes=dict(values.get("axes", {})),
            )
        except KeyError as error:
            raise ObserveError(
                f"SLO objective missing required key {error.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as error:
            raise ObserveError(f"malformed SLO objective: {error}") from None

    def _burn(self, records: Sequence[BenchRecord]) -> Tuple[int, float]:
        violations = sum(1 for record in records
                         if self.violates(record.metrics[self.metric]))
        return violations, (violations / len(records)) / self.budget

    def check(self, bench: str, axis_key: str,
              history: Sequence[BenchRecord], location: str) -> Verdict:
        """Judge the trailing records that carry the metric and match
        ``axes``."""
        if bench != self.bench:
            return None, []
        considered = [
            record for record in history
            if self.metric in record.metrics
            and all(str(record.axes.get(key)) == str(value)
                    for key, value in self.axes.items())
        ]
        if not considered:
            return None, []
        slow = considered[-self.window:]
        violations, slow_burn = self._burn(slow)
        fast_violations, fast_burn = self._burn(
            considered[-self.fast_window:])
        newest = considered[-1]
        status = SloStatus(
            objective=self,
            axis_key=axis_key,
            records=len(slow),
            violations=violations,
            fast_violations=fast_violations,
            slow_burn=slow_burn,
            fast_burn=fast_burn,
            latest_value=newest.metrics[self.metric],
            latest_run=newest.run_id,
        )
        rules = (
            ("OBS300", self.violates(status.latest_value),
             f"SLO {self.name}: latest record violates "
             f"{self.bound_text} (value {status.latest_value:.4g}, "
             f"run {status.latest_run})",
             "a single violation spends budget; watch the burn rate"),
            ("OBS301", fast_burn >= self.burn_threshold and slow_burn >= 1.0,
             f"SLO {self.name}: burn-rate alert — fast window "
             f"burning at {fast_burn:.2f}x "
             f"(threshold {self.burn_threshold:g}x) while the "
             f"slow window burns at {slow_burn:.2f}x "
             f"({violations}/{status.records} records violate "
             f"{self.bound_text})",
             "a severe AND sustained breach: fix the regression or "
             "re-negotiate the objective"),
            ("OBS302", status.breached,
             f"SLO {self.name}: error budget exhausted — "
             f"{violations}/{status.records} trailing records "
             f"violate {self.bound_text} "
             f"(budget {self.budget:.0%} of the window, "
             f"burn {slow_burn:.2f}x)",
             "freeze risky changes until the trailing window is back "
             "inside budget"),
        )
        return status, [_finding(rule_id, location, bench, axis_key,
                                 message, hint)
                        for rule_id, fired, message, hint in rules if fired]


#: The default objectives: the origin's deadline discipline, the paper's
#: 25 fps real-time line at the 720p tier, and graceful degradation.
DEFAULT_SLOS: Tuple[SloObjective, ...] = (
    SloObjective(name="serve-deadline-miss", bench="serve",
                 metric="deadline_miss_rate", objective=0.02,
                 direction="max"),
    SloObjective(name="serve-graceful", bench="serve",
                 metric="graceful_rate", objective=0.98, direction="min"),
    SloObjective(name="decode-realtime-720p", bench="performance",
                 metric="fps", objective=25.0, direction="min",
                 axes={"operation": "decode", "resolution": "720p25"}),
)


def load_slo_spec(path: str) -> Tuple[SloObjective, ...]:
    """Parse and validate a ``repro.observe.slo/1`` spec file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise ObserveError(f"cannot read SLO spec {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ObserveError(
            f"SLO spec {path} is not valid JSON: {error}") from None
    if not isinstance(document, dict):
        raise ObserveError(f"SLO spec {path} must be a JSON object")
    schema = document.get("schema")
    if schema != SLO_SCHEMA:
        raise ObserveError(
            f"SLO spec {path} has schema {schema!r}, expected {SLO_SCHEMA!r}")
    objectives = document.get("objectives")
    if not isinstance(objectives, list) or not objectives:
        raise ObserveError(
            f"SLO spec {path} needs a non-empty 'objectives' list")
    parsed = tuple(SloObjective.from_dict(entry) for entry in objectives)
    names = [objective.name for objective in parsed]
    if len(set(names)) != len(names):
        raise ObserveError(f"SLO spec {path} has duplicate objective names")
    return parsed


@dataclass(frozen=True)
class SloStatus:
    """The evaluated state of one objective on one axis group."""

    objective: SloObjective
    axis_key: str
    records: int                  #: records considered (<= window)
    violations: int               #: violating records in the slow window
    fast_violations: int          #: violating records in the fast window
    slow_burn: float              #: violating fraction / budget, slow
    fast_burn: float              #: violating fraction / budget, fast
    latest_value: float
    latest_run: str

    @property
    def budget_remaining(self) -> float:
        """Fraction of the slow-window error budget still unspent."""
        return max(0.0, 1.0 - self.slow_burn)

    @property
    def breached(self) -> bool:
        return self.slow_burn > 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective.name,
            "bound": self.objective.bound_text,
            "axis": self.axis_key,
            "records": self.records,
            "violations": self.violations,
            "fast_violations": self.fast_violations,
            "slow_burn": round(self.slow_burn, 6),
            "fast_burn": round(self.fast_burn, 6),
            "budget_remaining": round(self.budget_remaining, 6),
            "latest_value": self.latest_value,
            "latest_run": self.latest_run,
        }


def evaluate(store: HistoryStore,
             policies: Sequence[Union[MetricPolicy, SloObjective]],
             bench: Optional[str] = None,
             ) -> Tuple[List[SloStatus], List[Finding], int]:
    """Walk the store once and hand every group to every policy.

    Returns the burn statuses in policy-then-group order (the SLO
    table's row order), the sorted findings, and the number of (bench,
    axis) groups walked.  An empty store is a clean store: there is no
    baseline to drift from and no budget to burn.
    """
    location = str(store.path)
    groups = sorted(store.history_per_axis(bench).items())
    statuses: List[SloStatus] = []
    findings: List[Finding] = []
    for policy in policies:
        for (group_bench, axis_key), history in groups:
            status, found = policy.check(group_bench, axis_key, history,
                                         location)
            if status is not None:
                statuses.append(status)
            findings.extend(found)
    return statuses, sort_findings(findings), len(groups)


def render_slo_table(statuses: Sequence[SloStatus]) -> str:
    """Fixed-width human summary, one row per (objective, axis)."""
    if not statuses:
        return "no SLO-relevant records in the store\n"
    headers = ("objective", "axis", "bound", "n", "viol", "fast",
               "slow-burn", "budget-left", "latest")
    rows: List[Tuple[str, ...]] = [headers]
    for status in statuses:
        rows.append((
            status.objective.name,
            status.axis_key or "-",
            status.objective.bound_text,
            str(status.records),
            str(status.violations),
            str(status.fast_violations),
            f"{status.slow_burn:.2f}x",
            f"{status.budget_remaining:.0%}",
            f"{status.latest_value:.4g}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    rows.insert(1, tuple("-" * width for width in widths))
    return "".join("  ".join(cell.ljust(width)
                             for cell, width in zip(row, widths)) + "\n"
                   for row in rows)


def slo_document(statuses: Sequence[SloStatus],
                 findings: Sequence[Finding]) -> Dict[str, Any]:
    """The JSON evaluation report (statuses plus findings)."""
    return {
        "schema": SLO_SCHEMA,
        "statuses": [status.to_dict() for status in statuses],
        "findings": [finding.to_dict() for finding in findings],
    }

