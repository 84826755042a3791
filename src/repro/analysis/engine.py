"""The lint engine: file collection, rule dispatch, suppressions, baseline.

Pipeline::

    paths -> ModuleUnits -> per-module rules + project rules
          -> inline `# hdvb: disable=ID` suppressions
          -> baseline partition
          -> LintResult

Module canonicalisation: every scanned file gets a *module path* relative
to its scan root with leading ``src/`` and ``repro/`` segments stripped,
so ``hdvb-lint src/``, ``hdvb-lint src/repro`` and a test fixture tree
that mimics the package layout (``tmp/codecs/evil.py``) all address the
same rule scopes (``codecs/``, ``transport/``, ...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis import (  # noqa: F401 -- rule registration
    blocking,
    determinism,
    escapes,
    eventlog,
    parity,
    persistence,
    picklesafety,
    seams,
    sharedstate,
    spans,
    supervision,
    taint,
    taxonomy,
)
from repro.analysis.baseline import Baseline, BaselineEntry, empty_baseline
from repro.analysis.cache import LintCache, graph_key, parse_with_cache
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.rules import ModuleUnit, Project, ProjectRule, Rule, all_rules

#: Rule id reserved for files the engine cannot parse.
PARSE_RULE_ID = "HDVB100"

_PRAGMA = re.compile(r"#\s*hdvb:\s*disable=([A-Za-z0-9_,\s]+)")

#: Directory names never scanned.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", "build", "dist"}


@dataclass
class LintResult:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    suppressed: int = 0
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def stale_descriptions(self) -> List[str]:
        return [
            f"{entry.rule} {entry.module}: {entry.message}"
            for entry in self.stale_baseline
        ]


def canonical_module(relative: Path) -> str:
    """Strip leading ``src``/``repro`` wrapper segments from a posix path."""
    parts = list(relative.parts)
    for wrapper in ("src", "repro"):
        if parts and parts[0] == wrapper:
            parts.pop(0)
    return "/".join(parts) if parts else relative.name


def collect_files(paths: Sequence[str]) -> List[Tuple[Path, str, str]]:
    """Expand path arguments into (absolute, display, module) triples."""
    collected: List[Tuple[Path, str, str]] = []
    seen: Set[Path] = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            absolute = root.resolve()
            if absolute not in seen and absolute.suffix == ".py":
                seen.add(absolute)
                collected.append(
                    (absolute, str(root), canonical_module(Path(root.name)))
                )
            continue
        if not root.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in sorted(root.rglob("*.py")):
            if any(part in _SKIP_DIRS or part.startswith(".")
                   for part in candidate.relative_to(root).parts[:-1]):
                continue
            absolute = candidate.resolve()
            if absolute in seen:
                continue
            seen.add(absolute)
            relative = candidate.relative_to(root)
            collected.append(
                (absolute, str(Path(raw) / relative), canonical_module(relative))
            )
    return collected


def suppressed_ids(line: str) -> Set[str]:
    """Rule ids disabled by an inline ``# hdvb: disable=...`` pragma."""
    match = _PRAGMA.search(line)
    if not match:
        return set()
    return {token.strip() for token in match.group(1).split(",") if token.strip()}


def _is_suppressed(finding: Finding, unit: ModuleUnit) -> bool:
    ids = suppressed_ids(unit.line_text(finding.line))
    return finding.rule_id in ids or "all" in ids


def _select_rules(select: Optional[Iterable[str]],
                  ignore: Optional[Iterable[str]]) -> List[Rule]:
    rules = all_rules()
    if select:
        wanted = set(select)
        rules = [rule for rule in rules if rule.rule_id in wanted]
    if ignore:
        unwanted = set(ignore)
        rules = [rule for rule in rules if rule.rule_id not in unwanted]
    return rules


def load_units(paths: Sequence[str], cache: Optional[LintCache] = None,
               ) -> Tuple[List[ModuleUnit], dict]:
    """Load every module under ``paths``, through the content cache when
    given.  Returns the units plus the module -> content-sha map that
    keys the graph cache."""
    units: List[ModuleUnit] = []
    module_shas: dict = {}
    for absolute, display, module in collect_files(paths):
        source = absolute.read_text(encoding="utf-8")
        tree, sha = parse_with_cache(cache, source)
        units.append(ModuleUnit(
            path=absolute,
            display_path=display,
            module=module,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        ))
        module_shas[module] = sha
    return units, module_shas


def prepare_project(units: List[ModuleUnit], module_shas: dict,
                    cache: Optional[LintCache]) -> Tuple[Project, str]:
    """A :class:`Project` with the cached whole-program graph injected
    when the content key matches; returns the key for the save side."""
    project = Project(units=units)
    key = graph_key(module_shas)
    if cache is not None:
        cached = cache.load_graph(key)
        if cached is not None:
            project.set_graph(cached)
    return project, key


def save_cache(project: Project, key: str, module_shas: dict,
               cache: Optional[LintCache]) -> None:
    """Persist a freshly built graph and prune dead entries."""
    if cache is None:
        return
    graph = project.cached_graph()
    if graph is not None and not cache.graph_hit:
        cache.store_graph(key, graph)
    cache.prune(sorted(set(module_shas.values())), key)


def run(paths: Sequence[str], *,
        baseline: Optional[Baseline] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        cache: Optional[LintCache] = None,
        changed_modules: Optional[Set[str]] = None) -> LintResult:
    """Lint ``paths`` and return the full result.

    ``changed_modules`` — when given — scopes *per-module* rules to those
    canonical modules (the ``--changed-only`` pre-commit mode); project
    rules still see the whole tree, so interprocedural findings stay
    sound, and parse failures are always reported.
    """
    baseline = baseline if baseline is not None else empty_baseline()
    rules = _select_rules(select, ignore)
    raw_findings: List[Finding] = []
    units, module_shas = load_units(paths, cache)
    units_by_module = {}
    for unit in units:
        units_by_module[unit.module] = unit
        if unit.tree is None:
            raw_findings.append(Finding(
                rule_id=PARSE_RULE_ID,
                path=unit.display_path,
                module=unit.module,
                line=1,
                message="file does not parse as Python; no rule can check it",
                hint="fix the syntax error",
            ))

    project, key = prepare_project(units, module_shas, cache)
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw_findings.extend(rule.check_project(project))
        else:
            for unit in units:
                if (changed_modules is not None
                        and unit.module not in changed_modules):
                    continue
                raw_findings.extend(rule.check(unit))
    save_cache(project, key, module_shas, cache)

    kept: List[Finding] = []
    suppressed = 0
    for finding in raw_findings:
        unit = units_by_module.get(finding.module)
        if unit is not None and _is_suppressed(finding, unit):
            suppressed += 1
            continue
        kept.append(finding)

    fresh, matched, stale = baseline.split(kept)
    return LintResult(
        findings=sort_findings(fresh),
        baselined=sort_findings(matched),
        stale_baseline=stale,
        suppressed=suppressed,
        files_scanned=len(units),
    )


class ChangedOnlyError(Exception):
    """``--changed-only`` could not determine the changed files."""


def git_changed_modules(ref: str) -> Set[str]:
    """Canonical modules of .py files changed vs ``ref`` plus untracked.

    Raises :class:`ChangedOnlyError` when git is unavailable or the ref
    does not resolve — ``--changed-only`` must fail loudly rather than
    silently lint nothing.
    """
    import subprocess
    commands = (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    names: List[str] = []
    for command in commands:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as error:
            detail = getattr(error, "stderr", "") or str(error)
            raise ChangedOnlyError(
                f"--changed-only: `{' '.join(command)}` failed: "
                f"{detail.strip()}") from error
        names.extend(proc.stdout.splitlines())
    return {
        canonical_module(Path(name.strip()))
        for name in names
        if name.strip().endswith(".py")
    }
