"""Content-hash cache for parsed ASTs and the whole-program call graph.

``hdvb-lint --cache .hdvb-lint-cache/`` keys every artifact by content,
never by path or mtime:

* one ``ast/<sha256>.pkl`` per distinct file content — a re-lint with
  unchanged files skips ``ast.parse`` entirely;
* one ``graph/<sha256>.pkl`` for the whole-program call graph, keyed by
  the sha256 over the sorted ``module:file-sha`` pairs of every parsed
  module — any edit to any file changes the key, so a cached graph can
  never be stale by construction.

The graph pickles without AST nodes (every rule-relevant datum is
precomputed onto :class:`~repro.analysis.graph.FunctionNode`), so a warm
run serves HDVB200-203 from the cache alone.  Writes go through
:func:`repro.chaos.fsops.atomic_write` so a crashed lint never leaves a
torn pickle; a write that fails, or an entry that fails to unpickle, is
a cache miss.
Entries for contents no longer referenced are pruned on save, keeping
the directory proportional to the tree.
"""

from __future__ import annotations

import ast
import hashlib
import pickle
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.graph import CallGraph
from repro.chaos.fsops import atomic_write

DEFAULT_CACHE_DIR = ".hdvb-lint-cache"

#: Bumped whenever the pickled shapes change; part of every key.
CACHE_VERSION = "1"


def file_sha(content: bytes) -> str:
    return hashlib.sha256(
        CACHE_VERSION.encode("ascii") + b"\x00" + content).hexdigest()


def graph_key(module_shas: Dict[str, str]) -> str:
    digest = hashlib.sha256()
    digest.update(CACHE_VERSION.encode("ascii"))
    for module in sorted(module_shas):
        digest.update(b"\x00")
        digest.update(module.encode("utf-8"))
        digest.update(b":")
        digest.update(module_shas[module].encode("ascii"))
    return digest.hexdigest()


class LintCache:
    """The on-disk cache; every method tolerates a missing/corrupt dir."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.ast_hits = 0
        self.ast_misses = 0
        self.graph_hit = False

    # -- parsed trees -------------------------------------------------------

    def _ast_path(self, sha: str) -> Path:
        return self.root / "ast" / f"{sha}.pkl"

    def load_tree(self, sha: str) -> Optional[ast.Module]:
        try:
            payload = self._ast_path(sha).read_bytes()
            tree = pickle.loads(payload)
        except (OSError, pickle.PickleError, ValueError, EOFError,
                AttributeError):
            self.ast_misses += 1
            return None
        if not isinstance(tree, ast.Module):
            self.ast_misses += 1
            return None
        self.ast_hits += 1
        return tree

    def store_tree(self, sha: str, tree: ast.Module) -> None:
        try:
            atomic_write(self._ast_path(sha),
                         pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL))
        except OSError:
            pass        # a read-only cache degrades to a slow lint

    # -- the whole-program graph --------------------------------------------

    def _graph_path(self, key: str) -> Path:
        return self.root / "graph" / f"{key}.pkl"

    def load_graph(self, key: str) -> Optional[CallGraph]:
        try:
            payload = self._graph_path(key).read_bytes()
            graph = pickle.loads(payload)
        except (OSError, pickle.PickleError, ValueError, EOFError,
                AttributeError):
            return None
        if not isinstance(graph, CallGraph):
            return None
        self.graph_hit = True
        return graph

    def store_graph(self, key: str, graph: CallGraph) -> None:
        try:
            atomic_write(
                self._graph_path(key),
                pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))
        except OSError:
            pass

    # -- hygiene ------------------------------------------------------------

    def prune(self, live_shas: List[str], live_graph_key: str) -> None:
        """Drop entries no current file content references."""
        keep_ast = {f"{sha}.pkl" for sha in live_shas}
        self._prune_dir(self.root / "ast", keep_ast)
        self._prune_dir(self.root / "graph", {f"{live_graph_key}.pkl"})

    @staticmethod
    def _prune_dir(directory: Path, keep: set) -> None:
        try:
            entries = sorted(directory.iterdir())
        except OSError:
            return
        for entry in entries:
            if entry.name.endswith(".pkl") and entry.name not in keep:
                try:
                    entry.unlink()
                except OSError:
                    pass


def parse_with_cache(cache: Optional[LintCache], source: str,
                     ) -> Tuple[Optional[ast.Module], str]:
    """(tree, content sha) — through ``cache`` when given."""
    content = source.encode("utf-8")
    sha = file_sha(content)
    if cache is not None:
        tree = cache.load_tree(sha)
        if tree is not None:
            return tree, sha
    try:
        parsed: Optional[ast.Module] = ast.parse(source)
    except SyntaxError:
        return None, sha
    if cache is not None:
        cache.store_tree(sha, parsed)
    return parsed, sha
