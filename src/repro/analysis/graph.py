"""The whole-program import/call graph behind the HDVB2xx rule tier.

The HDVB1xx rules are *local*: they flag an unseeded RNG draw, a builtin
``raise`` or a bare ``create_task`` at the line where it appears.  They
cannot see a deterministic codec path calling a helper one module away
that reads the wall clock, or a coroutine whose third-hop callee blocks
the event loop.  This module closes that gap: it builds one deterministic
call graph over the already-parsed :class:`~repro.analysis.rules.ModuleUnit`
tree, which the :mod:`repro.analysis.flow` fixed-point engine then
propagates per-function facts across.

Resolution strategy (honest by construction):

* names resolve through each module's import-alias maps, including
  relative imports and ``import repro.telemetry as telemetry`` forms;
* methods resolve by class when the receiver's class is statically
  known — ``self.m()`` / ``cls.m()`` inside a class (following statically
  resolvable project base classes), ``ClassName.m()``, ``ClassName().m()``
  and ``obj.m()`` where ``obj = ClassName(...)`` in the same function;
* everything else lands in an explicit **unresolved bucket** that the
  graph export reports — the tier never pretends an edge it cannot prove.

Per-function side tables (``raises``, ``writes``, call-site ``handled``
exception context, bare-function-reference arguments) are extracted in
the same pass so the graph pickles without AST nodes and the HDVB200-203
rules run from the cached graph alone.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleUnit, Project, Rule

GRAPH_SCHEMA = "repro.analysis.graph/1"

#: Pseudo-function name for a module's top-level (import-time) code.
MODULE_BODY = "<module>"

#: Names bound by the builtins module (``open``, ``print``, ...).
_BUILTIN_NAMES = frozenset(dir(builtins))

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "appendleft", "extendleft",
})


def module_key(canonical: str) -> str:
    """Dotted import key for a canonical module path.

    ``origin/session.py`` -> ``origin.session``; a package ``__init__``
    maps to the package itself (``telemetry/__init__.py`` ->
    ``telemetry``); the tree root ``__init__.py`` maps to ``""``.
    """
    path = canonical[:-3] if canonical.endswith(".py") else canonical
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    if path == "__init__":
        return ""
    return path.replace("/", ".")


def normalize_import(dotted: str) -> str:
    """Strip the ``repro``/``src.repro`` wrapper a real tree imports with,
    mirroring :func:`repro.analysis.engine.canonical_module` for paths."""
    for prefix in ("src.repro.", "repro."):
        if dotted.startswith(prefix):
            return dotted[len(prefix):]
    if dotted in ("repro", "src.repro"):
        return ""
    return dotted


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function."""

    line: int
    col: int
    text: str                       #: the call as written (``aio.create_task``)
    target: Optional[str] = None    #: qualname of a project function/method
    external: Optional[str] = None  #: resolved external dotted name
    handled: Tuple[str, ...] = ()   #: exception names caught around this call
    func_args: Tuple[str, ...] = ()  #: project functions passed/invoked as args

    @property
    def unresolved(self) -> bool:
        return self.target is None and self.external is None


@dataclass(frozen=True)
class RaiseSite:
    """One ``raise Name(...)`` statement inside a function."""

    name: str                       #: exception name as written
    line: int
    handled: Tuple[str, ...] = ()   #: exception names caught around it


@dataclass(frozen=True)
class GlobalWrite:
    """One write to a module-level name from inside a function."""

    module: str                     #: canonical module owning the global
    name: str
    line: int
    op: str                         #: assign/augassign/subscript/attr/method:x


@dataclass
class FunctionNode:
    """One function, method or module body in the graph."""

    qualname: str                   #: ``module.py::Class.method``
    module: str
    name: str                       #: ``Class.method`` / ``func`` / ``<module>``
    line: int
    is_async: bool = False
    synthetic: bool = False         #: implicit constructor, no source body
    calls: List[CallSite] = field(default_factory=list)
    raises: Tuple[RaiseSite, ...] = ()
    writes: Tuple[GlobalWrite, ...] = ()

    @property
    def is_public(self) -> bool:
        if self.name == MODULE_BODY:
            return False
        for segment in self.name.split("."):
            if segment.startswith("__") and segment.endswith("__"):
                continue
            if segment.startswith("_"):
                return False
        return True


class CallGraph:
    """The resolved whole-program graph plus its honesty accounting."""

    def __init__(self, functions: Dict[str, FunctionNode],
                 modules: List[str]) -> None:
        self.functions = functions
        self.modules = modules
        self._callers: Optional[Dict[str, List[Tuple[str, CallSite]]]] = None

    # -- derived views ------------------------------------------------------

    def callers(self) -> Dict[str, List[Tuple[str, CallSite]]]:
        """callee qualname -> [(caller qualname, site)], deterministic."""
        if self._callers is None:
            callers: Dict[str, List[Tuple[str, CallSite]]] = {}
            for qualname in sorted(self.functions):
                for site in self.functions[qualname].calls:
                    if site.target is not None:
                        callers.setdefault(site.target, []).append(
                            (qualname, site))
            self._callers = callers
        return self._callers

    def internal_edges(self) -> List[Tuple[str, str]]:
        edges = {
            (qualname, site.target)
            for qualname, node in self.functions.items()
            for site in node.calls
            if site.target is not None
        }
        return sorted(edges)

    def unresolved_sites(self) -> List[Tuple[str, CallSite]]:
        return [
            (qualname, site)
            for qualname in sorted(self.functions)
            for site in self.functions[qualname].calls
            if site.unresolved
        ]

    def counts(self) -> Dict[str, int]:
        internal = external = unresolved = 0
        for node in self.functions.values():
            for site in node.calls:
                if site.target is not None:
                    internal += 1
                elif site.external is not None:
                    external += 1
                else:
                    unresolved += 1
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "internal_calls": internal,
            "external_calls": external,
            "unresolved_calls": unresolved,
        }

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Forward closure over internal edges from ``roots``."""
        seen: Set[str] = set()
        stack = [root for root in sorted(set(roots)) if root in self.functions]
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            for site in self.functions[qualname].calls:
                if site.target is not None and site.target not in seen:
                    stack.append(site.target)
        return seen

    # -- exports ------------------------------------------------------------

    def to_document(self) -> Dict[str, Any]:
        """The ``repro.analysis.graph/1`` JSON document."""
        counts = self.counts()
        return {
            "schema": GRAPH_SCHEMA,
            "modules": list(self.modules),
            "functions": [
                {
                    "qualname": node.qualname,
                    "module": node.module,
                    "name": node.name,
                    "line": node.line,
                    "async": node.is_async,
                    "synthetic": node.synthetic,
                    "calls": len(node.calls),
                }
                for _, node in sorted(self.functions.items())
            ],
            "edges": [list(edge) for edge in self.internal_edges()],
            "unresolved": {
                "count": counts["unresolved_calls"],
                "sites": [
                    {"function": qualname, "line": site.line,
                     "text": site.text}
                    for qualname, site in self.unresolved_sites()
                ],
            },
            "summary": counts,
        }

    def to_dot(self) -> str:
        """A Graphviz rendering of the internal edges, clustered by module."""
        def quote(text: str) -> str:
            return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph hdvb_callgraph {", "  rankdir=LR;",
                 "  node [shape=box, fontsize=10];"]
        by_module: Dict[str, List[FunctionNode]] = {}
        for node in self.functions.values():
            by_module.setdefault(node.module, []).append(node)
        for index, module in enumerate(sorted(by_module)):
            lines.append(f"  subgraph cluster_{index} {{")
            lines.append(f"    label={quote(module)};")
            for node in sorted(by_module[module], key=lambda n: n.qualname):
                shape = ", style=dashed" if node.synthetic else ""
                asyncness = " (async)" if node.is_async else ""
                lines.append(
                    f"    {quote(node.qualname)} "
                    f"[label={quote(node.name + asyncness)}{shape}];"
                )
            lines.append("  }")
        for caller, callee in self.internal_edges():
            lines.append(f"  {quote(caller)} -> {quote(callee)};")
        lines.append("}")
        return "\n".join(lines)


def finding_at(rule: Rule, project: Project, module: str, line: int,
               message: str, hint: str = "") -> Finding:
    """A finding anchored in ``module`` with the unit's display path."""
    unit = project.find(module)
    return Finding(
        rule_id=rule.rule_id,
        path=unit.display_path if unit is not None else module,
        module=module,
        line=line,
        message=message,
        hint=hint or rule.hint,
    )


# ---------------------------------------------------------------------------
# symbol tables


@dataclass
class _ClassInfo:
    name: str
    module: str                     #: canonical module defining the class
    line: int
    methods: Dict[str, str]         #: method name -> qualname
    async_methods: Set[str]
    bases: List[str]                #: base expressions as dotted text


@dataclass
class _ModuleSymbols:
    canonical: str
    key: str
    is_package: bool
    functions: Dict[str, str]       #: top-level def name -> qualname
    async_functions: Set[str]
    classes: Dict[str, _ClassInfo]
    import_modules: Dict[str, str]  #: alias -> dotted module
    import_names: Dict[str, Tuple[str, str]]   #: name -> (module, original)
    module_globals: Set[str]        #: names assigned at module level

    @property
    def package(self) -> str:
        if self.is_package:
            return self.key
        return self.key.rsplit(".", 1)[0] if "." in self.key else ""


def _collect_symbols(unit: ModuleUnit) -> _ModuleSymbols:
    assert unit.tree is not None
    key = module_key(unit.module)
    is_package = (unit.module.endswith("/__init__.py")
                  or unit.module == "__init__.py")
    symbols = _ModuleSymbols(
        canonical=unit.module, key=key, is_package=is_package,
        functions={}, async_functions=set(), classes={},
        import_modules={}, import_names={}, module_globals=set(),
    )
    for node in unit.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols.functions[node.name] = f"{unit.module}::{node.name}"
            if isinstance(node, ast.AsyncFunctionDef):
                symbols.async_functions.add(node.name)
        elif isinstance(node, ast.ClassDef):
            info = _ClassInfo(
                name=node.name, module=unit.module, line=node.lineno,
                methods={}, async_methods=set(),
                bases=[text for text in
                       (_dotted_text(base) for base in node.bases)
                       if text is not None],
            )
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info.methods[item.name] = (
                        f"{unit.module}::{node.name}.{item.name}"
                    )
                    if isinstance(item, ast.AsyncFunctionDef):
                        info.async_methods.add(item.name)
            symbols.classes[node.name] = info
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name_node in _target_names(target):
                    symbols.module_globals.add(name_node)
    # Import maps cover function-level imports too (worker entry points
    # import telemetry lazily); attribute them module-wide.
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    symbols.import_modules[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    symbols.import_modules[root] = root
        elif isinstance(node, ast.ImportFrom):
            source = _resolve_from_module(symbols, node)
            if source is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                symbols.import_names.setdefault(
                    alias.asname or alias.name, (source, alias.name))
    return symbols


def _resolve_from_module(symbols: _ModuleSymbols,
                         node: ast.ImportFrom) -> Optional[str]:
    if not node.level:
        return node.module
    parts = symbols.package.split(".") if symbols.package else []
    drop = node.level - 1
    if drop > len(parts):
        return None
    kept = parts[: len(parts) - drop] if drop else parts
    if node.module:
        kept = kept + node.module.split(".")
    return ".".join(kept)


def _target_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _dotted_text(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ---------------------------------------------------------------------------
# resolution


class _Resolver:
    """Resolves names inside one module against the whole project."""

    def __init__(self, symbols: _ModuleSymbols,
                 by_key: Dict[str, _ModuleSymbols]) -> None:
        self.symbols = symbols
        self.by_key = by_key

    def project_module(self, dotted: str) -> Optional[_ModuleSymbols]:
        return self.by_key.get(normalize_import(dotted))

    def resolve_class_ref(self, symbols: _ModuleSymbols,
                          text: str) -> Optional[_ClassInfo]:
        """A base-class expression (``Name`` or ``mod.Name``) to its info."""
        if "." not in text:
            if text in symbols.classes:
                return symbols.classes[text]
            imported = symbols.import_names.get(text)
            if imported is not None:
                source = self.project_module(imported[0])
                if source is not None:
                    return source.classes.get(imported[1])
            return None
        base, rest = text.rsplit(".", 1)
        dotted_module = symbols.import_modules.get(base)
        if dotted_module is not None:
            remainder = text[len(base) + 1:]
            source = self.project_module(dotted_module)
            if source is not None:
                return source.classes.get(remainder)
        return None

    def find_method(self, info: _ClassInfo, method: str,
                    seen: Optional[Set[str]] = None
                    ) -> Optional[Tuple[str, bool]]:
        """(qualname, is_async) for ``method`` on ``info`` or its bases."""
        seen = seen if seen is not None else set()
        marker = f"{info.module}::{info.name}"
        if marker in seen:
            return None
        seen.add(marker)
        if method in info.methods:
            return info.methods[method], method in info.async_methods
        owner = self.by_key.get(module_key(info.module))
        if owner is None:
            return None
        for base_text in info.bases:
            base_info = self.resolve_class_ref(owner, base_text)
            if base_info is not None:
                found = self.find_method(base_info, method, seen)
                if found is not None:
                    return found
        return None

    def constructor(self, info: _ClassInfo) -> str:
        """The ``__init__`` qualname a constructor call edges to (may be
        a synthetic node materialised by :func:`build_graph`)."""
        found = self.find_method(info, "__init__")
        if found is not None:
            return found[0]
        return f"{info.module}::{info.name}.__init__"

    def _member(self, source: _ModuleSymbols,
                parts: Sequence[str]) -> Optional[str]:
        """Resolve ``parts`` (member path) inside project module ``source``."""
        if not parts:
            return None
        head = parts[0]
        if len(parts) == 1:
            if head in source.functions:
                return source.functions[head]
            if head in source.classes:
                return self.constructor(source.classes[head])
            return None
        if head in source.classes and len(parts) == 2:
            found = self.find_method(source.classes[head], parts[1])
            return found[0] if found is not None else None
        # A re-exported submodule (``repro.telemetry.metrics.registry``).
        sub = self.by_key.get(
            normalize_import(".".join([source.key, head]) if source.key
                             else head))
        if sub is not None:
            return self._member(sub, parts[1:])
        return None

    def resolve_call(self, func: ast.AST, context: "_FunctionContext"
                     ) -> Tuple[Optional[str], Optional[str]]:
        """(target qualname, external dotted) — both ``None`` if unresolved."""
        symbols = self.symbols
        if isinstance(func, ast.Name):
            name = func.id
            local_target = context.lookup_local_function(name)
            if local_target is not None:
                return local_target, None
            if name in context.locals:
                return None, None
            if name in symbols.functions:
                return symbols.functions[name], None
            if name in symbols.classes:
                return self.constructor(symbols.classes[name]), None
            imported = symbols.import_names.get(name)
            if imported is not None:
                source_dotted, original = imported
                source = self.project_module(source_dotted)
                if source is not None:
                    member = self._member(source, [original])
                    if member is not None:
                        return member, None
                    return None, None
                return None, f"{source_dotted}.{original}"
            if name in _BUILTIN_NAMES:
                return None, name
            return None, None

        if isinstance(func, ast.Attribute):
            # ``pool.submit(...).result()`` — the one call-on-call shape
            # resolved, because a synchronous Future wait is a named
            # blocking primitive the async rule must see through helpers.
            if (func.attr == "result" and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Attribute)
                    and func.value.func.attr == "submit"):
                return None, "concurrent.futures.Future.result"
            dotted = _dotted_text(func)
            if dotted is None:
                return None, None
            parts = dotted.split(".")
            base, rest = parts[0], parts[1:]
            if base in ("self", "cls") and context.class_info is not None:
                if len(rest) == 1:
                    found = self.find_method(context.class_info, rest[0])
                    if found is not None:
                        return found[0], None
                return None, None
            inferred = context.var_types.get(base)
            if inferred is not None and len(rest) == 1:
                found = self.find_method(inferred, rest[0])
                if found is not None:
                    return found[0], None
                return None, None
            if base in context.locals:
                return None, None
            if base in symbols.classes and len(rest) == 1:
                found = self.find_method(symbols.classes[base], rest[0])
                if found is not None:
                    return found[0], None
                return None, None
            imported = symbols.import_names.get(base)
            if imported is not None:
                source_dotted, original = imported
                source = self.project_module(source_dotted)
                if source is not None and original in source.classes:
                    if len(rest) == 1:
                        found = self.find_method(
                            source.classes[original], rest[0])
                        if found is not None:
                            return found[0], None
                    return None, None
                submodule = self.project_module(
                    f"{source_dotted}.{original}")
                if submodule is not None:
                    member = self._member(submodule, rest)
                    if member is not None:
                        return member, None
                    return None, None
                if source is not None:
                    member = self._member(source, [original] + rest)
                    if member is not None:
                        return member, None
                    return None, None
                return None, f"{source_dotted}.{original}." + ".".join(rest)
            dotted_module = symbols.import_modules.get(base)
            if dotted_module is not None:
                full = [dotted_module] + rest if "." not in dotted_module \
                    else dotted_module.split(".") + rest
                # Longest module prefix wins; member path of 1 or 2 parts.
                for split in range(len(full) - 1, 0, -1):
                    if len(full) - split > 2:
                        continue
                    source = self.project_module(".".join(full[:split]))
                    if source is not None:
                        member = self._member(source, full[split:])
                        if member is not None:
                            return member, None
                        return None, None
                return None, ".".join(full)
            return None, None

        return None, None

    def resolve_function_reference(self, node: ast.AST,
                                   context: "_FunctionContext"
                                   ) -> Optional[str]:
        """A bare function reference (or a called coroutine) in argument
        position, resolved to a project qualname."""
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, (ast.Name, ast.Attribute)):
            target, _ = self.resolve_call(node, context)
            return target
        return None


# ---------------------------------------------------------------------------
# per-function extraction


@dataclass
class _FunctionContext:
    class_info: Optional[_ClassInfo]
    locals: Set[str]
    declared_global: Set[str]
    var_types: Dict[str, _ClassInfo]
    local_functions: Dict[str, str]

    def lookup_local_function(self, name: str) -> Optional[str]:
        return self.local_functions.get(name)


def _iter_own_nodes(nodes: Iterable[ast.AST]) -> List[ast.AST]:
    """Every node in ``nodes`` excluding nested def/class interiors
    (their decorators and default expressions evaluate here, so those
    are included)."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            stack.extend(node.decorator_list)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(node.args.defaults)
                stack.extend(d for d in node.args.kw_defaults if d)
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _local_names(stmts: Sequence[ast.stmt],
                 args: Optional[ast.arguments]) -> Set[str]:
    names: Set[str] = set()
    if args is not None:
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            names.add(arg.arg)
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
    for node in _iter_own_nodes(stmts):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_target_names(target))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            names.update(_target_names(node.target))
        elif isinstance(node, ast.For):
            names.update(_target_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            names.update(_target_names(node.optional_vars))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            names.update(_target_names(node.target))
        elif isinstance(node, ast.NamedExpr):
            names.update(_target_names(node.target))
    return names


def _handler_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return ["BaseException"]
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names: List[str] = []
    for item in types:
        text = _dotted_text(item)
        if text is None:
            continue
        names.append(text)
        if "." in text:
            names.append(text.rsplit(".", 1)[1])
    return names


class _FunctionScanner:
    """Extracts calls, raises and global writes from one function body."""

    def __init__(self, resolver: _Resolver, context: _FunctionContext) -> None:
        self.resolver = resolver
        self.context = context
        self.calls: List[CallSite] = []
        self.raises: List[RaiseSite] = []
        self.writes: List[GlobalWrite] = []
        self.nested: List[ast.AST] = []

    # -- write resolution ---------------------------------------------------

    def _global_for(self, name: str) -> Optional[Tuple[str, str]]:
        """(module, global name) when ``name`` denotes a module global."""
        symbols = self.resolver.symbols
        context = self.context
        if name in context.declared_global:
            return symbols.canonical, name
        if name in context.locals:
            return None
        if name in symbols.module_globals:
            return symbols.canonical, name
        imported = symbols.import_names.get(name)
        if imported is not None:
            source = self.resolver.project_module(imported[0])
            if source is not None and imported[1] in source.module_globals:
                return source.canonical, imported[1]
        return None

    def _record_write(self, name: str, line: int, op: str) -> None:
        owner = self._global_for(name)
        if owner is not None:
            self.writes.append(GlobalWrite(owner[0], owner[1], line, op))

    def _scan_target(self, target: ast.AST, line: int, op: str) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.context.declared_global:
                self._record_write(target.id, line, op)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_target(element, line, op)
        elif isinstance(target, ast.Starred):
            self._scan_target(target.value, line, op)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                self._record_write(target.value.id, line, "subscript")
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name):
                self._record_write(target.value.id, line, "attr")

    # -- the guarded walk ---------------------------------------------------

    def scan(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._scan_node(stmt, frozenset())

    def _scan_node(self, node: ast.AST, handled: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            self.nested.append(node)
            for decorator in node.decorator_list:
                self._scan_node(decorator, handled)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for default in node.args.defaults:
                    self._scan_node(default, handled)
                for default in node.args.kw_defaults:
                    if default is not None:
                        self._scan_node(default, handled)
            return
        if isinstance(node, ast.Try):
            names = frozenset(
                name
                for handler in node.handlers
                for name in _handler_names(handler)
            )
            for child in node.body:
                self._scan_node(child, handled | names)
            for handler in node.handlers:
                for child in handler.body:
                    self._scan_node(child, handled)
            for child in node.orelse:
                self._scan_node(child, handled | names)
            for child in node.finalbody:
                self._scan_node(child, handled)
            return
        if isinstance(node, ast.Raise):
            self._scan_raise(node, handled)
        elif isinstance(node, ast.Call):
            self._scan_call(node, handled)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._scan_target(target, node.lineno, "assign")
        elif isinstance(node, ast.AugAssign):
            self._scan_target(node.target, node.lineno, "augassign")
            if isinstance(node.target, ast.Name):
                # ``X += ...`` on a declared global rebinds it.
                pass
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._scan_target(node.target, node.lineno, "assign")
        for child in ast.iter_child_nodes(node):
            self._scan_node(child, handled)

    def _scan_raise(self, node: ast.Raise, handled: frozenset) -> None:
        target = node.exc
        if target is None:
            return
        if isinstance(target, ast.Call):
            target = target.func
        text = _dotted_text(target)
        if text is None:
            return
        self.raises.append(RaiseSite(
            name=text, line=node.lineno, handled=tuple(sorted(handled))))

    def _scan_call(self, node: ast.Call, handled: frozenset) -> None:
        text = _dotted_text(node.func)
        target, external = self.resolver.resolve_call(node.func, self.context)
        func_args: List[str] = []
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            reference = self.resolver.resolve_function_reference(
                argument, self.context)
            if reference is not None:
                func_args.append(reference)
        if isinstance(node.func, ast.Attribute):
            # Mutating-method calls on module globals are writes.
            value = node.func.value
            if node.func.attr in _MUTATORS and isinstance(value, ast.Name):
                self._record_write(value.id, node.lineno,
                                   f"method:{node.func.attr}")
        self.calls.append(CallSite(
            line=node.lineno,
            col=node.col_offset,
            text=text if text is not None else "<dynamic>",
            target=target,
            external=external,
            handled=tuple(sorted(handled)),
            func_args=tuple(func_args),
        ))


# ---------------------------------------------------------------------------
# graph construction


def _infer_var_types(stmts: Sequence[ast.stmt], resolver: _Resolver,
                     context: _FunctionContext) -> Dict[str, _ClassInfo]:
    """``obj = ClassName(...)`` single-assignment local type inference."""
    assigned: Dict[str, Optional[_ClassInfo]] = {}
    for node in _iter_own_nodes(stmts):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        info: Optional[_ClassInfo] = None
        if isinstance(node.value, ast.Call):
            text = _dotted_text(node.value.func)
            if text is not None:
                info = resolver.resolve_class_ref(resolver.symbols, text)
        if target.id in assigned:
            assigned[target.id] = None     # re-bound: no longer reliable
        else:
            assigned[target.id] = info
    return {name: info for name, info in assigned.items() if info is not None}


def _build_function(resolver: _Resolver, qualname: str, name: str,
                    node: Optional[ast.AST], class_info: Optional[_ClassInfo],
                    local_functions: Dict[str, str],
                    functions: Dict[str, FunctionNode],
                    body: Sequence[ast.stmt], line: int,
                    is_async: bool) -> None:
    args = node.args if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
    declared_global: Set[str] = set()
    for inner in _iter_own_nodes(body):
        if isinstance(inner, ast.Global):
            declared_global.update(inner.names)
    local_names = _local_names(body, args) - declared_global
    context = _FunctionContext(
        class_info=class_info,
        locals=local_names,
        declared_global=declared_global,
        var_types={},
        local_functions=dict(local_functions),
    )
    # Nested defs are visible to the whole enclosing body; register them
    # before scanning so mutually recursive locals resolve.
    for inner in _collect_nested(body):
        context.local_functions[inner.name] = f"{qualname}.{inner.name}"
    context.var_types = _infer_var_types(body, resolver, context)
    scanner = _FunctionScanner(resolver, context)
    scanner.scan(body)
    functions[qualname] = FunctionNode(
        qualname=qualname,
        module=resolver.symbols.canonical,
        name=name,
        line=line,
        is_async=is_async,
        calls=sorted(scanner.calls, key=lambda s: (s.line, s.col)),
        raises=tuple(scanner.raises),
        writes=tuple(scanner.writes),
    )
    for inner in scanner.nested:
        if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _build_function(
                resolver, f"{qualname}.{inner.name}",
                f"{name}.{inner.name}", inner, class_info,
                context.local_functions, functions, inner.body, inner.lineno,
                isinstance(inner, ast.AsyncFunctionDef),
            )


def _collect_nested(body: Sequence[ast.stmt]) -> List[ast.AST]:
    nested: List[ast.AST] = []
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(node)
            continue
        if isinstance(node, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return nested


def build_graph(project: Project) -> CallGraph:
    """Build the deterministic whole-program call graph for ``project``."""
    units = sorted(
        (unit for unit in project.units if unit.tree is not None),
        key=lambda unit: unit.module,
    )
    symbols = {unit.module: _collect_symbols(unit) for unit in units}
    by_key: Dict[str, _ModuleSymbols] = {}
    for unit in units:
        by_key[symbols[unit.module].key] = symbols[unit.module]
    functions: Dict[str, FunctionNode] = {}
    for unit in units:
        module_symbols = symbols[unit.module]
        resolver = _Resolver(module_symbols, by_key)
        assert unit.tree is not None
        module_body: List[ast.stmt] = []
        for node in unit.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _build_function(
                    resolver, f"{unit.module}::{node.name}", node.name,
                    node, None, {}, functions, node.body, node.lineno,
                    isinstance(node, ast.AsyncFunctionDef),
                )
            elif isinstance(node, ast.ClassDef):
                info = module_symbols.classes[node.name]
                class_body: List[ast.stmt] = []
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        _build_function(
                            resolver,
                            f"{unit.module}::{node.name}.{item.name}",
                            f"{node.name}.{item.name}", item, info, {},
                            functions, item.body, item.lineno,
                            isinstance(item, ast.AsyncFunctionDef),
                        )
                    else:
                        class_body.append(item)
                module_body.extend(class_body)
            else:
                module_body.append(node)
        _build_function(
            resolver, f"{unit.module}::{MODULE_BODY}", MODULE_BODY,
            None, None, {}, functions, module_body, 1, False,
        )
    # Materialise synthetic constructors for edges pointing at classes
    # whose __init__ is nowhere in the project (including inherited).
    for node in list(functions.values()):
        for site in node.calls:
            if site.target is not None and site.target not in functions:
                module, _, name = site.target.partition("::")
                functions[site.target] = FunctionNode(
                    qualname=site.target, module=module, name=name,
                    line=1, synthetic=True,
                )
    return CallGraph(
        functions=functions,
        modules=[unit.module for unit in units],
    )
