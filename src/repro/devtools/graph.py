"""Phase 1 of the v2 lint engine: the project-wide symbol/import graph.

The original reprolint rules were single-file AST visitors; the flow
rule family (REP006–REP008) needs to answer cross-module questions —
"which constant does this ``spawn_key`` element resolve to, and where
is it defined?", "does any module re-use this stream domain?".  This
module builds the substrate those rules share:

* :class:`FileFacts` — everything the graph needs to know about one
  file, extracted by a pure function of the source text: imports,
  top-level symbols with literal constant values, and every stream
  derivation site: ``SeedSequence(..., spawn_key=(...))`` and the
  ``stream_rng``/``stream_state(seed, DOMAIN, ...)`` primitive of
  ``sim/streams.py``.
* :class:`ProjectGraph` — the linked view: dotted-import resolution by
  module-path suffix matching (works for ``src/repro`` and for fixture
  trees alike) and assignment-chain constant resolution across modules.

Nothing here imports the linted code; everything is derived from the
AST, so the linter can analyse trees that would not even import.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

__all__ = [
    "FileFacts",
    "ImportRecord",
    "ProjectGraph",
    "ResolvedConstant",
    "ResolvedSpawnSite",
    "SpawnSite",
    "SymbolInfo",
    "extract_facts",
    "resolve_spawn_sites",
    "stream_registry",
]

#: Literal values the symbol table records (everything else is opaque).
ConstValue = Union[int, float, str, bool, None]

#: Maximum import-chain hops followed when resolving a name.
_MAX_RESOLVE_DEPTH = 6


@dataclass(frozen=True)
class ImportRecord:
    """One imported binding at module top level.

    ``module`` is the dotted module as written; ``name`` is the imported
    symbol for ``from``-imports (``None`` for plain ``import``);
    ``asname`` is the local binding the rest of the file sees.
    """

    module: str
    name: Optional[str]
    asname: str
    lineno: int


@dataclass(frozen=True)
class SymbolInfo:
    """One top-level (or class-member) symbol of a module.

    ``kind`` is ``"class"``, ``"function"``, ``"const"`` (a literal
    assignment whose value the table records) or ``"assign"`` (a
    non-literal assignment).  Class methods are recorded under dotted
    names (``"GP2D120.ideal_voltage_array"``).
    """

    name: str
    kind: str
    lineno: int
    value: ConstValue = None


@dataclass(frozen=True)
class SpawnSite:
    """One stream derivation call site.

    Either ``SeedSequence(..., spawn_key=(...))`` or a derivation
    primitive call ``stream_rng(seed, DOMAIN, ...)`` /
    ``stream_state(seed, DOMAIN, ...)``.  ``domain_kind`` describes the
    stream domain (the spawn-key tuple's first element, or the
    primitive's second argument): ``"literal"`` (an inline integer),
    ``"name"`` (an identifier or dotted attribute, recorded in
    ``domain_name``), or ``"opaque"`` (anything else, including
    non-tuple spawn keys and a domain the call does not spell out).
    """

    line: int
    col: int
    snippet: str
    domain_kind: str
    domain_value: Optional[int] = None
    domain_name: Optional[str] = None


@dataclass(frozen=True)
class FileFacts:
    """Phase-1 knowledge about one file — a pure function of its text."""

    path: str
    parts: tuple[str, ...]
    imports: tuple[ImportRecord, ...]
    symbols: Mapping[str, SymbolInfo]
    spawn_sites: tuple[SpawnSite, ...]


def _module_parts(path: str) -> tuple[str, ...]:
    """``sim/streams.py`` -> ``("sim", "streams")``; packages drop
    ``__init__``."""
    pieces = path.split("/")
    last = pieces[-1]
    if last.endswith(".py"):
        last = last[: -len(".py")]
    if last == "__init__":
        pieces = pieces[:-1]
    else:
        pieces = pieces[:-1] + [last]
    return tuple(pieces)


def _literal_value(node: ast.AST) -> tuple[bool, ConstValue]:
    """``(True, value)`` when ``node`` is a recordable literal."""
    if isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (int, float, str, bool))
    ):
        return True, node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return True, -node.operand.value
    return False, None


def _dotted_name(node: ast.AST) -> Optional[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


#: Callees that derive a keyed stream as ``f(seed, DOMAIN, *key)``.
_DERIVATION_PRIMITIVES = frozenset({"stream_rng", "stream_state"})


class _SpawnCollector(ast.NodeVisitor):
    """Collects ``SeedSequence(..., spawn_key=...)`` and primitive calls."""

    def __init__(self, lines: Sequence[str]) -> None:
        self.sites: list[SpawnSite] = []
        self._lines = lines

    def _snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self._lines):
            return self._lines[lineno - 1].strip()
        return ""

    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func
        callee_name = (
            callee.id
            if isinstance(callee, ast.Name)
            else callee.attr
            if isinstance(callee, ast.Attribute)
            else None
        )
        if callee_name == "SeedSequence":
            for keyword in node.keywords:
                if keyword.arg == "spawn_key":
                    key = keyword.value
                    head = (
                        key.elts[0]
                        if isinstance(key, ast.Tuple) and key.elts
                        else None
                    )
                    self.sites.append(self._site(node, head))
        elif callee_name in _DERIVATION_PRIMITIVES:
            self.sites.append(self._site(node, _primitive_domain(node)))
        self.generic_visit(node)

    def _site(self, call: ast.Call, head: Optional[ast.expr]) -> SpawnSite:
        line, col = call.lineno, call.col_offset
        snippet = self._snippet(line)
        if head is None or isinstance(head, ast.Starred):
            return SpawnSite(line, col, snippet, "opaque")
        is_literal, value = _literal_value(head)
        if is_literal and isinstance(value, int) and not isinstance(value, bool):
            return SpawnSite(line, col, snippet, "literal", domain_value=value)
        dotted = _dotted_name(head)
        if dotted is not None:
            return SpawnSite(line, col, snippet, "name", domain_name=dotted)
        return SpawnSite(line, col, snippet, "opaque")


def _primitive_domain(call: ast.Call) -> Optional[ast.expr]:
    """The ``domain`` argument of a ``stream_rng``/``stream_state`` call.

    ``None`` when the call does not spell it out (a ``*args`` splat
    before or at the second position, or no domain at all).
    """
    for index, argument in enumerate(call.args):
        if isinstance(argument, ast.Starred):
            return None
        if index == 1:
            return argument
    for keyword in call.keywords:
        if keyword.arg == "domain":
            return keyword.value
    return None


def extract_facts(path: str, source: str, tree: ast.Module) -> FileFacts:
    """Extract :class:`FileFacts` from one parsed module."""
    imports: list[ImportRecord] = []
    symbols: dict[str, SymbolInfo] = {}

    def record_assign(target: ast.expr, value: Optional[ast.AST], lineno: int) -> None:
        if not isinstance(target, ast.Name):
            return
        if target.id == "__all__" and value is not None:
            return  # the export list is not a symbol
        if value is None:
            symbols[target.id] = SymbolInfo(target.id, "assign", lineno)
            return
        is_literal, literal = _literal_value(value)
        if is_literal:
            symbols[target.id] = SymbolInfo(
                target.id, "const", lineno, value=literal
            )
        else:
            symbols[target.id] = SymbolInfo(target.id, "assign", lineno)

    for statement in tree.body:
        if isinstance(statement, ast.Import):
            for alias in statement.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                imports.append(
                    ImportRecord(
                        alias.name, None, bound, statement.lineno
                    )
                )
        elif isinstance(statement, ast.ImportFrom):
            if statement.module is None or statement.level:
                continue  # relative imports are not used in this tree
            for alias in statement.names:
                imports.append(
                    ImportRecord(
                        statement.module,
                        alias.name,
                        alias.asname or alias.name,
                        statement.lineno,
                    )
                )
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            symbols[statement.name] = SymbolInfo(
                statement.name, "function", statement.lineno
            )
        elif isinstance(statement, ast.ClassDef):
            symbols[statement.name] = SymbolInfo(
                statement.name, "class", statement.lineno
            )
            for member in statement.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    dotted = f"{statement.name}.{member.name}"
                    symbols[dotted] = SymbolInfo(
                        dotted, "function", member.lineno
                    )
        elif isinstance(statement, ast.Assign):
            for target in statement.targets:
                record_assign(target, statement.value, statement.lineno)
        elif isinstance(statement, ast.AnnAssign):
            record_assign(
                statement.target, statement.value, statement.lineno
            )

    collector = _SpawnCollector(source.splitlines())
    collector.visit(tree)
    return FileFacts(
        path=path,
        parts=_module_parts(path),
        imports=tuple(imports),
        symbols=symbols,
        spawn_sites=tuple(collector.sites),
    )


@dataclass(frozen=True)
class ResolvedConstant:
    """Where a name resolution landed: defining file, symbol, value."""

    path: str
    symbol: SymbolInfo


class ProjectGraph:
    """The linked cross-module view over a set of :class:`FileFacts`."""

    def __init__(self, facts: Iterable[FileFacts]) -> None:
        self.files: dict[str, FileFacts] = {}
        self._by_parts: dict[tuple[str, ...], str] = {}
        for entry in facts:
            self.files[entry.path] = entry
            self._by_parts[entry.parts] = entry.path

    # ------------------------------------------------------------------
    # module resolution
    # ------------------------------------------------------------------
    def resolve_module(self, dotted: str) -> Optional[FileFacts]:
        """Find the project file for a dotted import, by suffix match.

        ``repro.sim.streams`` matches ``sim/streams.py`` relative to the
        lint root: leading package components that sit *above* the root
        (``repro`` when the root is ``src/repro``) are stripped one at a
        time until a project module matches.  Exact matches win.
        """
        parts = tuple(dotted.split("."))
        for start in range(len(parts)):
            path = self._by_parts.get(parts[start:])
            if path is not None:
                return self.files[path]
        return None

    def file_ending_with(
        self, suffix: tuple[str, ...]
    ) -> Optional[FileFacts]:
        """The unique project module whose parts end with ``suffix``."""
        matches = [
            path
            for parts, path in self._by_parts.items()
            if parts[-len(suffix):] == suffix
        ]
        if len(matches) == 1:
            return self.files[matches[0]]
        if not matches:
            return None
        # Prefer an exact match, else the shortest (shallowest) module.
        exact = self._by_parts.get(suffix)
        if exact is not None:
            return self.files[exact]
        return self.files[min(matches, key=lambda p: (len(p), p))]

    # ------------------------------------------------------------------
    # name resolution (the cross-module dataflow step)
    # ------------------------------------------------------------------
    def resolve_constant(
        self, facts: FileFacts, dotted: str, _depth: int = 0
    ) -> Optional[ResolvedConstant]:
        """Resolve a (possibly dotted) name to its defining symbol.

        Follows top-level assignment chains and ``import`` /
        ``from … import`` bindings across project modules, bounded to
        :data:`_MAX_RESOLVE_DEPTH` hops.  Returns ``None`` when the
        name leaves the project or is not statically resolvable.
        """
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        # Direct hit (including dotted class members).
        symbol = facts.symbols.get(dotted)
        if symbol is not None and symbol.kind != "assign":
            return ResolvedConstant(facts.path, symbol)
        head, _, rest = dotted.partition(".")
        for record in facts.imports:
            if record.asname != head:
                continue
            if record.name is not None:
                # from M import name as head; resolve name(.rest) in M —
                # or, when `name` is itself a submodule, resolve rest in it.
                target = self.resolve_module(record.module)
                if target is not None:
                    chained = record.name + (("." + rest) if rest else "")
                    resolved = self.resolve_constant(
                        target, chained, _depth + 1
                    )
                    if resolved is not None:
                        return resolved
                submodule = self.resolve_module(
                    record.module + "." + record.name
                )
                if submodule is not None and rest:
                    return self.resolve_constant(
                        submodule, rest, _depth + 1
                    )
                return None
            # plain `import a.b as head` (or `import a.b`, head == "a")
            target = self.resolve_module(record.module)
            if target is not None and rest:
                return self.resolve_constant(target, rest, _depth + 1)
            return None
        if symbol is not None:
            return ResolvedConstant(facts.path, symbol)
        return None


# ---------------------------------------------------------------------------
# spawn-key analyses (REP006)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ResolvedSpawnSite:
    """A spawn site with its stream domain resolved project-wide.

    ``status`` is one of ``"ok"`` (registered constant used from its
    defining registry module), ``"literal"``, ``"opaque"``,
    ``"unresolved"``, ``"unregistered"`` (resolves to a constant that is
    not a declared domain) or ``"shadow"`` (re-declares a registered
    value outside the registry module).
    """

    path: str
    site: SpawnSite
    status: str
    value: Optional[int]
    detail: str

#: Module-path suffix of the spawn-key registry.
_REGISTRY_SUFFIX = ("sim", "streams")


def stream_registry(graph: ProjectGraph) -> Optional[dict[int, str]]:
    """The declared stream domains of the linted tree, if any.

    Every upper-case module-level integer constant of ``sim/streams.py``
    is a declared domain (the convention keeps the registry consumable
    without importing the tree).  Returns ``None`` when the tree has no
    registry module at all.
    """
    registry_facts = graph.file_ending_with(_REGISTRY_SUFFIX)
    if registry_facts is None:
        return None
    domains: dict[int, str] = {}
    for name, info in sorted(registry_facts.symbols.items()):
        if (
            info.kind == "const"
            and name.isupper()
            and isinstance(info.value, int)
            and not isinstance(info.value, bool)
        ):
            domains.setdefault(info.value, name)
    return domains


def registry_path(graph: ProjectGraph) -> Optional[str]:
    facts = graph.file_ending_with(_REGISTRY_SUFFIX)
    return None if facts is None else facts.path


def resolve_spawn_sites(
    graph: ProjectGraph,
    registry: Optional[Mapping[int, str]] = None,
) -> tuple[ResolvedSpawnSite, ...]:
    """Resolve every spawn site in the project against the registry."""
    if registry is None:
        registry = stream_registry(graph) or {}
    reg_path = registry_path(graph)
    resolved: list[ResolvedSpawnSite] = []
    for path in sorted(graph.files):
        facts = graph.files[path]
        for site in facts.spawn_sites:
            resolved.append(
                _resolve_site(graph, facts, site, registry, reg_path)
            )
    return tuple(resolved)


def _resolve_site(
    graph: ProjectGraph,
    facts: FileFacts,
    site: SpawnSite,
    registry: Mapping[int, str],
    reg_path: Optional[str],
) -> ResolvedSpawnSite:
    if site.domain_kind == "literal":
        return ResolvedSpawnSite(
            facts.path,
            site,
            "literal",
            site.domain_value,
            f"bare literal {site.domain_value:#x}"
            if site.domain_value is not None
            else "bare literal",
        )
    if site.domain_kind != "name" or site.domain_name is None:
        return ResolvedSpawnSite(
            facts.path, site, "opaque", None, "opaque spawn-key shape"
        )
    resolution = graph.resolve_constant(facts, site.domain_name)
    if (
        resolution is None
        or resolution.symbol.kind != "const"
        or not isinstance(resolution.symbol.value, int)
        or isinstance(resolution.symbol.value, bool)
    ):
        return ResolvedSpawnSite(
            facts.path,
            site,
            "unresolved",
            None,
            f"`{site.domain_name}` does not resolve to an integer constant",
        )
    value = resolution.symbol.value
    if value not in registry:
        return ResolvedSpawnSite(
            facts.path,
            site,
            "unregistered",
            value,
            f"`{site.domain_name}` = {value:#x} (defined in"
            f" {resolution.path}) is not a declared stream domain",
        )
    if reg_path is not None and resolution.path != reg_path:
        return ResolvedSpawnSite(
            facts.path,
            site,
            "shadow",
            value,
            f"`{site.domain_name}` re-declares registered domain"
            f" {registry[value]} ({value:#x}) in {resolution.path};"
            " import the registry constant instead",
        )
    return ResolvedSpawnSite(
        facts.path, site, "ok", value, registry[value]
    )
