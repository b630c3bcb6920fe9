"""The project rule pack: six invariants the architecture lives by.

Each rule encodes something the test suite could only probe
dynamically — and therefore only on the paths the tests happen to
drive.  Statically they hold everywhere or the gate goes red:

* **RL001** layering — a ``repro.*`` module imports only its own layer
  or below (the ROADMAP's presence → index → engine → analysis → service
  stack, with ``cli`` on top).
* **RL002** version-bump completeness — every public
  ``TimeVaryingGraph`` method that writes graph state also bumps the
  version counter *and* appends a :class:`MutationDelta`, directly or
  through a helper it calls.
* **RL003** plan purity — ``SweepPlan(...)`` outside
  ``core/parallel.py``'s sanctioned lowering takes ints and read-only
  int64 arrays only (no lambdas, no local callables), so plans stay
  picklable and cacheable by content.
* **RL004** boundary errors — no broad ``except`` in ``service/`` that
  swallows without re-raising (conversion to ``ServiceError`` counts:
  it is a re-raise).
* **RL005** async hygiene — no ``time.sleep``, blocking socket
  constructors, ``subprocess``, or direct ``sweep_block(...)`` calls
  lexically inside ``async def`` in the service front ends.
* **RL006** wire completeness — every ``*_to_spec`` in
  ``service/wire.py`` has a ``*_from_spec`` twin and both appear in
  the test tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.devtools.linter import (
    FileContext,
    Finding,
    ProjectContext,
    rule,
)

# -- RL001: layering -----------------------------------------------------------

#: Import-rank of each ``repro`` layer, derived from the ROADMAP
#: architecture: a module may import targets of rank <= its own.
#: Siblings of equal rank (``automata``/``dynamics``,
#: ``analysis``/``machines``) may see each other — nothing does today,
#: but the rule permits it because neither direction inverts the stack.
LAYER_RANKS: dict[str, int] = {
    "errors": 0,
    "core": 1,
    "automata": 2,
    "dynamics": 2,
    "analysis": 3,
    "machines": 3,
    "constructions": 4,
    "devtools": 4,
    "service": 5,
    "": 6,  # the ``repro`` facade re-exports everything below it
    "cli": 7,
    "__main__": 8,
}


def _layer_of(module: str) -> str | None:
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else ""


def _imported_repro_modules(
    tree: ast.AST, own_module: str
) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, module)`` for every runtime import of a
    ``repro.*`` module, resolving relative imports and skipping
    ``if TYPE_CHECKING:`` blocks (no runtime edge)."""

    class Visitor(ast.NodeVisitor):
        def __init__(self) -> None:
            self.hits: list[tuple[int, str]] = []

        def visit_If(self, node: ast.If) -> None:
            if _is_type_checking(node.test):
                for child in node.orelse:
                    self.visit(child)
                return
            self.generic_visit(node)

        def visit_Import(self, node: ast.Import) -> None:
            for alias in node.names:
                self.hits.append((node.lineno, alias.name))

        def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
            if node.level == 0:
                self.hits.append((node.lineno, node.module or ""))
                return
            base = own_module.split(".")
            # level=1 from a module strips the module's own name.
            base = base[: len(base) - node.level]
            target = ".".join(base + ([node.module] if node.module else []))
            self.hits.append((node.lineno, target))

    visitor = Visitor()
    visitor.visit(tree)
    for lineno, module in visitor.hits:
        if module == "repro" or module.startswith("repro."):
            yield lineno, module


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


@rule("RL001", "modules import only their own layer or below")
def check_layering(ctx: FileContext) -> Iterator[Finding]:
    own_layer = _layer_of(ctx.module)
    if own_layer is None:
        return
    own_rank = LAYER_RANKS.get(own_layer)
    if own_rank is None:
        return
    for lineno, module in _imported_repro_modules(ctx.tree, ctx.module):
        target_layer = _layer_of(module)
        if target_layer is None:
            continue
        target_rank = LAYER_RANKS.get(target_layer)
        if target_rank is None or target_rank <= own_rank:
            continue
        yield Finding(
            path=ctx.rel_path,
            line=lineno,
            rule="RL001",
            message=(
                f"layer {own_layer or 'repro'!r} (rank {own_rank}) imports "
                f"{module} from higher layer {target_layer!r} "
                f"(rank {target_rank})"
            ),
        )


# -- RL002: version-bump completeness ------------------------------------------

#: Attributes of ``TimeVaryingGraph`` that *are* the graph state; any
#: public method that writes one must leave an audit trail.
STATE_ATTRS = frozenset({"_nodes", "_edges", "_out", "_in"})

#: Method names on containers that mutate in place.
_MUTATING_METHODS = frozenset(
    {"append", "add", "clear", "discard", "extend", "insert", "pop",
     "popitem", "remove", "setdefault", "update", "__setitem__"}
)


@dataclass
class _MethodFacts:
    writes: bool = False
    bumps: bool = False
    appends: bool = False
    write_line: int = 0
    calls: set[str] = field(default_factory=set)


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` → ``"X"``; also looks through subscripts, so
    ``self._out[u][key]`` resolves to ``"_out"``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _method_facts(method: ast.FunctionDef) -> _MethodFacts:
    facts = _MethodFacts()

    def note_write(attr: str | None, lineno: int) -> None:
        if attr in STATE_ATTRS:
            facts.writes = True
            if not facts.write_line:
                facts.write_line = lineno

    for node in ast.walk(method):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                attr = _self_attr(target)
                note_write(attr, node.lineno)
                if attr == "_version":
                    facts.bumps = True
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                note_write(_self_attr(target), node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = _self_attr(node.func.value)
            if node.func.attr in _MUTATING_METHODS:
                note_write(owner, node.lineno)
                if owner == "_deltas" and node.func.attr == "append":
                    facts.appends = True
            if (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                facts.calls.add(node.func.attr)
    return facts


def _transitive_facts(methods: dict[str, _MethodFacts]) -> dict[str, _MethodFacts]:
    """Fixpoint: a method inherits writes/bumps/appends from every
    ``self.helper()`` it reaches."""
    changed = True
    while changed:
        changed = False
        for facts in methods.values():
            for callee in list(facts.calls):
                sub = methods.get(callee)
                if sub is None:
                    continue
                for attr in ("writes", "bumps", "appends"):
                    if getattr(sub, attr) and not getattr(facts, attr):
                        setattr(facts, attr, True)
                        changed = True
                if facts.writes and not facts.write_line and sub.write_line:
                    facts.write_line = sub.write_line
                    changed = True
    return methods


def _graph_class(tree: ast.AST) -> ast.ClassDef | None:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "TimeVaryingGraph":
            return node
    return None


def _classified_methods(tree: ast.AST) -> dict[str, _MethodFacts] | None:
    cls = _graph_class(tree)
    if cls is None:
        return None
    methods = {
        item.name: _method_facts(item)
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }
    return _transitive_facts(methods)


def discover_mutators(source: str) -> frozenset[str]:
    """Public ``TimeVaryingGraph`` methods that (transitively) write
    graph state — the static twin of the audit list in
    ``tests/core/test_versioning.py``."""
    methods = _classified_methods(ast.parse(source))
    if methods is None:
        return frozenset()
    return frozenset(
        name
        for name, facts in methods.items()
        if facts.writes and not name.startswith("_")
    )


@rule("RL002", "TimeVaryingGraph mutators bump version and log a delta")
def check_version_bumps(ctx: FileContext) -> Iterator[Finding]:
    methods = _classified_methods(ctx.tree)
    if methods is None:
        return
    cls = _graph_class(ctx.tree)
    lines = {
        item.name: item.lineno
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }
    for name in sorted(methods):
        facts = methods[name]
        if name.startswith("_") or not facts.writes:
            continue
        missing = []
        if not facts.bumps:
            missing.append("a version bump")
        if not facts.appends:
            missing.append("a MutationDelta append")
        if missing:
            yield Finding(
                path=ctx.rel_path,
                line=lines[name],
                rule="RL002",
                message=(
                    f"mutator {name}() writes graph state but never reaches "
                    + " or ".join(missing)
                ),
            )


# -- RL003: plan purity --------------------------------------------------------

#: The one module allowed to lower engine state into a SweepPlan.
PLAN_LOWERING_MODULE = "repro.core.parallel"


@rule(
    "RL003",
    "SweepPlan sites outside core/parallel take ints and read-only int64 "
    "arrays only",
)
def check_plan_purity(ctx: FileContext) -> Iterator[Finding]:
    if ctx.module == PLAN_LOWERING_MODULE:
        return
    local_callables = {
        node.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "SweepPlan":
            continue
        values = list(node.args) + [kw.value for kw in node.keywords]
        for value in values:
            for sub in ast.walk(value):
                if isinstance(sub, ast.Lambda):
                    yield Finding(
                        path=ctx.rel_path,
                        line=sub.lineno,
                        rule="RL003",
                        message="lambda passed into SweepPlan(...) — plans "
                        "take ints and read-only int64 arrays only",
                    )
                elif isinstance(sub, ast.Name) and sub.id in local_callables:
                    yield Finding(
                        path=ctx.rel_path,
                        line=sub.lineno,
                        rule="RL003",
                        message=f"callable {sub.id!r} passed into "
                        "SweepPlan(...) — plans take ints and read-only "
                        "int64 arrays only",
                    )


# -- RL004: boundary errors ----------------------------------------------------


@rule("RL004", "no broad except in service/ without re-raise or conversion")
def check_boundary_errors(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro.service"):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node.type):
            continue
        if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
            continue
        caught = "bare except" if node.type is None else (
            f"except {ast.unparse(node.type)}"
        )
        yield Finding(
            path=ctx.rel_path,
            line=node.lineno,
            rule="RL004",
            message=f"{caught} swallows without re-raise or ServiceError "
            "conversion at the service boundary",
        )


def _is_broad(type_node: ast.expr | None) -> bool:
    if type_node is None:
        return True
    names = (
        [elt for elt in type_node.elts]
        if isinstance(type_node, ast.Tuple)
        else [type_node]
    )
    for name in names:
        ident = name.id if isinstance(name, ast.Name) else (
            name.attr if isinstance(name, ast.Attribute) else None
        )
        if ident in {"Exception", "BaseException"}:
            return True
    return False


# -- RL005: async hygiene ------------------------------------------------------

#: Calls that block the event loop.  ``(module, attr)`` pairs; a bare
#: name matches when the module half is "".
_BLOCKING_CALLS = {
    ("time", "sleep"),
    ("socket", "socket"),
    ("socket", "create_connection"),
    ("subprocess", "run"),
    ("subprocess", "Popen"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("", "sweep_block"),
    ("", "task_wait"),
}

#: Blocking method names flagged on *any* receiver (``service.task_wait``,
#: ``self.tasks.wait`` is fine — the table join is ``task_wait`` at the
#: service surface), because the receiver of a blocking join is rarely a
#: bare module name.
_BLOCKING_ANY_RECEIVER = {"sweep_block", "task_wait"}


@rule("RL005", "no blocking calls inside async def in service front ends")
def check_async_hygiene(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro.service"):
        return

    def scan(body: list[ast.stmt], in_async: bool) -> Iterator[Finding]:
        for stmt in body:
            yield from scan_node(stmt, in_async)

    def scan_node(node: ast.AST, in_async: bool) -> Iterator[Finding]:
        if isinstance(node, ast.AsyncFunctionDef):
            yield from scan(node.body, True)
            return
        if isinstance(node, ast.FunctionDef):
            # A nested sync def runs wherever it is *called*; its body
            # is not necessarily on the event loop.
            yield from scan(node.body, False)
            return
        if in_async and isinstance(node, ast.Call):
            hit = _blocking_call_name(node.func)
            if hit is not None:
                yield Finding(
                    path=ctx.rel_path,
                    line=node.lineno,
                    rule="RL005",
                    message=f"blocking call {hit}(...) inside async def — "
                    "offload via asyncio.to_thread or an executor",
                )
        for child in ast.iter_child_nodes(node):
            yield from scan_node(child, in_async)

    yield from scan_node(ctx.tree, False)


def _blocking_call_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        if ("", func.id) in _BLOCKING_CALLS:
            return func.id
        return None
    if isinstance(func, ast.Attribute):
        if func.attr in _BLOCKING_ANY_RECEIVER:
            if isinstance(func.value, ast.Name):
                return f"{func.value.id}.{func.attr}"
            return f"<expr>.{func.attr}"
        if isinstance(func.value, ast.Name):
            if (func.value.id, func.attr) in _BLOCKING_CALLS:
                return f"{func.value.id}.{func.attr}"
    return None


# -- RL006: wire completeness --------------------------------------------------


def check_wire_pairs(
    wire_source: str, test_sources: list[str], rel_path: str = "<fixture>"
) -> list[Finding]:
    """The testable core of RL006: every ``*_to_spec`` has a
    ``*_from_spec`` twin (and vice versa), and each appears somewhere
    in the test tree."""
    tree = ast.parse(wire_source)
    functions = {
        node.name: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    findings = []
    corpus = "\n".join(test_sources)
    for name, lineno in sorted(functions.items()):
        if name.endswith("_to_spec"):
            twin = name[: -len("_to_spec")] + "_from_spec"
        elif name.endswith("_from_spec"):
            twin = name[: -len("_from_spec")] + "_to_spec"
        else:
            continue
        if twin not in functions:
            findings.append(
                Finding(
                    path=rel_path,
                    line=lineno,
                    rule="RL006",
                    message=f"{name}() has no {twin}() twin — wire specs "
                    "must round-trip",
                )
            )
        if name not in corpus:
            findings.append(
                Finding(
                    path=rel_path,
                    line=lineno,
                    rule="RL006",
                    message=f"{name}() is never exercised by the test tree",
                )
            )
    return findings


@rule("RL006", "wire spec encoders round-trip and are tested", scope="project")
def check_wire_completeness(project: ProjectContext) -> Iterator[Finding]:
    ctx = project.file("repro.service.wire")
    if ctx is None:
        return
    yield from check_wire_pairs(
        ctx.source, list(project.test_sources()), rel_path=ctx.rel_path
    )
