"""R4 — lock discipline.

The federation service (:mod:`repro.serve`) runs studies on worker
threads over one shared router, while the simulated network and the
resilient exchange guard shared state with per-inbox and
per-component locks.
Deadlock freedom there is an ordering argument: as long as every thread
acquires locks in one global partial order, no cycle of waiters can
form.  This rule extracts the static acquisition-order graph from
``with <lock>`` nestings across the scoped modules and reports:

* a cycle in the acquisition-order graph (potential deadlock), and
* re-acquisition of the same named non-reentrant lock inside itself.

Lock names are canonicalised as ``Class.attr`` (``self._stats_lock``
inside ``SimulatedNetwork`` → ``SimulatedNetwork._stats_lock``); keyed
collections collapse to one node (``SimulatedNetwork._inbox_locks[]``).
The debug runtime in :mod:`repro.lint.runtime` records the *dynamic*
acquisition order during tests and cross-checks it against this graph,
covering orderings that only arise through call chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..astutil import identifier_parts, iter_function_defs, terminal_identifier
from ..findings import Finding
from . import ModuleInfo, Rule, register


def is_lockish(node: ast.AST) -> bool:
    """Does this expression name a lock (identifier contains "lock")?"""
    identifier = terminal_identifier(node)
    if identifier is None:
        return False
    parts = identifier_parts(identifier)
    return bool(parts & {"lock", "locks"})


def canonical_lock_name(
    node: ast.AST, class_name: Optional[str], module: str
) -> str:
    """Stable cross-module node name for a lock expression."""
    if isinstance(node, ast.Subscript):
        return canonical_lock_name(node.value, class_name, module) + "[]"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self" and class_name:
            return f"{class_name}.{node.attr}"
        return f"{node.value.id}.{node.attr}"
    if isinstance(node, ast.Name):
        owner = class_name or module.rsplit(".", 1)[-1]
        return f"{owner}:{node.id}"
    identifier = terminal_identifier(node)
    return f"{class_name or module}:{identifier or '<lock>'}"


@dataclass(frozen=True)
class LockEdge:
    """``outer`` was held while ``inner`` was acquired."""

    outer: str
    inner: str
    module: str
    path: str
    line: int
    column: int
    line_content: str


def extract_lock_edges(
    module: ModuleInfo,
) -> "Tuple[List[LockEdge], Set[str]]":
    """Static acquisition-order edges plus every lock node seen."""
    edges: List[LockEdge] = []
    nodes: Set[str] = set()

    def walk(
        body: Iterable[ast.AST], held: Tuple[str, ...], cls: Optional[str]
    ) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # visited separately with a fresh held-stack
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                acquired: List[str] = []
                for item in statement.items:
                    expr = item.context_expr
                    target = expr
                    # ``with lock_factory.lock(name)``-style acquisition:
                    # look through a call to its receiver.
                    if isinstance(expr, ast.Call):
                        target = expr.func
                    if not is_lockish(target):
                        continue
                    name = canonical_lock_name(target, cls, module.module)
                    nodes.add(name)
                    for outer in held + tuple(acquired):
                        edges.append(
                            LockEdge(
                                outer=outer,
                                inner=name,
                                module=module.module,
                                path=module.display_path,
                                line=expr.lineno,
                                column=expr.col_offset + 1,
                                line_content=module.line_content(expr.lineno),
                            )
                        )
                    acquired.append(name)
                walk(statement.body, held + tuple(acquired), cls)
                continue
            for child_body in _child_bodies(statement):
                walk(child_body, held, cls)

    for function, cls in iter_function_defs(module.tree):
        walk(getattr(function, "body", []), (), cls)
    return edges, nodes


def _child_bodies(node: ast.AST) -> "List[List[ast.AST]]":
    bodies = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(node, attr, None)
        if isinstance(value, list):
            bodies.append(value)
    for handler in getattr(node, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def find_cycles(edges: Iterable[Tuple[str, str]]) -> "List[List[str]]":
    """Elementary cycles in the acquisition graph (DFS, deduplicated)."""
    graph: Dict[str, Set[str]] = {}
    for outer, inner in edges:
        graph.setdefault(outer, set()).add(inner)
        graph.setdefault(inner, set())
    cycles: List[List[str]] = []
    seen_signatures: Set[Tuple[str, ...]] = set()

    def dfs(node: str, path: List[str], on_path: Set[str]) -> None:
        for successor in sorted(graph.get(node, ())):
            if successor in on_path:
                start = path.index(successor)
                cycle = path[start:] + [successor]
                signature = tuple(sorted(set(cycle)))
                if signature not in seen_signatures:
                    seen_signatures.add(signature)
                    cycles.append(cycle)
                continue
            dfs(successor, path + [successor], on_path | {successor})

    for start in sorted(graph):
        dfs(start, [start], {start})
    return cycles


@register
class LockDisciplineRule(Rule):
    rule_id = "R4"
    name = "lock-discipline"
    rationale = (
        "concurrent service studies stay deadlock-free only while "
        "every thread acquires locks in one global order"
    )
    default_scopes = ("net", "resilience", "serve")

    def __init__(self, options: "dict[str, object]"):
        super().__init__(options)
        self._edges: List[LockEdge] = []

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        edges, _ = extract_lock_edges(module)
        findings: List[Finding] = []
        for edge in edges:
            # Same-name nesting of a scalar lock is an immediate
            # self-deadlock for threading.Lock; keyed collections ([])
            # may hold distinct instances, so only warn via the graph.
            if edge.outer == edge.inner and not edge.inner.endswith("[]"):
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        severity=self.severity,
                        path=edge.path,
                        module=edge.module,
                        line=edge.line,
                        column=edge.column,
                        message=(
                            f"nested acquisition of non-reentrant lock "
                            f"{edge.inner!r} deadlocks immediately"
                        ),
                        line_content=edge.line_content,
                    )
                )
            else:
                self._edges.append(edge)
        return findings

    def finalize(self) -> Iterable[Finding]:
        cycles = find_cycles((e.outer, e.inner) for e in self._edges)
        findings = []
        for cycle in cycles:
            # Attribute the cycle to the edge closing it.
            closing = next(
                (
                    e
                    for e in self._edges
                    if e.outer == cycle[-2] and e.inner == cycle[-1]
                ),
                self._edges[0] if self._edges else None,
            )
            if closing is None:
                continue
            findings.append(
                Finding(
                    rule=self.rule_id,
                    severity=self.severity,
                    path=closing.path,
                    module=closing.module,
                    line=closing.line,
                    column=closing.column,
                    message=(
                        "lock acquisition-order cycle: "
                        + " -> ".join(cycle)
                        + "; impose one global acquisition order"
                    ),
                    line_content=closing.line_content,
                )
            )
        return findings
