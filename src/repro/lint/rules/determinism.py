"""R2 — determinism.

Two repo-wide invariants are enforced by equivalence suites: a study
must decide bit-identically across runs, shard counts and the service,
and fault-injected runs must either match the fault-free reference or
abort classified.  Both break silently if protocol
or statistics code lets incidental orderings or ambient state leak into
decisions.  This rule flags the three classic ways that happens:

* iterating a bare ``set`` into an ordered output (list/tuple/loop
  body) without ``sorted(…)`` — CPython set order varies with hash
  seeding and insertion history;
* keying anything off ``id(…)`` — object addresses differ between
  processes and runs;
* reading the wall clock (``time.time``, ``datetime.now``) — protocol
  decisions must use the simulated network clock.  The monotonic
  *metering* clocks (``time.perf_counter`` et al.) stay legal: they
  feed timing reports, never decisions.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..astutil import call_name
from ..findings import Finding
from . import ModuleInfo, Rule, register

WALL_CLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: ``set`` methods that still produce a set (iteration stays unordered).
_SET_PRODUCING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Builtins that freeze iteration order into an ordered container.
_ORDER_FREEZING_CALLS = frozenset({"list", "tuple", "enumerate"})


def _is_set_expr(node: ast.AST) -> bool:
    """Syntactically, does this expression evaluate to a ``set``?"""
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in (
            "set",
            "frozenset",
        ):
            return True
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SET_PRODUCING_METHODS
            and _is_set_expr_base(node.func.value)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _is_set_expr_base(node: ast.AST) -> bool:
    """Base of a method call that yields a set: ``set.intersection(…)``
    or a set-valued expression (``(a | b).union(c)``)."""
    if isinstance(node, ast.Name) and node.id in ("set", "frozenset"):
        return True
    return _is_set_expr(node)


@register
class DeterminismRule(Rule):
    rule_id = "R2"
    name = "determinism"
    rationale = (
        "repeated, sharded and fault-free/faulted runs must decide "
        "bit-identically: no set-order, id() or wall-clock dependence"
    )
    default_scopes = (
        "protocol",
        "stats",
        "enclave",
        "serve",
        "faults",
        "fuzz",
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        wall_clock = self.option_tuple("wall_clock_calls", WALL_CLOCK_CALLS)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            finding = self._check_node(module, node, wall_clock)
            if finding is not None:
                findings.append(finding)
        return findings

    def _check_node(
        self,
        module: ModuleInfo,
        node: ast.AST,
        wall_clock: Tuple[str, ...],
    ) -> Optional[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(
            node.iter
        ):
            return self.finding(
                module,
                node.iter,
                "loop over a bare set: iteration order is not "
                "deterministic across runs; wrap in sorted(...)",
            )
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                if _is_set_expr(generator.iter):
                    return self.finding(
                        module,
                        generator.iter,
                        "comprehension drains a bare set into an ordered "
                        "result; wrap the set in sorted(...)",
                    )
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_FREEZING_CALLS
                and node.args
                and _is_set_expr(node.args[0])
            ):
                return self.finding(
                    module,
                    node,
                    f"{node.func.id}(...) freezes a set's arbitrary "
                    "iteration order; use sorted(...) to make the order "
                    "deterministic",
                )
            if isinstance(node.func, ast.Name) and node.func.id == "id":
                return self.finding(
                    module,
                    node,
                    "id(...) keys decisions to object addresses, which "
                    "differ between runs; derive names/keys from stable "
                    "protocol data instead",
                )
            resolved = call_name(node, module.imports)
            if resolved in wall_clock:
                return self.finding(
                    module,
                    node,
                    f"{resolved}() reads the wall clock; protocol logic "
                    "must use the simulated clock "
                    "(SimulatedNetwork.advance_clock / simulated_time)",
                )
            if resolved is not None and resolved.split(".")[0] == "random":
                return self.finding(
                    module,
                    node,
                    f"{resolved}() draws from the global Mersenne "
                    "Twister; use the seeded repro.crypto.rng DRBG or an "
                    "explicitly seeded numpy Generator",
                )
        return None
