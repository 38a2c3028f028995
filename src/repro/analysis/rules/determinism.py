"""Determinism rules (DET*).

DESIGN.md replaces the paper's ChatGPT calls with a seeded
``SimulatedLLM`` precisely so every run is reproducible; DET003 keeps
one hidden entropy source — set iteration order, hash-randomized
across processes — out of the tree.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.linter import Finding, LintContext, Rule, register


@register
class SetIterationRule(Rule):
    rule_id = "DET003"
    name = "set-iteration-order"
    category = "determinism"
    description = (
        "Iterating a set feeds its arbitrary (hash-randomized across "
        "processes) order into downstream state; wrap in sorted()."
    )
    node_types = (ast.For, ast.comprehension, ast.Call)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if isinstance(node, ast.For) and self._is_set_expr(node.iter):
            yield self.finding(
                ctx, node.iter,
                "for-loop iterates a set in arbitrary order; use "
                "sorted(...) for a deterministic order",
            )
        elif isinstance(node, ast.comprehension) and self._is_set_expr(
            node.iter
        ):
            yield self.finding(
                ctx, node.iter,
                "comprehension iterates a set in arbitrary order; use "
                "sorted(...) for a deterministic order",
            )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple", "enumerate")
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            yield self.finding(
                ctx, node,
                f"{node.func.id}() materializes a set in arbitrary order; "
                "use sorted(...) instead",
            )
