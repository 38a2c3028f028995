"""Contract rules (CTR*).

The paper's ``verify(g, x)`` contract is a closed ternary: every
verifier maps into ``Verdict.{VERIFIED, REFUTED, NOT_RELATED}`` and
every consumer must handle all three.  CTR002 enforces that on every
verdict dispatch; CTR003 keeps float ``==`` out of scoring code.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.linter import (
    Finding,
    LintContext,
    Rule,
    dotted_name,
    register,
)

_VERDICT_MEMBERS = {"VERIFIED", "REFUTED", "NOT_RELATED"}


def _verdict_member(node: ast.AST) -> Optional[str]:
    """'VERIFIED' for an expression like ``Verdict.VERIFIED``, else None."""
    name = dotted_name(node)
    if "." in name:
        prefix, member = name.rsplit(".", 1)
        if prefix.split(".")[-1] == "Verdict" and member in _VERDICT_MEMBERS:
            return member
    return None


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk ``func`` without descending into nested function defs."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@register
class VerdictExhaustivenessRule(Rule):
    rule_id = "CTR002"
    name = "verdict-exhaustiveness"
    category = "contracts"
    description = (
        "A dispatch over Verdict (match statement, or an if/elif chain "
        "testing two or more members) must cover all three members or "
        "carry an explicit else/wildcard."
    )
    node_types = (ast.Match, ast.If)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if isinstance(node, ast.Match):
            yield from self._visit_match(node, ctx)
        else:
            yield from self._visit_if(node, ctx)

    def _visit_match(self, node: ast.Match, ctx: LintContext) -> Iterator[Finding]:
        covered: Set[str] = set()
        verdict_cases = 0
        for case in node.cases:
            pattern = case.pattern
            if isinstance(pattern, ast.MatchValue):
                member = _verdict_member(pattern.value)
                if member is not None:
                    covered.add(member)
                    verdict_cases += 1
            elif isinstance(pattern, ast.MatchAs) and pattern.pattern is None:
                return  # wildcard `case _:` — exhaustive by construction
            elif isinstance(pattern, ast.MatchOr):
                for alt in pattern.patterns:
                    if isinstance(alt, ast.MatchValue):
                        member = _verdict_member(alt.value)
                        if member is not None:
                            covered.add(member)
                            verdict_cases += 1
        if verdict_cases and covered != _VERDICT_MEMBERS:
            missing = ", ".join(sorted(_VERDICT_MEMBERS - covered))
            yield self.finding(
                ctx, node,
                f"match over Verdict misses {missing} and has no "
                "wildcard case",
            )

    @staticmethod
    def _chain_test(test: ast.AST) -> Optional[Tuple[str, str]]:
        """(subject dump, member) when ``test`` is `x is Verdict.M`."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.Eq))
            and len(test.comparators) == 1
        ):
            return None
        left, right = test.left, test.comparators[0]
        member = _verdict_member(right)
        subject = left
        if member is None:
            member = _verdict_member(left)
            subject = right
        if member is None:
            return None
        return ast.dump(subject), member

    def _visit_if(self, node: ast.If, ctx: LintContext) -> Iterator[Finding]:
        parent = ctx.parent(node)
        if (
            isinstance(parent, ast.If)
            and len(parent.orelse) == 1
            and parent.orelse[0] is node
        ):
            return  # an elif arm; the chain head reports
        first = self._chain_test(node.test)
        if first is None:
            return
        subject, member = first
        covered = {member}
        tests = 1
        current: ast.If = node
        while len(current.orelse) == 1 and isinstance(current.orelse[0], ast.If):
            current = current.orelse[0]
            step = self._chain_test(current.test)
            if step is None or step[0] != subject:
                return  # mixed chain; not a pure Verdict dispatch
            covered.add(step[1])
            tests += 1
        if current.orelse:
            return  # explicit else handles the remainder
        if tests >= 2 and covered != _VERDICT_MEMBERS:
            missing = ", ".join(sorted(_VERDICT_MEMBERS - covered))
            yield self.finding(
                ctx, node,
                f"if/elif chain over Verdict misses {missing} and has no "
                "else; handle the remaining verdicts explicitly",
            )


@register
class FloatEqualityRule(Rule):
    rule_id = "CTR003"
    name = "float-equality"
    category = "contracts"
    description = (
        "Scores, margins, and trust weights are floats; == / != on them "
        "is order-of-operations-fragile. Compare with a tolerance "
        "(math.isclose) or an inequality."
    )
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        float_names = self._infer_float_locals(node)
        for sub in _own_nodes(node):
            if not isinstance(sub, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in sub.ops):
                continue
            sides = [sub.left, *sub.comparators]
            if any(self._is_floaty(side, float_names) for side in sides):
                yield self.finding(
                    ctx, sub,
                    "float equality comparison; use math.isclose(...) or "
                    "an inequality",
                )

    def _infer_float_locals(self, func: ast.AST) -> Set[str]:
        """Names assigned (transitively) from float literals / divisions."""
        float_names: Set[str] = set()
        assignments: List[Tuple[str, ast.AST]] = []
        for sub in _own_nodes(func):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        assignments.append((target.id, sub.value))
            elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                if isinstance(sub.target, ast.Name) and sub.value is not None:
                    assignments.append((sub.target.id, sub.value))
        for _ in range(10):  # fixed-point over at most a short chain
            before = len(float_names)
            for name, value in assignments:
                if self._is_floaty(value, float_names):
                    float_names.add(name)
            if len(float_names) == before:
                break
        return float_names

    def _is_floaty(self, expr: ast.AST, float_names: Set[str]) -> bool:
        if isinstance(expr, ast.Constant):
            return isinstance(expr.value, float)
        if isinstance(expr, ast.Name):
            return expr.id in float_names
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Div):
                return True
            return self._is_floaty(expr.left, float_names) or self._is_floaty(
                expr.right, float_names
            )
        if isinstance(expr, ast.UnaryOp):
            return self._is_floaty(expr.operand, float_names)
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id == "float"
        return False
