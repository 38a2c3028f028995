"""Performance rules (PERF*).

The sealed index representation exists so scoring runs as vectorized
numpy passes over flat contiguous arrays (see
:mod:`repro.index.inverted`).  A per-element Python loop over those
arrays — or over another index's postings dict — silently re-introduces
the interpreted inner loop the sealed form was built to eliminate, and
such regressions don't fail tests (results stay identical); they only
show up in a ``python3 -m bench.run`` pass, which ``make check`` does
not run.  PERF001 catches them at lint time, scoped to
``src/repro/index/`` where the kernels live.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator, List

from repro.analysis.linter import (
    Finding,
    LintContext,
    Rule,
    dotted_name,
    register,
)

#: the sealed form's flat contiguous arrays (CSR postings layout);
#: element-wise iteration over any of these belongs in a numpy kernel
_SEALED_ARRAYS = {"doc_idx", "tf_flat", "idf_flat", "tok_start"}

#: dict-view calls that still iterate the underlying postings
_DICT_VIEWS = {"items", "keys", "values"}


def _in_index_package(rel_path: str) -> bool:
    parts = PurePosixPath(rel_path.replace("\\", "/")).parts
    return any(
        parts[i:i + 2] == ("repro", "index") for i in range(len(parts) - 1)
    )


def _iterated_exprs(node: ast.AST) -> List[ast.expr]:
    """The expressions a loop/comprehension iterates element-wise."""
    if isinstance(node, ast.For):
        return [node.iter]
    return [gen.iter for gen in node.generators]


def _loop_target(expr: ast.expr) -> ast.expr:
    """Strip a trailing ``.items()`` / ``.keys()`` / ``.values()`` call
    so ``for t in index._postings.items()`` resolves to the postings
    attribute itself."""
    if (
        isinstance(expr, ast.Call)
        and not expr.args
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _DICT_VIEWS
    ):
        return expr.func.value
    return expr


@register
class SealedPostingsLoopRule(Rule):
    rule_id = "PERF001"
    name = "postings-python-loop"
    category = "performance"
    description = (
        "A per-element Python loop over a sealed index's flat postings "
        "arrays (doc_idx/tf_flat/idf_flat/tok_start), or over another "
        "object's _postings dict, defeats the vectorized sealed read "
        "path; use the numpy kernels (or slice views) instead.  Scoped "
        "to repro/index/, where the kernels live."
    )
    node_types = (
        ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    )

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if not _in_index_package(ctx.rel_path):
            return
        for expr in _iterated_exprs(node):
            target = _loop_target(expr)
            if not isinstance(target, ast.Attribute):
                continue
            if target.attr in _SEALED_ARRAYS:
                yield self.finding(
                    ctx, node,
                    f"per-element loop over sealed array "
                    f"{dotted_name(target)}; score with the vectorized "
                    "kernel or a numpy slice, not a Python loop",
                )
            elif target.attr == "_postings" and not (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                # an index may walk its own write-path dict (compact,
                # seal); reaching into ANOTHER object's postings per
                # element is the slow path the sealed kernels replace
                yield self.finding(
                    ctx, node,
                    f"per-element loop over {dotted_name(target)}; "
                    "consume the sealed arrays (search_batch / "
                    "rank_planned) instead of walking another "
                    "index's postings dict",
                )
