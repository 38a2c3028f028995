"""Performance rules (PERF*).

The sealed index representation exists so scoring runs as vectorized
numpy passes over flat contiguous arrays (see
:mod:`repro.index.inverted`).  A per-element Python loop over those
arrays silently re-introduces the interpreted inner loop the sealed
form was built to eliminate, and
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


@register
class SealedPostingsLoopRule(Rule):
    rule_id = "PERF001"
    name = "postings-python-loop"
    category = "performance"
    description = (
        "A per-element Python loop over a sealed index's flat postings "
        "arrays (doc_idx/tf_flat/idf_flat/tok_start) defeats the "
        "vectorized sealed read path; use the numpy kernels (or slice "
        "views) instead.  Scoped "
        "to repro/index/, where the kernels live."
    )
    node_types = (
        ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    )

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        if not _in_index_package(ctx.rel_path):
            return
        for target in _iterated_exprs(node):
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _SEALED_ARRAYS
            ):
                yield self.finding(
                    ctx, node,
                    f"per-element loop over sealed array "
                    f"{dotted_name(target)}; score with the vectorized "
                    "kernel or a numpy slice, not a Python loop",
                )
