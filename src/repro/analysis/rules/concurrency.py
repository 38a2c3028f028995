"""IPC002: blocking or unknown code under a lock.

The service shares a few structures between its asyncio I/O thread and
its one verifying thread — the metrics registry, the flight recorder,
the installed event log — each behind a lock.  Code that runs while
such a lock is held must be short and known: a ``time.sleep``, a
zero-argument ``.join()`` / ``.result()`` / ``.wait()``, or a call to
an **injected callable** (a parameter of the enclosing function) under
a lock is a latency cliff at best and a deadlock ingredient at worst.
The metrics registry once called its instrument factory under the
registry lock (tests/analysis_corpus/caught/metrics_factory).

A lock is any ``with`` item whose dotted name contains ``lock``; the
body is walked without descending into nested definitions, which run
on their own schedule.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.linter import (
    Finding,
    LintContext,
    Rule,
    dotted_name,
    register,
)

_BLOCKING_CALLS = {"time.sleep"}
_BLOCKING_METHODS = {"join", "result", "wait"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@register
class BlockingUnderLock(Rule):
    rule_id = "IPC002"
    name = "blocking-under-lock"
    category = "concurrency"
    description = (
        "A known-blocking call or an injected callable runs while a "
        "lock is held."
    )
    node_types = (ast.With,)

    def visit(self, node: ast.With, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_benchmark:
            return
        held = [
            name for name in (dotted_name(i.context_expr) for i in node.items)
            if "lock" in name.lower()
        ]
        function = _enclosing_function(node, ctx)
        if not held or function is None:
            return
        injected = _param_names(function) - _nested_def_names(function)
        imports = _import_map(ctx.tree)
        for call in _body_walk(node):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name) and call.func.id in injected:
                yield self.finding(
                    ctx, call,
                    f"call to injected callable '{call.func.id}' while "
                    f"holding {held[0]} — unknown code under a lock",
                )
            elif _is_blocking(call, imports):
                yield self.finding(
                    ctx, call,
                    f"blocking call "
                    f"'{dotted_name(call.func) or call.func.attr}' "
                    f"while holding {held[0]}",
                )


def _is_blocking(node: ast.Call, imports: Dict[str, str]) -> bool:
    chain = dotted_name(node.func)
    if chain:
        head, dot, rest = chain.partition(".")
        if imports.get(head, head) + dot + rest in _BLOCKING_CALLS:
            return True
    # zero-argument .join()/.result()/.wait(): thread joins and
    # future waits; the argument gate excludes str.join(iterable)
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _BLOCKING_METHODS
        and not node.args
        and not node.keywords
    )


def _enclosing_function(node: ast.AST, ctx: LintContext) -> Optional[ast.AST]:
    """The function whose own body holds ``node``; None at module or
    class level."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
        if isinstance(ancestor, ast.ClassDef):
            return None
    return None


def _param_names(function: ast.AST) -> Set[str]:
    args = function.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return set(names)


def _nested_def_names(function: ast.AST) -> Set[str]:
    """Functions defined in ``function``'s own body: a call by such a
    name runs the local definition, not an injected callable."""
    return {
        node.name for node in _body_walk(function)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _body_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a statement block, yielding but not descending into nested
    function / class definitions."""
    stack: List[ast.AST] = list(node.body)
    while stack:
        current = stack.pop()
        yield current
        if not isinstance(current, _DEFS):
            stack.extend(ast.iter_child_nodes(current))


def _import_map(tree: ast.AST) -> Dict[str, str]:
    """Local alias -> dotted target of the file's imports; a relative
    import keeps its leading dots, so it never names a stdlib call."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{base}.{alias.name}"
    return imports
