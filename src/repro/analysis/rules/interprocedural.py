"""Whole-program rules: blocking under a lock, escape analysis.

These are the rules the per-file engine structurally cannot express —
each one needs the :class:`~repro.analysis.project.Project` symbol
tables and the conservative :class:`~repro.analysis.callgraph.CallGraph`:

* **IPC002** — blocking or unknown code under a lock: ``time.sleep``,
  zero-argument ``.join()`` / ``.result()`` / ``.wait()``, and calls to
  *injected callables* (function parameters) while a lock is held.
  Arbitrary code under a lock is a latency cliff at best and a deadlock
  ingredient at worst.
* **IPE001** — escape analysis: unsynchronized check-then-act lazy
  initialization (``if self._x is None: self._x = ...``, including the
  guard-return form and ``if key not in CACHE: CACHE[key] = ...``) in
  functions reachable from a **thread entry point**.  Two pool workers
  hitting the window between check and act double-build at best and
  publish a half-built structure at worst.

Precision choices (documented in docs/static_analysis.md): lock
identities are name-qualified, so only locks the code names lock-ishly
count as held; reachability follows dynamic-dispatch fallback edges.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.linter import (
    Finding,
    ProjectRule,
    dotted_name,
    register_project,
)
from repro.analysis.project import FunctionInfo, ModuleInfo, Project


# ----------------------------------------------------------------------
# the call graph, built once per project and shared by both rules
# ----------------------------------------------------------------------
def _graph(project: Project) -> CallGraph:
    graph = getattr(project, "_callgraph", None)
    if graph is None:
        graph = CallGraph(project)
        project._callgraph = graph  # type: ignore[attr-defined]
    return graph


def _body_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a statement block without descending into nested function /
    class definitions (those run on their own schedule)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    stack = [s for s in getattr(node, "body", []) if not isinstance(s, defs)]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(child, defs):
                continue
            stack.append(child)


def _lock_identity(
    expr: ast.AST, fn: FunctionInfo, mod: ModuleInfo
) -> Optional[str]:
    """A qualified, project-stable identity for a lock expression, or
    None when the expression is not lock-ish.  ``self._lock`` ->
    ``module.Class._lock``; module-global ``_LOCK`` -> ``module._LOCK``;
    anything else lock-ish is scoped to the function."""
    name = dotted_name(expr)
    if not name or "lock" not in name.lower():
        return None
    if name.startswith("self.") and fn.class_name is not None:
        return f"{mod.name}.{fn.class_name}.{name.split('.', 1)[1]}"
    head = name.split(".")[0]
    target = mod.imports.get(head) or mod.top_level.get(head)
    if target is not None:
        return ".".join([target] + name.split(".")[1:])
    return f"{fn.qualname}.<{name}>"


class _LockModel:
    """Which locks each function acquires, and where (its ``with``
    statements on lock-ish expressions)."""

    def __init__(self, project: Project) -> None:
        #: qualname -> [(lock id, With node)]
        self.acquisitions: Dict[str, List[Tuple[str, ast.With]]] = {}
        for qualname in sorted(project.functions):
            fn = project.functions[qualname]
            mod = project.modules[fn.module]
            acquired: List[Tuple[str, ast.With]] = []
            for node in fn.body_nodes():
                if isinstance(node, ast.With):
                    for item in node.items:
                        lock = _lock_identity(item.context_expr, fn, mod)
                        if lock is not None:
                            acquired.append((lock, node))
            self.acquisitions[qualname] = acquired


# ----------------------------------------------------------------------
# IPC002: blocking / unknown code under a lock
# ----------------------------------------------------------------------
_BLOCKING_CALLS = {"time.sleep"}
_BLOCKING_METHODS = {"join", "result", "wait"}


@register_project
class BlockingUnderLock(ProjectRule):
    rule_id = "IPC002"
    name = "blocking-under-lock"
    category = "concurrency"
    description = (
        "A known-blocking call or an injected callable runs while a "
        "lock is held."
    )

    def visit_project(self, project: Project) -> Iterator[Finding]:
        graph = _graph(project)
        model = _LockModel(project)
        for qualname in sorted(model.acquisitions):
            fn = project.functions[qualname]
            mod = project.modules[fn.module]
            if mod.ctx.is_benchmark:
                continue
            param_sites = {
                id(site.node): site
                for site in graph.callees(qualname)
                if site.is_param
            }
            for held, with_node in model.acquisitions[qualname]:
                for node in _body_walk(with_node):
                    if not isinstance(node, ast.Call):
                        continue
                    site = param_sites.get(id(node))
                    if site is not None:
                        yield project.finding(
                            self, mod, node,
                            f"call to injected callable "
                            f"'{site.callee.split(':', 1)[1]}' while "
                            f"holding {held} — unknown code under a lock",
                        )
                        continue
                    if self._is_blocking(node, mod):
                        yield project.finding(
                            self, mod, node,
                            f"blocking call "
                            f"'{dotted_name(node.func) or node.func.attr}' "
                            f"while holding {held}",
                        )

    @staticmethod
    def _is_blocking(node: ast.Call, mod: ModuleInfo) -> bool:
        chain = dotted_name(node.func)
        if chain:
            head = chain.split(".")[0]
            expanded = chain
            if head in mod.imports:
                expanded = ".".join(
                    [mod.imports[head]] + chain.split(".")[1:]
                )
            if expanded in _BLOCKING_CALLS:
                return True
        # zero-argument .join()/.result()/.wait(): thread joins and
        # future waits; the argument gate excludes str.join(iterable)
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _BLOCKING_METHODS
            and not node.args
            and not node.keywords
        )


# ----------------------------------------------------------------------
# IPE001: unsynchronized lazy init reachable from a thread entry
# ----------------------------------------------------------------------
@register_project
class EscapedLazyInit(ProjectRule):
    rule_id = "IPE001"
    name = "escaped-lazy-init"
    category = "concurrency"
    description = (
        "Check-then-act lazy initialization of shared state in code "
        "reachable from a thread-pool entry point, with no lock held."
    )

    def visit_project(self, project: Project) -> Iterator[Finding]:
        graph = _graph(project)
        reachable = graph.reachable(graph.thread_entries)
        for qualname in sorted(reachable):
            fn = project.functions.get(qualname)
            if fn is None:
                continue
            if fn.name in ("__init__", "__new__"):
                continue
            if fn.name.endswith("_locked"):
                continue  # repo convention: caller holds the lock
            mod = project.modules[fn.module]
            if mod.ctx.is_benchmark:
                continue
            for node in fn.body_nodes():
                if isinstance(node, ast.If):
                    yield from self._check_lazy_init(
                        project, graph, fn, mod, node
                    )

    def _check_lazy_init(
        self,
        project: Project,
        graph: CallGraph,
        fn: FunctionInfo,
        mod: ModuleInfo,
        if_node: ast.If,
    ) -> Iterator[Finding]:
        target = _lazy_target(if_node.test)
        if target is None:
            return
        (kind, name), polarity = target
        if "lock" in name.lower():
            return
        if kind == "global" and name not in mod.top_level:
            return  # a local can't be shared state
        if polarity == "after":
            # guard-return form: `if self._x is not None: return ...`
            if not any(isinstance(s, ast.Return) for s in if_node.body):
                return
            scope = _statements_after(mod, if_node)
        else:
            scope = if_node.body
        for write in _find_writes(scope, kind, name):
            if _under_lock(mod, write, fn.node):
                continue
            desc = f"self.{name}" if kind == "self" else f"{mod.name}.{name}"
            chain = graph.path(graph.thread_entries, fn.qualname)
            entry = chain[0] if chain else fn.qualname
            yield project.finding(
                self, mod, write,
                f"unsynchronized lazy initialization of {desc} in "
                f"{fn.qualname}, reachable from thread entry {entry}; "
                f"guard the check-then-act with a lock",
            )
            return  # one finding per check-then-act site


def _lazy_target(
    test: ast.AST,
) -> Optional[Tuple[Tuple[str, str], str]]:
    """Classify a lazy-init check.  Returns ``((kind, name), polarity)``
    where polarity says whether the act lives in the if-body or in the
    statements after a guard-return."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        op = test.ops[0]
        left, right = test.left, test.comparators[0]
        if isinstance(op, ast.Is) and _is_none(right):
            key = _store_key(left)
            if key:
                return key, "body"
        if isinstance(op, ast.IsNot) and _is_none(right):
            key = _store_key(left)
            if key:
                return key, "after"
        if isinstance(op, ast.NotIn):
            key = _store_key(right)
            if key:
                return key, "body"
        if isinstance(op, ast.In):
            key = _store_key(right)
            if key:
                return key, "after"
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        key = _store_key(test.operand)
        if key:
            return key, "body"
    return None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _store_key(expr: ast.AST) -> Optional[Tuple[str, str]]:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return ("self", expr.attr)
    if isinstance(expr, ast.Name):
        return ("global", expr.id)
    return None


def _find_writes(
    statements, kind: str, name: str
) -> Iterator[ast.AST]:
    stack = list(statements)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if kind == "self":
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr == name
                    ):
                        yield node
                else:
                    if isinstance(target, ast.Name) and target.id == name:
                        yield node
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == name
                    ):
                        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef),
            ):
                continue
            stack.append(child)


def _statements_after(mod: ModuleInfo, if_node: ast.If) -> List[ast.AST]:
    parent = mod.ctx.parent(if_node)
    if parent is None:
        return []
    for field_name in ("body", "orelse", "finalbody"):
        block = getattr(parent, field_name, None)
        if isinstance(block, list) and if_node in block:
            return block[block.index(if_node) + 1:]
    return []


def _under_lock(mod: ModuleInfo, node: ast.AST, fn_node: ast.AST) -> bool:
    for ancestor in mod.ctx.ancestors(node):
        if ancestor is fn_node:
            return False
        if isinstance(ancestor, ast.With):
            for item in ancestor.items:
                name = dotted_name(item.context_expr)
                if name and "lock" in name.lower():
                    return True
    return False
