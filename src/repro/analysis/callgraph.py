"""A conservative call graph over the project model.

Resolution is name-based and deliberately over-approximate — the
interprocedural rules need "may call", never "must call":

* ``name(...)`` resolves through the module's import map, its own
  top-level definitions, enclosing-function parameters (recorded as
  ``param:<name>`` so the lock rules can flag injected callables), and
  nested definitions;
* ``self.method(...)`` resolves through the enclosing class's
  project-visible base chain (method resolution order, breadth-first);
* ``obj.method(...)`` with an unknown receiver falls back to **every**
  project method of that name (dynamic-dispatch fallback) — imprecise,
  but it is what lets the escape analysis follow a batch worker through
  ``Combiner.search`` into whichever index actually answers;
* ``Class(...)`` resolves to ``Class.__init__``.

Unresolved calls are kept as ``external:<dotted>`` edges so rules can
still reason about known-blocking stdlib primitives.

The graph also classifies **thread entry points**: callables handed to
``threading.Thread(target=...)`` or to a ``ThreadPoolExecutor``'s
``submit``/``map``.  Process pools are deliberately excluded — workers
in another address space cannot race on this process's memory, which is
exactly the distinction the escape analysis needs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.analysis.linter import dotted_name
from repro.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    Project,
)


@dataclass(frozen=True)
class CallSite:
    """One call expression, resolved as far as names allow."""

    caller: str              #: qualname of the enclosing function
    callee: str              #: qualname, ``external:<dotted>``, or ``param:<n>``
    node: ast.Call
    module: str

    @property
    def is_param(self) -> bool:
        return self.callee.startswith("param:")


class CallGraph:
    """Call sites per function plus the thread-entry classification."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.calls: Dict[str, List[CallSite]] = {}
        self.thread_entries: List[str] = []
        self._process_factories = self._find_process_factories()
        for qualname in sorted(project.functions):
            self.calls[qualname] = self._resolve_function(
                project.functions[qualname]
            )
        self.thread_entries = sorted(set(self._find_thread_entries()))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def callees(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Every project function transitively callable from ``roots``."""
        seen: Set[str] = set()
        queue = [r for r in roots if r in self.calls]
        while queue:
            current = queue.pop()
            if current in seen:
                continue
            seen.add(current)
            for site in self.calls.get(current, ()):
                if site.callee in self.calls and site.callee not in seen:
                    queue.append(site.callee)
        return seen

    def path(self, roots: Sequence[str], target: str) -> List[str]:
        """A deterministic shortest call chain root -> ... -> target
        (empty when unreachable); used to explain findings."""
        parents: Dict[str, Optional[str]] = {}
        queue: List[str] = []
        for root in sorted(roots):
            if root in self.calls and root not in parents:
                parents[root] = None
                queue.append(root)
        index = 0
        while index < len(queue):
            current = queue[index]
            index += 1
            if current == target:
                chain: List[str] = []
                walk: Optional[str] = current
                while walk is not None:
                    chain.append(walk)
                    walk = parents[walk]
                return list(reversed(chain))
            for site in self.calls.get(current, ()):
                callee = site.callee
                if callee in self.calls and callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return []

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve_function(self, fn: FunctionInfo) -> List[CallSite]:
        mod = self.project.modules[fn.module]
        params = set(fn.param_names())
        sites: List[CallSite] = []
        for node in fn.body_nodes():
            if isinstance(node, ast.Call):
                sites.extend(self._resolve_call(fn, mod, params, node))
        sites.sort(key=lambda s: (s.node.lineno, s.node.col_offset, s.callee))
        return sites

    def _resolve_call(
        self,
        fn: FunctionInfo,
        mod: ModuleInfo,
        params: Set[str],
        node: ast.Call,
    ) -> Iterator[CallSite]:
        func = node.func
        if isinstance(func, ast.Name):
            yield from self._resolve_name_call(fn, mod, params, node, func.id)
        elif isinstance(func, ast.Attribute):
            yield from self._resolve_attr_call(fn, mod, node, func)
        elif isinstance(func, ast.Lambda):
            # immediately-invoked lambda: resolved as its own symbol
            yield CallSite(
                caller=fn.qualname,
                callee=f"{fn.qualname}.<lambda:{func.lineno}>",
                node=node,
                module=mod.name,
            )
        else:
            yield CallSite(
                caller=fn.qualname,
                callee="external:<dynamic>",
                node=node,
                module=mod.name,
            )

    def _resolve_name_call(
        self,
        fn: FunctionInfo,
        mod: ModuleInfo,
        params: Set[str],
        node: ast.Call,
        name: str,
    ) -> Iterator[CallSite]:
        nested = f"{fn.qualname}.{name}"
        if nested in self.project.functions:
            yield self._site(fn, mod, node, nested)
            return
        if name in params:
            yield CallSite(
                caller=fn.qualname,
                callee=f"param:{name}",
                node=node,
                module=mod.name,
            )
            return
        target = mod.imports.get(name) or mod.top_level.get(name)
        if target is not None:
            resolved = self._resolve_dotted(target)
            if resolved is not None:
                yield self._site(fn, mod, node, resolved)
                return
            yield self._site(fn, mod, node, f"external:{target}")
            return
        yield self._site(fn, mod, node, f"external:{name}")

    def _resolve_attr_call(
        self,
        fn: FunctionInfo,
        mod: ModuleInfo,
        node: ast.Call,
        func: ast.Attribute,
    ) -> Iterator[CallSite]:
        chain = dotted_name(func)
        attr = func.attr
        if chain.startswith("self.") and fn.class_name is not None:
            cls = self.project.classes.get(f"{mod.name}.{fn.class_name}")
            if cls is not None and chain.count(".") == 1:
                resolved = self.project.resolve_method(cls, attr)
                if resolved is not None:
                    yield self._site(fn, mod, node, resolved.qualname)
                    return
            yield from self._fallback(fn, mod, node, attr)
            return
        if chain:
            head = chain.split(".")[0]
            target = mod.imports.get(head)
            if target is not None:
                rest = chain.split(".")[1:]
                resolved = self._resolve_dotted(
                    ".".join([target] + rest)
                )
                if resolved is not None:
                    yield self._site(fn, mod, node, resolved)
                    return
                yield self._site(
                    fn, mod, node,
                    f"external:{'.'.join([target] + rest)}",
                )
                return
        yield from self._fallback(fn, mod, node, attr)

    def _fallback(
        self,
        fn: FunctionInfo,
        mod: ModuleInfo,
        node: ast.Call,
        method_name: str,
    ) -> Iterator[CallSite]:
        """Dynamic-dispatch fallback: an unknown receiver may be any
        project class defining ``method_name``."""
        candidates = self.project.methods_by_name.get(method_name, ())
        if not candidates:
            yield self._site(fn, mod, node, f"external:.{method_name}")
            return
        for candidate in candidates:
            yield self._site(fn, mod, node, candidate.qualname)

    def _resolve_dotted(self, target: str) -> Optional[str]:
        """Map a fully expanded dotted name to a project symbol:
        function, ``Class`` (-> ``__init__``), or ``Class.method``."""
        if target in self.project.functions:
            return target
        if target in self.project.classes:
            init = self.project.classes[target].methods.get("__init__")
            return init.qualname if init is not None else target
        head, _, tail = target.rpartition(".")
        if head in self.project.classes and tail:
            cls = self.project.classes[head]
            resolved = self.project.resolve_method(cls, tail)
            if resolved is not None:
                return resolved.qualname
        return None

    def _site(
        self, fn: FunctionInfo, mod: ModuleInfo, node: ast.Call, callee: str
    ) -> CallSite:
        return CallSite(
            caller=fn.qualname, callee=callee, node=node, module=mod.name
        )

    # ------------------------------------------------------------------
    # thread entry points
    # ------------------------------------------------------------------
    def _find_process_factories(self) -> Set[str]:
        """Project functions that hand out process pools (classified by
        a ``Process``-flavoured return annotation or name)."""
        factories: Set[str] = set()
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            returns = getattr(fn.node, "returns", None)
            rendered = ""
            if returns is not None:
                rendered = dotted_name(returns) or getattr(
                    returns, "value", ""
                )
                rendered = str(rendered)
            if "Process" in rendered or "process_pool" in fn.name:
                factories.add(qualname)
        return factories

    def _executor_kinds(self, fn: FunctionInfo) -> Dict[str, str]:
        """Local name -> 'thread' | 'process' for executor variables
        bound in ``fn`` (constructor calls, ``with ... as`` aliases, and
        project pool-factory calls)."""
        kinds: Dict[str, str] = {}
        mod = self.project.modules[fn.module]

        def classify_call(call: ast.Call) -> Optional[str]:
            name = dotted_name(call.func)
            if not name:
                return None
            head = name.split(".")[0]
            expanded = name
            if head in mod.imports:
                expanded = ".".join(
                    [mod.imports[head]] + name.split(".")[1:]
                )
            leaf = expanded.split(".")[-1]
            if leaf == "ThreadPoolExecutor":
                return "thread"
            if leaf == "ProcessPoolExecutor":
                return "process"
            resolved = None
            if isinstance(call.func, ast.Name):
                target = mod.imports.get(call.func.id) or mod.top_level.get(
                    call.func.id
                )
                if target is not None:
                    resolved = self._resolve_dotted(target) or target
            if resolved is not None and resolved in self._process_factories:
                return "process"
            return None

        for node in fn.body_nodes():
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                kind = classify_call(node.value)
                if kind is not None:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            kinds[target.id] = kind
            elif isinstance(node, ast.With):
                for item in node.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and item.optional_vars is not None
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        kind = classify_call(item.context_expr)
                        if kind is not None:
                            kinds[item.optional_vars.id] = kind
        return kinds

    def _callable_ref(
        self, fn: FunctionInfo, mod: ModuleInfo, node: ast.AST
    ) -> Optional[str]:
        """Resolve a callable *reference* (not call) to a qualname."""
        if isinstance(node, ast.Lambda):
            return f"{fn.qualname}.<lambda:{node.lineno}>"
        if isinstance(node, ast.Name):
            nested = f"{fn.qualname}.{node.id}"
            if nested in self.project.functions:
                return nested
            target = mod.imports.get(node.id) or mod.top_level.get(node.id)
            if target is not None:
                return self._resolve_dotted(target)
            return None
        if isinstance(node, ast.Attribute):
            chain = dotted_name(node)
            if chain.startswith("self.") and fn.class_name is not None:
                cls = self.project.classes.get(
                    f"{mod.name}.{fn.class_name}"
                )
                if cls is not None and chain.count(".") == 1:
                    resolved = self.project.resolve_method(cls, node.attr)
                    if resolved is not None:
                        return resolved.qualname
            candidates = self.project.methods_by_name.get(node.attr, ())
            if len(candidates) == 1:
                return candidates[0].qualname
        return None

    def _find_thread_entries(self) -> Iterator[str]:
        for qualname in sorted(self.project.functions):
            fn = self.project.functions[qualname]
            mod = self.project.modules[fn.module]
            kinds = self._executor_kinds(fn)
            for node in fn.body_nodes():
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                # threading.Thread(target=worker)
                chain = dotted_name(func)
                head = chain.split(".")[0] if chain else ""
                expanded = chain
                if head and head in mod.imports:
                    expanded = ".".join(
                        [mod.imports[head]] + chain.split(".")[1:]
                    )
                if expanded.endswith("Thread") and "threading" in expanded:
                    for kw in node.keywords:
                        if kw.arg == "target":
                            ref = self._callable_ref(fn, mod, kw.value)
                            if ref is not None:
                                yield ref
                    continue
                # pool.submit(worker, ...) / pool.map(worker, ...)
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("submit", "map")
                    and isinstance(func.value, ast.Name)
                ):
                    kind = kinds.get(func.value.id)
                    if kind != "thread":
                        continue
                    if node.args:
                        ref = self._callable_ref(fn, mod, node.args[0])
                        if ref is not None:
                            yield ref
