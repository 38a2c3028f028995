"""The whole-program project model behind the interprocedural rules.

The per-file rule engine (:mod:`repro.analysis.linter`) sees one AST at
a time; blocking calls under a lock and escaped-to-a-thread-pool state
are invisible to it.  This module builds
the shared substrate those analyses need:

* a **module table** — every ``.py`` file under the linted roots, keyed
  by its dotted module name, with the per-file :class:`LintContext`
  (pragmas, snippets) kept alongside so whole-program findings anchor
  and suppress exactly like per-file ones;
* a **symbol table** — every function, method, and class with a stable
  qualified name (``repro.core.indexer.IndexerModule.build``), plus
  nested functions and lambdas (thread-pool workers are usually one of
  the two);
* an **import map** per module — local alias -> dotted target — so call
  sites can be resolved across module boundaries.

Everything here is deterministic: tables are sorted, iteration never
touches hash order, and no wall-clock or absolute path leaks into any
derived structure (the JSON report must be byte-stable across runs).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.linter import (
    Finding,
    LintContext,
    Rule,
    _annotate_parents,
    _parse_pragmas,
)


@dataclass
class FunctionInfo:
    """One function, method, nested function, or lambda."""

    qualname: str            #: e.g. ``repro.core.indexer.IndexerModule.build``
    module: str              #: dotted module name
    name: str                #: unqualified name (``build``, ``<lambda:12>``)
    node: ast.AST            #: FunctionDef / AsyncFunctionDef / Lambda
    class_name: Optional[str] = None  #: owning class, if a method

    def body_nodes(self) -> Iterator[ast.AST]:
        """Walk this function's own body, NOT descending into nested
        function/class definitions (those are separate symbols)."""
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                ast.ClassDef)
        if isinstance(self.node, ast.Lambda):
            roots: List[ast.AST] = [self.node.body]
        else:
            roots = [s for s in self.node.body if not isinstance(s, defs)]
        stack = list(roots)
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, defs):
                    continue
                stack.append(child)

    def param_names(self) -> List[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs] if hasattr(
            args, "posonlyargs"
        ) else []
        names += [a.arg for a in args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names += [a.arg for a in args.kwonlyargs]
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  #: raw dotted base names
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file plus its lint context."""

    name: str                #: dotted module name
    rel_path: str
    tree: ast.Module
    ctx: LintContext
    #: local alias -> dotted target (``persistence`` ->
    #: ``repro.datalake.persistence``; ``save_lake`` ->
    #: ``repro.datalake.persistence.save_lake``)
    imports: Dict[str, str] = field(default_factory=dict)
    #: names defined at module top level (functions, classes, constants)
    top_level: Dict[str, str] = field(default_factory=dict)


def module_name_for(rel_path: str) -> str:
    """Dotted module name of a repo-relative path.

    ``src/repro/core/batch.py`` -> ``repro.core.batch``; package
    ``__init__.py`` files name the package itself.  Paths outside a
    ``src`` layout keep their own stem-based name so fixture files and
    standalone scripts still get unique identities.
    """
    parts = list(Path(rel_path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return rel_path
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [leaf]
    return ".".join(parts) if parts else leaf


def _collect_imports(tree: ast.Module, module_name: str) -> Dict[str, str]:
    package = module_name.rsplit(".", 1)[0] if "." in module_name else ""
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
            base = node.module or ""
            if node.level:
                anchor = module_name.split(".")
                anchor = anchor[: len(anchor) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
    return imports


class Project:
    """The whole-program view: modules, classes, functions, methods."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        for mod in sorted(modules, key=lambda m: m.name):
            self.modules[mod.name] = mod
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: dynamic-dispatch fallback table: method name -> defining methods
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: per-file raw findings (pre-pragma), set by the
        #: linter before the whole-program phase so META001 can audit
        #: pragma liveness against what actually fired
        self.file_findings: Dict[str, List[Finding]] = {}
        for mod in self.modules.values():
            self._index_module(mod)
        for name in self.methods_by_name:
            self.methods_by_name[name].sort(key=lambda f: f.qualname)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build a project from ``{rel_path_or_dotted_name: source}``
        (unit-test entry point; mirrors what the linter does on disk)."""
        modules: List[ModuleInfo] = []
        for key in sorted(sources):
            source = sources[key]
            rel_path = key if key.endswith(".py") else (
                key.replace(".", "/") + ".py"
            )
            tree = ast.parse(source, filename=rel_path)
            _annotate_parents(tree)
            lines = source.splitlines()
            line_pragmas, file_pragmas = _parse_pragmas(lines)
            ctx = LintContext(
                path=Path(rel_path),
                rel_path=rel_path,
                source=source,
                tree=tree,
                lines=lines,
                line_pragmas=line_pragmas,
                file_pragmas=file_pragmas,
                is_benchmark="benchmarks" in Path(rel_path).parts,
            )
            modules.append(module_info(ctx))
        return cls(modules)

    def _index_module(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(mod, stmt, prefix=mod.name)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(mod, stmt)

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{mod.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=mod.name,
            name=node.name,
            node=node,
            bases=[_base_name(b) for b in node.bases],
        )
        self.classes[qualname] = info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self._index_function(
                    mod, stmt, prefix=qualname, class_name=node.name
                )
                info.methods[stmt.name] = fn

    def _index_function(
        self,
        mod: ModuleInfo,
        node: ast.AST,
        prefix: str,
        class_name: Optional[str] = None,
    ) -> FunctionInfo:
        name = getattr(node, "name", None) or f"<lambda:{node.lineno}>"
        qualname = f"{prefix}.{name}"
        info = FunctionInfo(
            qualname=qualname,
            module=mod.name,
            name=name,
            node=node,
            class_name=class_name,
        )
        self.functions[qualname] = info
        if class_name is not None:
            self.methods_by_name.setdefault(name, []).append(info)
        # nested defs and lambdas become their own symbols (thread-pool
        # workers are usually one of the two)
        self._index_nested(mod, node, qualname)
        return info

    def _index_nested(
        self, mod: ModuleInfo, node: ast.AST, prefix: str
    ) -> None:
        roots = (
            [node.body] if isinstance(node, ast.Lambda) else list(node.body)
        )
        stack = list(roots)
        while stack:
            current = stack.pop()
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                self._index_function(mod, current, prefix=prefix)
                continue
            if isinstance(current, ast.ClassDef):
                continue  # nested classes: out of scope
            stack.extend(ast.iter_child_nodes(current))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def resolve_class(
        self, mod: ModuleInfo, raw_name: str
    ) -> Optional[ClassInfo]:
        """Resolve a (possibly dotted, possibly aliased) class name as
        seen from ``mod``."""
        if not raw_name:
            return None
        head, _, rest = raw_name.partition(".")
        target = mod.imports.get(head)
        if target is not None:
            dotted = f"{target}.{rest}" if rest else target
        else:
            dotted = f"{mod.name}.{raw_name}"
        if dotted in self.classes:
            return self.classes[dotted]
        # ``from x import Cls`` maps the alias straight to the class
        if raw_name in mod.imports and mod.imports[raw_name] in self.classes:
            return self.classes[mod.imports[raw_name]]
        return None

    def resolve_method(
        self, cls: ClassInfo, method_name: str
    ) -> Optional[FunctionInfo]:
        """Method lookup through the project-visible base-class chain."""
        seen = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if method_name in current.methods:
                return current.methods[method_name]
            mod = self.modules.get(current.module)
            if mod is None:
                continue
            for base in current.bases:
                base_cls = self.resolve_class(mod, base)
                if base_cls is not None:
                    queue.append(base_cls)
        return None

    def finding(
        self, rule: Rule, mod: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored in ``mod`` (whole-program rules
        anchor findings in whichever file holds the offending node)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=rule.rule_id,
            path=mod.rel_path,
            line=line,
            col=col,
            message=message,
            snippet=mod.ctx.line_text(line),
        )


def _base_name(node: ast.AST) -> str:
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


def module_info(ctx: LintContext) -> ModuleInfo:
    """Lift one per-file lint context into the project model."""
    name = module_name_for(ctx.rel_path)
    tree = ctx.tree
    return ModuleInfo(
        name=name,
        rel_path=ctx.rel_path,
        tree=tree,
        ctx=ctx,
        imports=_collect_imports(tree, name),
        top_level=_top_level_names(tree, name),
    )


def _top_level_names(tree: ast.Module, module_name: str) -> Dict[str, str]:
    names: Dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[stmt.name] = f"{module_name}.{stmt.name}"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = f"{module_name}.{target.id}"
    return names
