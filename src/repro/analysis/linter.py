"""The repro-lint rule engine.

Linting runs in **two phases**:

1. *per-file* — a single-pass AST walker with a rule registry: each
   :class:`Rule` declares the node types it wants to see, the engine
   parses every file once and dispatches nodes to interested rules;
2. *whole-program* — the per-file contexts are lifted into a
   :class:`~repro.analysis.project.Project` (module + symbol tables, a
   conservative call graph) and every registered :class:`ProjectRule`
   runs once over it.  This is where the interprocedural rules live:
   blocking calls under a lock (IPC002), escape analysis for
   pool-shared state (IPE001), and the stale-pragma audit (META001),
   which needs both phases' raw findings to decide whether a
   suppression still suppresses anything.

Findings from both phases are filtered through inline ``# repro-lint:
disable=RULE`` pragmas — the one way to suppress a finding — before
being returned.

The rules themselves live in :mod:`repro.analysis.rules`; each one
stays only while it has caught a real defect (the keep rule in
docs/static_analysis.md).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type,
)

#: matches trailing ``disable=DET003`` / ``disable-file=DET003,CTR003``
#: suppression comments (introduced by a hash and the tool name)
_PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)

#: directory / file names never linted
_SKIP_PARTS = {"__pycache__", ".git", ".pytest_cache"}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class Rule:
    """Base class for lint rules.

    Subclasses set ``rule_id``/``name``/``category``/``description`` and
    the AST ``node_types`` they inspect, then implement :meth:`visit`.
    """

    rule_id: str = ""
    name: str = ""
    category: str = ""
    description: str = ""
    node_types: Tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: "LintContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: "LintContext", node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.rule_id,
            path=ctx.rel_path,
            line=line,
            col=col,
            message=message,
            snippet=ctx.line_text(line),
        )


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Runs once per lint invocation over the assembled
    :class:`~repro.analysis.project.Project` instead of per AST node;
    findings anchor in whichever file holds the offending node, so
    pragmas apply exactly as for per-file rules.
    """

    node_types: Tuple[type, ...] = (ast.Module,)  # satisfies Rule contract

    def visit(self, node: ast.AST, ctx: "LintContext") -> Iterator[Finding]:
        return iter(())  # project rules do not run in the per-file phase

    def visit_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError


_RULE_REGISTRY: List[Type[Rule]] = []
_PROJECT_RULE_REGISTRY: List[Type[ProjectRule]] = []


def _check_new_rule(cls: Type[Rule]) -> None:
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    taken = [c.rule_id for c in _RULE_REGISTRY]
    taken += [c.rule_id for c in _PROJECT_RULE_REGISTRY]
    if cls.rule_id in taken:
        raise ValueError(f"duplicate rule id {cls.rule_id}")


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a per-file rule to the global registry."""
    _check_new_rule(cls)
    _RULE_REGISTRY.append(cls)
    return cls


def register_project(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Class decorator adding a whole-program rule to the registry."""
    _check_new_rule(cls)
    _PROJECT_RULE_REGISTRY.append(cls)
    return cls


def all_rules() -> List[Rule]:
    """One fresh instance of every registered per-file rule, id-sorted."""
    # importing the package populates the registry
    from repro.analysis import rules as _rules  # noqa: F401

    return [cls() for cls in sorted(_RULE_REGISTRY, key=lambda c: c.rule_id)]


def all_project_rules() -> List[ProjectRule]:
    """One fresh instance of every whole-program rule, id-sorted."""
    from repro.analysis import rules as _rules  # noqa: F401

    return [
        cls() for cls in sorted(_PROJECT_RULE_REGISTRY, key=lambda c: c.rule_id)
    ]


def known_rule_ids() -> List[str]:
    """Every registered rule id (both phases) plus the engine's own
    ``E001`` syntax marker — the universe META001 validates pragmas
    against."""
    ids = {cls.rule_id for cls in _RULE_REGISTRY}
    ids |= {cls.rule_id for cls in _PROJECT_RULE_REGISTRY}
    ids.add("E001")
    return sorted(ids)


@dataclass
class LintContext:
    """Everything a rule may ask about the file being linted."""

    path: Path
    rel_path: str
    source: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    #: line number -> set of rule ids disabled on that line
    line_pragmas: Dict[int, set] = field(default_factory=dict)
    #: rule ids disabled for the whole file
    file_pragmas: set = field(default_factory=set)
    is_benchmark: bool = False

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "_repro_parent", None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule_id in self.file_pragmas:
            return True
        return finding.rule_id in self.line_pragmas.get(finding.line, set())


def _parse_pragmas(lines: Sequence[str]) -> Tuple[Dict[int, set], set]:
    line_pragmas: Dict[int, set] = {}
    file_pragmas: set = set()
    for number, text in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        kind, raw_ids = match.groups()
        ids = {part.strip().upper() for part in raw_ids.split(",") if part.strip()}
        if kind == "disable-file":
            file_pragmas |= ids
        else:
            line_pragmas.setdefault(number, set()).update(ids)
    return line_pragmas, file_pragmas


def _annotate_parents(tree: ast.AST) -> None:
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]


@dataclass
class LintRun:
    """The result of one two-phase lint invocation."""

    findings: List[Finding]
    files: int = 0


class Linter:
    """Parse files once, dispatch AST nodes to per-file rules, then run
    the whole-program rules over the assembled project."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        project_rules: Optional[Sequence[ProjectRule]] = None,
    ) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self.project_rules: List[ProjectRule] = (
            list(project_rules) if project_rules is not None
            else all_project_rules()
        )
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    # ------------------------------------------------------------------
    # phase 1: per-file
    # ------------------------------------------------------------------
    def _make_context(self, source: str, path: str) -> LintContext:
        """Parse one file (``SyntaxError`` propagates) and read its
        pragmas."""
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        line_pragmas, file_pragmas = _parse_pragmas(lines)
        parts = Path(path).parts
        ctx = LintContext(
            path=Path(path),
            rel_path=path,
            source=source,
            tree=tree,
            lines=lines,
            line_pragmas=line_pragmas,
            file_pragmas=file_pragmas,
            is_benchmark="benchmarks" in parts
            or Path(path).name.startswith("bench"),
        )
        _annotate_parents(tree)
        return ctx

    def _lint_module(
        self, source: str, path: str
    ) -> Tuple[Optional[LintContext], List[Finding]]:
        """Phase-1 raw findings (pre-pragma) for one source string."""
        try:
            ctx = self._make_context(source, path)
        except SyntaxError as error:
            return None, [
                Finding(
                    rule_id="E001",
                    path=path,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"syntax error: {error.msg}",
                )
            ]
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            for rule in self._dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
        return ctx, findings

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Lint one source string with the per-file rules only;
        ``path`` is used for reporting only.  (Whole-program rules need
        a project — see :meth:`run_paths` or
        ``Project.from_sources``.)"""
        ctx, findings = self._lint_module(source, path)
        if ctx is not None:
            findings = [f for f in findings if not ctx.suppressed(f)]
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return findings

    def lint_paths(
        self, paths: Iterable[Path], root: Optional[Path] = None
    ) -> List[Finding]:
        """Two-phase lint of every ``.py`` file under each path."""
        return self.run_paths(paths, root=root).findings

    def run_paths(
        self, paths: Iterable[Path], root: Optional[Path] = None
    ) -> LintRun:
        """Lint ``paths`` through both phases."""
        from repro.analysis.project import Project, module_info

        contexts: List[LintContext] = []
        raw: List[Finding] = []
        raw_by_file: Dict[str, List[Finding]] = {}
        files = 0
        for file_path in self._iter_files(paths):
            files += 1
            rel = _rel_path(file_path, root)
            source = file_path.read_text(encoding="utf-8")
            ctx, file_findings = self._lint_module(source, rel)
            if ctx is not None:
                contexts.append(ctx)
            raw.extend(file_findings)
            raw_by_file.setdefault(rel, []).extend(file_findings)

        # phase 2: whole-program rules over the assembled project
        project_findings: List[Finding] = []
        context_by_path: Dict[str, LintContext] = {
            ctx.rel_path: ctx for ctx in contexts
        }
        if contexts and self.project_rules:
            project = Project([module_info(ctx) for ctx in contexts])
            project.file_findings = raw_by_file
            # rules run in id order; each rule's raw findings join the
            # per-file pool so META001 (sorted last) audits pragma
            # liveness against *everything* that fired
            for rule in self.project_rules:
                rule_findings = list(rule.visit_project(project))
                project_findings.extend(rule_findings)
                for finding in rule_findings:
                    raw_by_file.setdefault(finding.path, []).append(finding)

        findings = []
        for finding in raw + project_findings:
            ctx = context_by_path.get(finding.path)
            if ctx is not None and ctx.suppressed(finding):
                continue
            findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        return LintRun(findings=findings, files=files)

    @staticmethod
    def _iter_files(paths: Iterable[Path]) -> Iterator[Path]:
        for target in paths:
            target = Path(target)
            files = [target] if target.is_file() else sorted(target.rglob("*.py"))
            for file_path in files:
                if _SKIP_PARTS.intersection(file_path.parts):
                    continue
                yield file_path


def _rel_path(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return str(path.resolve().relative_to(Path(root).resolve()))
        except ValueError:
            return str(path)
    return str(path)


# ----------------------------------------------------------------------
# shared AST helpers used by several rule modules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute/name chains; '' for anything else."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""
