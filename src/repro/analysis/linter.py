"""The repro-lint rule engine.

Linting is **one pass per file**: each :class:`Rule` declares the AST
node types it wants to see, the engine parses a file once and
dispatches every node to the interested rules, and then hands the
file's raw (pre-pragma) findings to each rule's :meth:`Rule.audit` —
the last pass, where META001 checks that every suppression pragma
still suppresses something.  Inline ``# repro-lint:
disable=RULE`` pragmas, the one way to suppress a finding, then filter
the file's findings.  No rule needs more than the one file it reads.

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

    def audit(
        self, ctx: "LintContext", raw: Sequence[Finding]
    ) -> Iterator[Finding]:
        """The file's last pass, over every raw (pre-pragma) finding
        the node visits raised; only META001 uses it."""
        return iter(())

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


_RULE_REGISTRY: List[Type[Rule]] = []


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in {c.rule_id for c in _RULE_REGISTRY}:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _RULE_REGISTRY.append(cls)
    return cls


def all_rules() -> List[Rule]:
    """One fresh instance of every registered rule, id-sorted."""
    # importing the package populates the registry
    from repro.analysis import rules as _rules  # noqa: F401

    return [cls() for cls in sorted(_RULE_REGISTRY, key=lambda c: c.rule_id)]


def known_rule_ids() -> List[str]:
    """Every registered rule id plus the engine's own ``E001`` syntax
    marker — the universe META001 validates pragmas against."""
    return sorted({cls.rule_id for cls in _RULE_REGISTRY} | {"E001"})


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
    """The result of one lint invocation."""

    findings: List[Finding]
    files: int = 0


class Linter:
    """Parse each file once, dispatch its AST nodes to the rules, audit
    its raw findings, drop what its pragmas suppress."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: List[Rule] = list(rules) if rules is not None else all_rules()
        self._dispatch: Dict[type, List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

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

    def lint_source(self, source: str, path: str = "<string>") -> List[Finding]:
        """Every unsuppressed finding in one source string, sorted;
        ``path`` is used for reporting and path-scoped rules only."""
        try:
            ctx = self._make_context(source, path)
        except SyntaxError as error:
            return [
                Finding(
                    rule_id="E001",
                    path=path,
                    line=error.lineno or 1,
                    col=error.offset or 0,
                    message=f"syntax error: {error.msg}",
                )
            ]
        raw: List[Finding] = []
        for node in ast.walk(ctx.tree):
            for rule in self._dispatch.get(type(node), ()):
                raw.extend(rule.visit(node, ctx))
        for rule in self.rules:
            raw.extend(rule.audit(ctx, list(raw)))
        findings = [f for f in raw if not ctx.suppressed(f)]
        findings.sort(key=_order)
        return findings

    def lint_paths(
        self, paths: Iterable[Path], root: Optional[Path] = None
    ) -> List[Finding]:
        """Lint every ``.py`` file under each path."""
        return self.run_paths(paths, root=root).findings

    def run_paths(
        self, paths: Iterable[Path], root: Optional[Path] = None
    ) -> LintRun:
        """Lint every ``.py`` file under each path, counting the files."""
        findings: List[Finding] = []
        files = 0
        for file_path in self._iter_files(paths):
            files += 1
            findings.extend(self.lint_source(
                file_path.read_text(encoding="utf-8"),
                _rel_path(file_path, root),
            ))
        findings.sort(key=_order)
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


def _order(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule_id)


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
