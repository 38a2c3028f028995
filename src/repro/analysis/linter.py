"""The repro-lint rule engine.

Linting runs in **two phases**:

1. *per-file* — a single-pass AST walker with a rule registry: each
   :class:`Rule` declares the node types it wants to see, the engine
   parses every file once and dispatches nodes to interested rules;
2. *whole-program* — the per-file contexts are lifted into a
   :class:`~repro.analysis.project.Project` (module + symbol tables, a
   conservative call graph) and every registered :class:`ProjectRule`
   runs once over it.  This is where the interprocedural families live:
   lock-order cycles (IPC), cross-call determinism taint (IPD), escape
   analysis for pool-shared state (IPE), and the stale-pragma audit
   (META001), which needs both phases' raw findings to decide whether a
   suppression still suppresses anything.

Findings from both phases are filtered through inline ``# repro-lint:
disable=RULE`` pragmas before being returned.  An mtime-keyed
:class:`ParseCache` can skip phase 1 for unchanged files (the
whole-program phase always runs fresh — it is cross-file by nature).

The rules themselves live in :mod:`repro.analysis.rules` and encode the
reproduction's two load-bearing invariants (see docs/static_analysis.md):
every code path must be seeded-deterministic, and every verifier must
stay inside the closed ternary ``Verdict`` space — plus the concurrency
discipline the batched engine introduced in PR 1.
"""

from __future__ import annotations

import ast
import pickle
import re
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: bumped whenever rule semantics or the cache payload shape changes;
#: part of the cache signature so stale caches self-invalidate
ENGINE_VERSION = 2

#: matches trailing ``disable=DET001`` / ``disable-file=DET001,CTR003``
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
    pragmas and the baseline apply exactly as for per-file rules.
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


class ParseCache:
    """An mtime-keyed cache of phase-1 results.

    Keyed by ``(mtime_ns, size, rules signature)`` per file; a hit skips
    parsing-and-dispatching that file's per-file rules and replays the
    cached raw findings + pragma tables.  The whole-program phase still
    re-parses hit files (it needs every AST fresh), which is cheap —
    rule dispatch, not parsing, dominates a cold run.
    """

    def __init__(self, path: Path, signature: str) -> None:
        self.path = Path(path)
        self.signature = signature
        self.hits = 0
        self.misses = 0
        self._entries: Dict[str, dict] = {}
        self._dirty = False
        if self.path.is_file():
            try:
                with self.path.open("rb") as handle:
                    payload = pickle.load(handle)
                if payload.get("signature") == signature:
                    self._entries = payload.get("entries", {})
            except Exception:
                self._entries = {}  # a corrupt cache is just a cold cache

    def get(self, rel_path: str, file_path: Path) -> Optional[tuple]:
        entry = self._entries.get(rel_path)
        if entry is None:
            self.misses += 1
            return None
        stat = file_path.stat()
        if entry["mtime_ns"] != stat.st_mtime_ns or entry["size"] != stat.st_size:
            self.misses += 1
            return None
        self.hits += 1
        return entry["payload"]

    def put(self, rel_path: str, file_path: Path, payload: tuple) -> None:
        stat = file_path.stat()
        self._entries[rel_path] = {
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "payload": payload,
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        blob = pickle.dumps(
            {"signature": self.signature, "entries": self._entries}
        )
        self.path.write_bytes(blob)
        self._dirty = False


@dataclass
class LintRun:
    """The result of one two-phase lint invocation."""

    findings: List[Finding]
    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


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

    def cache_signature(self) -> str:
        """Cache key component tying entries to the active rule set."""
        digest = blake2b(digest_size=12)
        digest.update(f"engine:{ENGINE_VERSION}".encode())
        for rule in self.rules:
            digest.update(rule.rule_id.encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # phase 1: per-file
    # ------------------------------------------------------------------
    def _make_context(self, source: str, path: str) -> Optional[LintContext]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return None
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
        except SyntaxError:  # pragma: no cover - _make_context catches
            ctx = None
        if ctx is None:
            try:
                ast.parse(source, filename=path)
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
            return None, []  # pragma: no cover - unreachable
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            for rule in self._dispatch.get(type(node), ()):
                findings.extend(rule.visit(node, ctx))
        return ctx, findings

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def lint_source(
        self, source: str, path: str = "<string>", root: Optional[Path] = None
    ) -> List[Finding]:
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
        """Two-phase lint of every ``.py`` file under each path; see
        :meth:`run_paths` for cache / diff-scoped variants."""
        return self.run_paths(paths, root=root).findings

    def run_paths(
        self,
        paths: Iterable[Path],
        root: Optional[Path] = None,
        cache: Optional[ParseCache] = None,
        changed: Optional[Set[str]] = None,
    ) -> LintRun:
        """Lint ``paths`` through both phases.

        ``cache`` replays phase-1 results for unchanged files;
        ``changed`` (a set of repo-relative paths) restricts *reported*
        findings to those files while the whole-program phase still
        sees the full tree — diff-scoped lint must not lose cross-file
        context.
        """
        from repro.analysis.project import Project, module_info

        contexts: List[LintContext] = []
        raw: List[Finding] = []
        raw_by_file: Dict[str, List[Finding]] = {}
        files = 0
        for file_path in self._iter_files(paths):
            files += 1
            rel = _rel_path(file_path, root)
            cached = cache.get(rel, file_path) if cache is not None else None
            if cached is not None:
                file_findings, line_pragmas, file_pragmas = cached
                source = file_path.read_text(encoding="utf-8")
                ctx = self._make_context(source, rel)
                if ctx is not None:
                    ctx.line_pragmas = line_pragmas
                    ctx.file_pragmas = file_pragmas
                    contexts.append(ctx)
            else:
                source = file_path.read_text(encoding="utf-8")
                ctx, file_findings = self._lint_module(source, rel)
                if ctx is not None:
                    contexts.append(ctx)
                    if cache is not None:
                        cache.put(
                            rel, file_path,
                            (file_findings, ctx.line_pragmas,
                             ctx.file_pragmas),
                        )
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
        if changed is not None:
            findings = [f for f in findings if f.path in changed]
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        if cache is not None:
            cache.save()
        return LintRun(
            findings=findings,
            files=files,
            cache_hits=cache.hits if cache is not None else 0,
            cache_misses=cache.misses if cache is not None else 0,
        )

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
