"""Line coverage without coverage.py: a ``sys.settrace`` tracer.

The repo's stdlib-only rule means the usual ``coverage run`` gate is
unavailable, so this module implements the slice of it the CI gate
needs: per-file executable-line discovery (``compile()`` + a recursive
``co_lines`` walk, with ``# pragma: no cover`` statement spans
excluded), a targeted settrace tracer that only pays the per-line cost
inside the files being measured, and a floor check.

Three entry points:

* :class:`LineTracer` — the library API (tests use it directly);
* a pytest plugin (``-p repro_coverage``) that reads its targets and
  floor from ``REPRO_COVERAGE_TARGETS`` / ``REPRO_COVERAGE_FLOOR`` and
  fails the session with exit status :data:`COVERAGE_EXIT_STATUS` when
  any measured file is below floor;
* ``repro coverage`` (see :mod:`repro.cli`), which spawns pytest in a
  fresh interpreter with the plugin installed.

This file deliberately lives *outside* the ``repro`` package and
imports only the stdlib: importing anything from ``repro`` runs the
package ``__init__`` — which imports the measured modules — before the
tracer could start, and their import-time lines (defs, decorators,
class bodies) would be unmeasurable.  As a ``-p`` plugin it is loaded
before conftest files, so tracing begins at plugin *import* (the
env-gated auto-start at the bottom), strictly before any test import
of the targets.

Like the race sanitizer, the tracer is cooperative and in-process; it
measures the interpreter that runs it, not subprocesses tests spawn.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

#: pytest session exit status when a measured file is below the floor
#: (3 is taken by the race sanitizer)
COVERAGE_EXIT_STATUS = 4

#: marker comment excluding a statement (and its body) from measurement
PRAGMA = "pragma: no cover"


# ---------------------------------------------------------------------------
# executable-line discovery
# ---------------------------------------------------------------------------
def _code_lines(code) -> Set[int]:
    """All line numbers mentioned by ``code`` and its nested code objects."""
    lines: Set[int] = set()
    stack = [code]
    while stack:
        current = stack.pop()
        for _, _, lineno in current.co_lines():
            # line 0 is the interpreter's RESUME bookkeeping, not code
            if lineno:
                lines.add(lineno)
        for const in current.co_consts:
            if hasattr(const, "co_lines"):
                stack.append(const)
    return lines


def _pragma_spans(source: str, filename: str) -> List[range]:
    """Line ranges excluded by ``# pragma: no cover`` comments.

    A pragma on a statement's header line excludes the statement's full
    span — so a pragma on a ``def``/``if`` line excludes the body too,
    matching coverage.py's behaviour.
    """
    pragma_lines = {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if PRAGMA in line
    }
    if not pragma_lines:
        return []
    tree = ast.parse(source, filename=filename)
    spans: List[range] = []
    for node in ast.walk(tree):
        lineno = getattr(node, "lineno", None)
        end = getattr(node, "end_lineno", None)
        if lineno is None or end is None:
            continue
        if not isinstance(node, ast.stmt):
            continue
        # the pragma may sit on any header line of a multi-line
        # statement header (decorators included)
        header_end = end
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and hasattr(body[0], "lineno"):
            header_end = body[0].lineno - 1
        for line in range(lineno, max(lineno, header_end) + 1):
            if line in pragma_lines:
                spans.append(range(lineno, end + 1))
                break
    return spans


def executable_lines(path: str) -> Set[int]:
    """Line numbers the interpreter could execute in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    code = compile(source, path, "exec")
    lines = _code_lines(code)
    for span in _pragma_spans(source, path):
        lines -= set(span)
    # compile() attributes module docstrings and future imports to line
    # constructs that never fire "line" events in some builds; keep the
    # set as-is — co_lines is what settrace reports against.
    return lines


def _resolve_targets(targets: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of .py file paths."""
    files: Set[str] = set()
    for target in targets:
        path = os.path.abspath(target)
        if os.path.isdir(path):
            for root, _, names in os.walk(path):
                for name in names:
                    if name.endswith(".py"):
                        files.add(os.path.join(root, name))
        elif os.path.isfile(path):
            files.add(path)
        else:
            raise FileNotFoundError(f"coverage target not found: {target}")
    return sorted(files)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FileCoverage:
    """Measured coverage of one file."""

    path: str
    executable: int
    covered: int
    missing: List[int]

    @property
    def rate(self) -> float:
        return self.covered / self.executable if self.executable else 1.0


@dataclass
class CoverageReport:
    """Per-file rates plus the aggregate."""

    files: List[FileCoverage] = field(default_factory=list)

    @property
    def executable(self) -> int:
        return sum(f.executable for f in self.files)

    @property
    def covered(self) -> int:
        return sum(f.covered for f in self.files)

    @property
    def rate(self) -> float:
        return self.covered / self.executable if self.executable else 1.0

    def below(self, floor: float) -> List[FileCoverage]:
        """Files measuring under ``floor`` (0..1)."""
        return [f for f in self.files if f.rate < floor]

    def render(self, root: Optional[str] = None) -> str:
        """Human-readable table, one line per file plus a total."""
        root = root or os.getcwd()
        lines = ["file                                    lines  cover   rate"]
        for entry in self.files:
            path = os.path.relpath(entry.path, root)
            lines.append(
                f"{path:<40}{entry.executable:>5}{entry.covered:>7}"
                f"{entry.rate:>7.1%}"
            )
        lines.append(
            f"{'TOTAL':<40}{self.executable:>5}{self.covered:>7}"
            f"{self.rate:>7.1%}"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------
class LineTracer:
    """Targeted line tracer over ``sys.settrace``.

    The global callback prices every function *call* (it must decide
    whether the frame is interesting) but returns None for frames
    outside the target set, so line events — the expensive part — fire
    only inside measured files.
    """

    def __init__(self, targets: Iterable[str]) -> None:
        self._files = set(_resolve_targets(targets))
        self._hits: Dict[str, Set[int]] = {
            path: set() for path in sorted(self._files)
        }
        self._previous = None
        self._active = False

    # -- collection ------------------------------------------------------
    def _local_trace(self, frame, event, arg):
        if event == "line":
            self._hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local_trace

    def _global_trace(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename in self._files:
            return self._local_trace
        return None

    def start(self) -> "LineTracer":
        if self._active:
            raise RuntimeError("tracer already started")
        self._previous = sys.gettrace()
        threading.settrace(self._global_trace)
        sys.settrace(self._global_trace)
        self._active = True
        return self

    def stop(self) -> None:
        if not self._active:
            return
        sys.settrace(self._previous)
        # restore rather than clear: a nested tracer (the coverage-tool
        # tests running under the coverage gate itself) must not strip
        # the outer tracer's thread hook
        threading.settrace(self._previous)  # type: ignore[arg-type]
        self._previous = None
        self._active = False

    def __enter__(self) -> "LineTracer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- reporting -------------------------------------------------------
    def report(self) -> CoverageReport:
        """Coverage of every target file measured so far."""
        files: List[FileCoverage] = []
        for path in sorted(self._files):
            lines = executable_lines(path)
            hits = self._hits[path] & lines
            files.append(
                FileCoverage(
                    path=path,
                    executable=len(lines),
                    covered=len(hits),
                    missing=sorted(lines - hits),
                )
            )
        return CoverageReport(files=files)


# ---------------------------------------------------------------------------
# pytest plugin (-p repro_coverage)
# ---------------------------------------------------------------------------
ENV_TARGETS = "REPRO_COVERAGE_TARGETS"
ENV_FLOOR = "REPRO_COVERAGE_FLOOR"

_SESSION: Dict[str, object] = {}


def _env_start() -> None:
    """Start tracing when the gating env var names targets (idempotent)."""
    targets = [
        t for t in os.environ.get(ENV_TARGETS, "").split(os.pathsep) if t
    ]
    if not targets or "tracer" in _SESSION:
        return
    tracer = LineTracer(targets)
    tracer.start()
    _SESSION["tracer"] = tracer


def pytest_configure(config) -> None:
    # backstop for loaders that import the plugin without executing the
    # module-level auto-start (the normal -p path already traced here)
    _env_start()


def pytest_sessionfinish(session, exitstatus) -> None:
    tracer = _SESSION.pop("tracer", None)
    if tracer is None:
        return
    tracer.stop()
    report = tracer.report()
    floor = float(os.environ.get(ENV_FLOOR, "0"))
    print()
    print("repro-coverage: line coverage of measured targets")
    print(report.render())
    failing = report.below(floor)
    for entry in failing:
        head = ", ".join(str(n) for n in entry.missing[:10])
        more = len(entry.missing) - 10
        tail = f" (+{more} more)" if more > 0 else ""
        print(
            f"repro-coverage: FAIL {entry.path} at {entry.rate:.1%} "
            f"< floor {floor:.0%}; missing lines: {head}{tail}"
        )
    if failing and exitstatus == 0:
        session.exitstatus = COVERAGE_EXIT_STATUS


# plugin import happens before conftest files load the repro package —
# start tracing NOW when the subprocess asked for it via environment
_env_start()
