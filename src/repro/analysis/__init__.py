"""repro-lint: AST static analysis for the reproduction's invariants.

The test suite cannot see whether a code path is seeded-deterministic or
whether a verdict dispatch covers the full ternary space; this package
checks those invariants syntactically on every commit.  See
docs/static_analysis.md for the rule catalogue.
"""

from repro.analysis.linter import (
    Finding,
    Linter,
    LintRun,
    ProjectRule,
    Rule,
    all_project_rules,
    all_rules,
    known_rule_ids,
    register,
    register_project,
)
from repro.analysis.report import render_json, render_text

__all__ = [
    "Finding",
    "LintRun",
    "Linter",
    "ProjectRule",
    "Rule",
    "all_project_rules",
    "all_rules",
    "known_rule_ids",
    "register",
    "register_project",
    "render_json",
    "render_text",
]
