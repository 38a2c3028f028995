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
    Rule,
    all_rules,
    known_rule_ids,
    register,
)
from repro.analysis.report import render_json, render_text

__all__ = [
    "Finding",
    "LintRun",
    "Linter",
    "Rule",
    "all_rules",
    "known_rule_ids",
    "register",
    "render_json",
    "render_text",
]
