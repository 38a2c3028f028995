"""Finding reporters: human text and machine-readable JSON.

The text form prints clickable ``file:line:col`` locations grouped by
file; the JSON form is stable (sorted keys, sorted findings) so CI can
diff two runs byte-for-byte.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.linter import Finding, Rule


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report, one line per finding, grouped by file."""
    if not findings:
        return "repro-lint: clean"
    lines: List[str] = []
    current_path = None
    for finding in findings:
        if finding.path != current_path:
            current_path = finding.path
            lines.append(f"{finding.path}:")
        lines.append(
            f"  {finding.line}:{finding.col}  {finding.rule_id}  "
            f"{finding.message}"
        )
        if finding.snippet:
            lines.append(f"      | {finding.snippet}")
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
    summary = ", ".join(
        f"{rule} x{count}" for rule, count in sorted(by_rule.items())
    )
    lines.append(f"repro-lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(
    findings: Sequence[Finding], rules: Sequence[Rule] = (), files: int = 0
) -> str:
    """Machine-readable report for CI diffing.

    Byte-stable by construction: sorted keys, sorted findings, no
    wall-clock and no absolute paths.
    """
    payload = {
        "version": 3,
        "count": len(findings),
        "files": files,
        "rules": [
            {
                "id": rule.rule_id,
                "name": rule.name,
                "category": rule.category,
            }
            for rule in rules
        ],
        "findings": [
            {
                "rule": finding.rule_id,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "message": finding.message,
                "snippet": finding.snippet,
            }
            for finding in findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
