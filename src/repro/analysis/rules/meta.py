"""META001: the linter auditing its own suppressions.

A ``repro-lint: disable=RULE`` pragma is a standing debt: it asserts
"this rule fires here and we accept that".  When the offending code is
later fixed, or the rule is renamed or retired, the pragma silently
stops suppressing anything — and worse, keeps suppressing the *next*
genuine finding on that line.  META001 flags:

* pragmas naming a rule id the engine does not know;
* line pragmas for rules that produce no raw (pre-suppression) finding
  on that line;
* file pragmas for rules that produce no raw finding anywhere in the
  file.

It is the file's last pass (:meth:`Rule.audit`): liveness is judged
against every raw finding the node visits raised, so a pragma
suppressing IPC002 is correctly seen as live.  META001 does not audit
pragmas naming itself (a self-referential suppression can never be
proven live or stale).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.analysis.linter import (
    Finding,
    LintContext,
    Rule,
    _PRAGMA_RE,
    known_rule_ids,
    register,
)


@register
class StalePragma(Rule):
    rule_id = "META001"
    name = "stale-pragma"
    category = "meta"
    description = (
        "A repro-lint suppression pragma names an unknown rule or no "
        "longer suppresses anything."
    )

    def audit(
        self, ctx: LintContext, raw: Sequence[Finding]
    ) -> Iterator[Finding]:
        known = set(known_rule_ids())
        fired_at_line = {(f.rule_id, f.line) for f in raw}
        fired_in_file = {f.rule_id for f in raw}
        for lineno, text in enumerate(ctx.lines, start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            kind, raw_ids = match.groups()
            ids = sorted(
                part.strip().upper()
                for part in raw_ids.split(",")
                if part.strip()
            )
            for rule_id in ids:
                if rule_id == self.rule_id:
                    continue
                if rule_id not in known:
                    message = f"pragma disables unknown rule {rule_id}"
                elif kind == "disable" and (
                    (rule_id, lineno) not in fired_at_line
                ):
                    message = (
                        f"stale pragma: {rule_id} no longer fires on "
                        f"this line"
                    )
                elif kind == "disable-file" and (
                    rule_id not in fired_in_file
                ):
                    message = (
                        f"stale pragma: {rule_id} no longer fires "
                        f"anywhere in this file"
                    )
                else:
                    continue
                yield Finding(
                    rule_id=self.rule_id,
                    path=ctx.rel_path,
                    line=lineno,
                    col=0,
                    message=message,
                    snippet=ctx.line_text(lineno),
                )
