"""Observability rules (OBS*).

The observability layer routes every timing read through an injectable
:class:`repro.obs.clock.Clock` so tests can freeze time and export
byte-stable traces.  A stray ``time.monotonic()`` in pipeline code
bypasses that seam and silently re-introduces wall-clock nondeterminism.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from repro.analysis.linter import (
    Finding,
    LintContext,
    Rule,
    dotted_name,
    register,
)

#: monotonic-clock reads only repro/obs/clock.py may perform
_CLOCK_CALLS = {
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.thread_time", "time.thread_time_ns",
}

#: the one module allowed to read the process clock directly
_CLOCK_MODULE = ("repro", "obs", "clock.py")


def _is_clock_module(rel_path: str) -> bool:
    parts = PurePosixPath(rel_path.replace("\\", "/")).parts
    return parts[-3:] == _CLOCK_MODULE


@register
class DirectClockReadRule(Rule):
    rule_id = "OBS001"
    name = "direct-clock-read"
    category = "observability"
    description = (
        "time.monotonic()/time.perf_counter() outside repro/obs/clock.py "
        "bypasses the injectable Clock; take a Clock and call .now() so "
        "tests can freeze time (benchmarks are exempt)."
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: LintContext) -> Iterator[Finding]:
        if ctx.is_benchmark or _is_clock_module(ctx.rel_path):
            return
        name = dotted_name(node.func)
        if name in _CLOCK_CALLS:
            yield self.finding(
                ctx, node,
                f"{name}() reads the process clock directly; inject a "
                "repro.obs.clock.Clock and call .now() instead",
            )
