"""Documentation cannot point at what is gone.

Every ``make <target>`` and every back-ticked repository path (``*.py``,
``*.json``, ``*.md``, ``*.toml``, with or without a ``::test`` suffix)
in the living documents names a Makefile target / an existing file (and
a test or class defined in it).  CHANGES.md and ROADMAP.md are history
and exempt.  Inside fenced blocks only paths with a directory part are
checked: bare names there are command output and tree listings.
"""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.core.config import VerifAIConfig
from repro.serve.config import ServeConfig
from repro.workloads.builder import LakeConfig

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
#: where a relative path in a document may start
BASES = [ROOT, ROOT / "src", ROOT / "src" / "repro", ROOT / "docs"]
#: file names the documents use for what a command reads or writes,
#: not for anything committed
EXAMPLE_NAMES = {"lake.json", "out.json", "manifest.json"}

_FENCE = re.compile(r"```.*?```", re.S)
_INLINE = re.compile(r"`([^`]+)`")
_MAKE = re.compile(r"\bmake\s+([a-z][a-z0-9-]*)")
# not preceded by a path/glob/placeholder character (so `/tmp/x.json`,
# `BENCH_*.json` and `<dir>/x.json` are skipped whole), not followed by
# more of a name (`.jsonl`)
_PATH = re.compile(
    r"(?<![\w/.*<>-])([\w.-]+(?:/[\w.-]+)*\.(?:py|json|md|toml))"
    r"(?:::([\w:.]+))?(?![\w*])"
)
_TARGETS = set(
    re.findall(r"^([a-z][a-z0-9-]*):", (ROOT / "Makefile").read_text(), re.M)
)


def _resolve(path):
    return next((b / path for b in BASES if (b / path).is_file()), None)


def _dangling(span, check_bare):
    """What ``span`` names that the repository does not have."""
    problems = [
        f"make {target}" for target in _MAKE.findall(span)
        if target not in _TARGETS
    ]
    for path, members in _PATH.findall(span):
        if "/" not in path and (not check_bare or path in EXAMPLE_NAMES):
            continue
        found = _resolve(path)
        if found is None:
            problems.append(path)
            continue
        source = found.read_text(encoding="utf-8")
        for name in filter(None, members.split("::")):
            if not re.search(rf"^\s*(?:def|class) {re.escape(name)}\b",
                             source, re.M):
                problems.append(f"{path}::{name}")
    return problems


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=lambda p: str(p.relative_to(ROOT))
)
def test_references_resolve(document):
    text = document.read_text(encoding="utf-8")
    problems = []
    for block in _FENCE.findall(text):
        problems += _dangling(block, check_bare=False)
    # an inline span may wrap across one line break
    for span in _INLINE.findall(_FENCE.sub("", text)):
        problems += _dangling(" ".join(span.split()), check_bare=True)
    assert not problems, f"{document.name} names what is gone: {problems}"


#: one census row: its back-ticked knob, then its consumer and verdict
_CENSUS_ROW = re.compile(r"^\| `([^`]+)` \| (.+?) \| (.+?) \|$", re.M)


def _knobs():
    """Every independently settable value: each config field, each
    subcommand flag, each make target."""
    knobs = {
        f"{config.__name__}.{field.name}"
        for config in (VerifAIConfig, ServeConfig, LakeConfig)
        for field in dataclasses.fields(config)
    }
    commands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    knobs |= {
        f"repro {name} {max(action.option_strings, key=len)}"
        for name, command in commands.items()
        for action in command._actions
        if action.option_strings and action.dest != "help"
    }
    return knobs | {f"make {target}" for target in _TARGETS}


def test_the_knob_census_has_one_row_per_knob():
    text = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    census = text.split("## Knob census", 1)[1].split("\n## ", 1)[0]
    rows = _CENSUS_ROW.findall(census)
    named = [knob for knob, _, _ in rows]
    assert len(named) == len(set(named)), "a knob has two rows"
    expected = _knobs()
    assert set(named) == expected, (
        f"without a row: {sorted(expected - set(named))}; "
        f"a row for what is gone: {sorted(set(named) - expected)}"
    )
    for knob, consumer, verdict in rows:
        assert consumer.strip(), knob
        assert verdict in ("kept", "**no consumer**"), knob
        assert (verdict == "kept") != consumer.startswith("none"), knob
