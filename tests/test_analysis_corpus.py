"""The labelled corpus repro-lint's rules are scored on.

``tests/analysis_corpus/caught/<case>/`` holds, for each defect a rule
caught in this tree's history and someone fixed, the code as it was
(``before/``) and as the fix left it (``after/``), trimmed to the lines
the finding needs; each module's docstring names the commit it comes
from.  ``missed/<case>/`` holds recorded bugs, and their fixes, that no
rule fires on: the other half of an honest score.  Each side of a case
is linted as a tree of its own.

A registered rule that no ``before/`` fixture makes fire has caught
nothing and fails the registry test: the keep rule of
docs/static_analysis.md.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import Linter, all_rules

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "analysis_corpus"
CATALOGUE = HERE.parent / "docs" / "static_analysis.md"

#: caught case -> the findings its ``before/`` side raises, by rule
CAUGHT = {
    "weighted_vote": {"CTR002": 1, "CTR003": 1},
    "tfidf_fit": {"DET003": 1},
    "generator_perturb": {"CTR003": 1},
    "knowledge_wrong": {"CTR003": 1},
    "ablations_clock": {"OBS001": 4},
    "batch_clock": {"OBS001": 5},
    "metrics_factory": {"IPC002": 1},
    "phantom_pragma": {"META001": 2},
}
#: recorded bugs no rule fires on
MISSED = [
    "sanitizer_id_cells",
    "evidence_field_injection",
    "crossmodal_nonpositive_k",
    "combiner_negative_rrf_k",
    "bm25_update_scan",
]


def rules_fired(side):
    """Findings per rule on one side of a case, linted as its own tree."""
    findings = Linter().lint_paths([side], root=side)
    return dict(Counter(finding.rule_id for finding in findings))


def test_the_corpus_holds_exactly_the_listed_cases():
    for kind, cases in (("caught", CAUGHT), ("missed", MISSED)):
        found = sorted(path.name for path in (CORPUS / kind).iterdir())
        assert found == sorted(cases), kind
        for case in cases:
            for side in ("before", "after"):
                assert list((CORPUS / kind / case / side).rglob("*.py"))


@pytest.mark.parametrize("case", sorted(CAUGHT))
def test_a_caught_defect_fires_before_its_fix(case):
    assert rules_fired(CORPUS / "caught" / case / "before") == CAUGHT[case]


@pytest.mark.parametrize("case", sorted(CAUGHT))
def test_the_fix_lints_clean(case):
    assert rules_fired(CORPUS / "caught" / case / "after") == {}


@pytest.mark.parametrize("side", ["before", "after"])
@pytest.mark.parametrize("case", MISSED)
def test_no_rule_fires_on_a_missed_bug_or_its_fix(case, side):
    assert rules_fired(CORPUS / "missed" / case / side) == {}


def test_every_registered_rule_caught_something():
    registered = {rule.rule_id for rule in all_rules()}
    caught = {rule for fired in CAUGHT.values() for rule in fired}
    assert registered - caught == set(), (
        "rules no corpus defect makes fire: delete them, or add the "
        "before/after fixture of the bug they caught"
    )
    assert caught <= registered


def test_the_catalogue_lists_the_rules_and_the_miss_rate():
    text = CATALOGUE.read_text(encoding="utf-8")
    catalogue = text.split("## Rule catalogue", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| ([A-Z]{3,4}\d{3}) \|", catalogue, re.M))
    registered = {rule.rule_id for rule in all_rules()}
    assert listed == registered
    total = len(CAUGHT) + len(MISSED)
    assert f"misses {len(MISSED)} of the {total} recorded bugs" in text
