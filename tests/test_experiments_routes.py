"""The labelled tuple stream the route table scores its arms on.

``repro.experiments.routes.labelled_tuples`` rebuilds the bench tuple
stream: rows of the tuple workload, the true value and a corrupted one
in turn, each object once.  These tests pin what a route's accuracy is
measured against: a corruption changes exactly one digit (or marks a
value with none), the gold verdict says whether the value is the lake's,
the relevant sets are the row itself and its entities' pages, and a
shorter stream is the head of a longer one.
"""

import random

import pytest

from repro.datalake.types import Modality
from repro.experiments.routes import _corrupt_digits, labelled_tuples
from repro.verify.verdict import Verdict


@pytest.mark.parametrize("value", ["102,000", "1960", "7", "3.5%", "ohio 1"])
def test_a_corruption_changes_one_digit(value):
    rng = random.Random(11)
    for _ in range(50):
        corrupted = _corrupt_digits(value, rng)
        assert len(corrupted) == len(value)
        moved = [
            (a, b) for a, b in zip(value, corrupted) if a != b
        ]
        assert len(moved) == 1
        (a, b), = moved
        assert a.isdigit() and b.isdigit()


def test_a_value_without_digits_is_marked():
    assert _corrupt_digits("ohio", random.Random(0)) == "ohiox"
    assert _corrupt_digits("", random.Random(0)) == "x"


@pytest.fixture(scope="module")
def cases(small_bundle):
    return labelled_tuples(small_bundle, 40, seed=3)


def test_the_gold_verdict_is_whether_the_value_is_the_lakes(
    small_bundle, cases
):
    assert len(cases) == 40
    assert len({case.obj.object_id for case in cases}) == 40
    assert len({
        (case.obj.query_text(), case.obj.attribute) for case in cases
    }) == 40
    golds = set()
    for case in cases:
        row = case.obj.row
        lake_row = small_bundle.lake.table(row.table_id).row(row.row_index)
        same = row.get(case.obj.attribute) == lake_row.get(case.obj.attribute)
        assert case.gold is (Verdict.VERIFIED if same else Verdict.REFUTED)
        golds.add(case.gold)
        assert case.relevant[Modality.TUPLE] == frozenset(
            [f"{row.table_id}#r{row.row_index}"]
        )
        assert case.relevant[Modality.TEXT] == frozenset(
            small_bundle.relevant_pages_for_row(lake_row)
        )
    assert golds == {Verdict.VERIFIED, Verdict.REFUTED}


def test_a_shorter_stream_is_the_head_of_a_longer_one(small_bundle, cases):
    head = labelled_tuples(small_bundle, 10, seed=3)
    assert [
        (case.obj.object_id, case.obj.query_text(), case.gold) for case in head
    ] == [
        (case.obj.object_id, case.obj.query_text(), case.gold)
        for case in cases[:10]
    ]
    other = labelled_tuples(small_bundle, 10, seed=17)
    assert [c.obj.query_text() for c in other] != [
        c.obj.query_text() for c in head
    ]
