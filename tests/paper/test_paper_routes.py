"""Rerank routes, arm by arm (Section 3.2's Reranker).

For each route the full pipeline has reranked, the coarse head, the
reranked head and their RRF fusion are scored on retrieval and end to
end.  claim→table earns its reranker: the source table reaches the top
of the shortlist far more often, and the first decisive pair is right
more often with fewer claims left undecided.  The tuple routes did not
(docs/performance.md, "The tuple routes stop reranking"): ColBERT
loses tuple→text precision@1 and recall@3 to the coarse head (the
misses are concept pages the coarse stage never surfaces, so late
interaction cannot add recall), and the tuple-pair scorer went with its
route, so tuple→tuple has the coarse arm alone.
"""

import pytest

from repro.experiments.routes import run_rerank_routes
from repro.metrics.tables import format_table

COUNT = 300


@pytest.fixture(scope="module")
def arms(context):
    """Every arm of every route, keyed ``(route, arm)``."""
    return {(r.route, r.arm): r for r in run_rerank_routes(context, count=COUNT)}


def test_rerank_routes(arms):
    print()
    print(
        format_table(
            ["route", "arm", "p@1", "recall@k'", "accuracy", "undecided"],
            [[r.route, r.arm, r.precision_at_1, r.recall, r.accuracy,
              r.undecided] for r in arms.values()],
            title="Rerank routes, arm by arm",
        )
    )
    assert list(arms) == [
        ("tuple→tuple", "coarse"),
        ("tuple→text", "coarse"), ("tuple→text", "rerank"),
        ("tuple→text", "rrf"),
        ("claim→table", "coarse"), ("claim→table", "rerank"),
        ("claim→table", "rrf"),
    ]


def test_claim_table_earns_its_reranker(arms):
    coarse = arms["claim→table", "coarse"]
    reranked = arms["claim→table", "rerank"]
    assert reranked.precision_at_1 >= coarse.precision_at_1 + 0.1
    assert reranked.recall >= coarse.recall
    assert reranked.accuracy >= coarse.accuracy
    assert reranked.undecided <= coarse.undecided


def test_tuple_tuple_has_the_coarse_arm_alone(arms):
    assert [arm for route, arm in arms if route == "tuple→tuple"] == ["coarse"]
    # a tuple's counterpart row heads its coarse list
    assert arms["tuple→tuple", "coarse"].precision_at_1 >= 0.95
    assert arms["tuple→tuple", "coarse"].accuracy >= 0.85


def test_tuple_text_reranking_does_not_earn_its_route(arms):
    text = arms["tuple→text", "coarse"]
    maxsim = arms["tuple→text", "rerank"]
    assert maxsim.precision_at_1 < text.precision_at_1
    assert maxsim.recall < text.recall
    for arm in ("rerank", "rrf"):
        # no arm wins more than one object
        assert arms["tuple→text", arm].accuracy <= text.accuracy + 1 / COUNT
