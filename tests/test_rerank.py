"""Task-specific rerankers."""

import pytest

from repro.datalake.serialize import serialize_table
from repro.index.base import SearchHit
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.features import FeatureReranker
from repro.rerank.table import TableReranker


class TestLateInteraction:
    def test_exact_match_scores_high(self):
        reranker = LateInteractionReranker()
        text = "tom jenkins was re-elected in ohio"
        assert reranker.score(text, text) > 0.9

    def test_related_beats_unrelated(self):
        reranker = LateInteractionReranker()
        query = "tom jenkins ohio election"
        related = "Tom Jenkins represented ohio in the election of 1950."
        unrelated = "Basketball players average many points per game."
        assert reranker.score(query, related) > reranker.score(query, unrelated)

    def test_morphological_credit(self):
        reranker = LateInteractionReranker()
        query = "election votes"
        inflected = "the elections drew many voters"
        disjoint = "chicago basketball rebounds"
        assert reranker.score(query, inflected) > reranker.score(query, disjoint)

    def test_empty_query(self):
        assert LateInteractionReranker().score("", "anything") == 0.0

    def test_rerank_interface(self):
        reranker = LateInteractionReranker()
        payloads = {
            "good": "tom jenkins ohio district",
            "bad": "unrelated basketball content",
        }
        hits = [SearchHit(1.0, "bad"), SearchHit(0.9, "good")]
        ranked = reranker.rerank(
            "tom jenkins", hits, payloads.__getitem__, k=2
        )
        assert ranked[0].instance_id == "good"


class TestTableReranker:
    def table_payload(self, medal_table):
        return serialize_table(medal_table)

    def test_matching_claim_scores_high(self, medal_table):
        reranker = TableReranker()
        claim = "the total gold in 1960 summer games in lakeview medal table is 19"
        score = reranker.score(claim, self.table_payload(medal_table))
        assert score > 0.5

    def test_year_mismatch_penalized(self, medal_table):
        reranker = TableReranker()
        right_year = "valoria won the most gold in the 1960 summer games"
        wrong_year = "valoria won the most gold in the 1984 summer games"
        payload = self.table_payload(medal_table)
        assert reranker.score(right_year, payload) > reranker.score(
            wrong_year, payload
        )

    def test_cell_grounding_matters(self, medal_table):
        reranker = TableReranker()
        grounded = "valoria and norwind competed in 1960"
        ungrounded = "atlantis and elbonia competed in 1960"
        payload = self.table_payload(medal_table)
        assert reranker.score(grounded, payload) > reranker.score(
            ungrounded, payload
        )

    def test_empty_inputs(self):
        assert TableReranker().score("claim", "") == 0.0
        assert TableReranker().score("", "caption\na | b\n1 | 2") == 0.0


class TestFeatureReranker:
    def test_identical_text(self):
        # identical text maxes every feature except number_overlap
        # (no numbers present), which contributes its 0.1 weight as zero
        reranker = FeatureReranker()
        assert reranker.score("same text", "same text") == pytest.approx(0.9)
        assert reranker.score("same 42 text", "same 42 text") == pytest.approx(1.0)

    def test_features_exposed(self):
        values = FeatureReranker().features("a b 42", "a c 42")
        assert set(values) == {
            "token_jaccard", "query_coverage", "trigram", "number_overlap",
        }
        assert values["number_overlap"] == 1.0

    def test_number_overlap_partial(self):
        values = FeatureReranker().features("10 and 20", "contains 10 only")
        assert values["number_overlap"] == pytest.approx(0.5)

    def test_empty_query(self):
        assert FeatureReranker().score("", "whatever") <= 0.1


class TestRerankContract:
    def test_k_truncates(self):
        reranker = FeatureReranker()
        hits = [SearchHit(1.0, f"h{i}") for i in range(10)]
        ranked = reranker.rerank("query", hits, lambda i: i, k=4)
        assert len(ranked) == 4

    def test_negative_k(self):
        ranked = FeatureReranker().rerank("q", [SearchHit(1.0, "a")], lambda i: i, k=-1)
        assert ranked == []

    def test_deterministic_tiebreak(self):
        reranker = FeatureReranker()
        hits = [SearchHit(1.0, "b"), SearchHit(1.0, "a")]
        ranked = reranker.rerank("query", hits, lambda i: "same payload", k=2)
        assert [h.instance_id for h in ranked] == ["a", "b"]
