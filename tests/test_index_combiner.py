"""Result fusion across heterogeneous indexes."""

import pytest

from repro.embed.vectorizers import HashingVectorizer
from repro.index.base import SearchHit
from repro.index.combiner import Combiner, FusionMethod
from repro.index.inverted import InvertedIndex
from repro.index.vector import FlatVectorIndex


def hit(instance_id, score, name="idx"):
    return SearchHit(score=score, instance_id=instance_id, index_name=name)


class TestFusion:
    def test_rrf_rewards_agreement(self):
        combiner = Combiner([InvertedIndex()], method=FusionMethod.RRF)
        fused = combiner.fuse(
            [
                [hit("a", 9.0), hit("b", 5.0)],
                [hit("a", 0.7), hit("c", 0.5)],
            ],
            k=3,
        )
        assert fused[0].instance_id == "a"

    def test_rrf_score_free(self):
        """RRF only looks at ranks, not score magnitudes."""
        combiner = Combiner([InvertedIndex()], method=FusionMethod.RRF)
        small = combiner.fuse([[hit("a", 0.001), hit("b", 0.0005)]], k=2)
        large = combiner.fuse([[hit("a", 1000.0), hit("b", 500.0)]], k=2)
        assert [h.score for h in small] == [h.score for h in large]

    def test_max_keeps_confident_single_index_hits(self):
        combiner = Combiner([InvertedIndex()], method=FusionMethod.MAX)
        fused = combiner.fuse(
            [
                [hit("a", 10.0), hit("b", 1.0)],
                [hit("c", 0.9), hit("b", 0.1)],
            ],
            k=3,
        )
        ids = [h.instance_id for h in fused]
        assert set(ids[:2]) == {"a", "c"}  # each index's top survives

    def test_max_normalizes_per_index(self):
        combiner = Combiner([InvertedIndex()], method=FusionMethod.MAX)
        fused = combiner.fuse([[hit("a", 100.0)], [hit("b", 0.1)]], k=2)
        # singleton rankings normalize to 1.0 each
        assert fused[0].score == fused[1].score == 1.0

    def test_dedup(self):
        combiner = Combiner([InvertedIndex()], method=FusionMethod.RRF)
        fused = combiner.fuse([[hit("a", 1.0)], [hit("a", 0.4)]], k=5)
        assert len(fused) == 1

    def test_k_limits_output(self):
        combiner = Combiner([InvertedIndex()], method=FusionMethod.RRF)
        fused = combiner.fuse([[hit(f"h{i}", 1.0 / (i + 1)) for i in range(10)]], k=3)
        assert len(fused) == 3

    def test_requires_indexes(self):
        with pytest.raises(ValueError):
            Combiner([])

    @pytest.mark.parametrize("rrf_k", (-1, -5))
    def test_refuses_a_negative_rrf_k(self, rrf_k):
        """-1 divided by zero at the first fuse; -5 weighted an id in one
        list above an id in both."""
        with pytest.raises(ValueError, match="rrf_k"):
            Combiner([InvertedIndex()], rrf_k=rrf_k)

    def test_rrf_k_zero_still_rewards_agreement(self):
        combiner = Combiner([InvertedIndex()], rrf_k=0)
        fused = combiner.fuse(
            [[hit(top, 2.0), hit("b", 1.0)] for top in ("a", "c", "d")],
            k=4,
        )
        assert [(h.instance_id, h.score) for h in fused] == [
            ("b", 1.5), ("a", 1.0), ("c", 1.0), ("d", 1.0),
        ]


class TestEndToEnd:
    def test_search_unions_index_families(self):
        content = InvertedIndex()
        semantic = FlatVectorIndex(
            dim=64, encoder=HashingVectorizer(dim=64).transform
        )
        content.add("exact", "tom jenkins ohio")
        semantic.add("fuzzy", "tom jenkinz ohio")
        combiner = Combiner([content, semantic], method=FusionMethod.RRF)
        ids = {h.instance_id for h in combiner.search("tom jenkins ohio", k=5)}
        # each document is known to one index only — the union covers both
        assert "exact" in ids
        assert "fuzzy" in ids

    def test_per_index_k_controls_fanout(self):
        content = InvertedIndex()
        for i in range(20):
            content.add(f"d{i}", f"token{i} ohio")
        combiner = Combiner([content])
        hits = combiner.search("ohio", k=3, per_index_k=10)
        assert len(hits) == 3
