"""The Combiner: merge and deduplicate hits from multiple indexes.

Per Section 3.1 of the paper, content- and semantic-based indexes retrieve
overlapping result sets; the Combiner unions them, removes duplicates,
and produces a single coarse ranking that the Reranker refines.

Two fusion methods are provided:

* ``rrf`` — reciprocal rank fusion, the standard score-free method for
  merging heterogeneous rankings (scores from BM25 and cosine are not
  comparable);
* ``max`` — keep each id's maximum normalized score across indexes.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Sequence

from repro.index.base import (
    Ranking, SearchHit, SearchIndex, hits_of, rank_top_k, ranking_of,
)


class FusionMethod(enum.Enum):
    """How per-index rankings are fused."""

    RRF = "rrf"
    MAX = "max"


def _normalize_scores(scores: Sequence[float]) -> List[float]:
    """Min-max normalize one index's score column into [0, 1]."""
    if not scores:
        return []
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return [1.0] * len(scores)
    return [(score - lo) / (hi - lo) for score in scores]


class Combiner:
    """Fan a query out to several indexes and fuse the results."""

    def __init__(
        self,
        indexes: Sequence[SearchIndex],
        method: FusionMethod = FusionMethod.RRF,
        rrf_k: int = 60,
        name: str = "combined",
    ) -> None:
        if not indexes:
            raise ValueError("Combiner needs at least one index")
        if rrf_k < 0:
            # -1 divides by zero at the first rank; below that the
            # weights turn negative and one list's id outranks a shared one
            raise ValueError(f"rrf_k must be >= 0, got {rrf_k}")
        self.indexes = list(indexes)
        self.method = method
        self.rrf_k = rrf_k
        self.name = name

    def _fan_out(self, k: int, per_index_k: int) -> int:
        """How many hits each index is asked for before fusion.

        Two or more rankings are fused from ``2 * k`` hits each: an id
        outside one index's top k can still reach the fused top k.  MAX
        keeps ``2 * k`` even over one index — its min-max normalisation
        reads the tail of the list.  RRF over a *single* ranking scores
        rank alone, so the fused top k is that ranking's first k re-scored
        (an index's top k being the prefix of its top ``2 * k``, as every
        exact index here guarantees) and ``k`` is all it asks for.
        """
        if per_index_k:
            return per_index_k
        if len(self.indexes) == 1 and self.method is FusionMethod.RRF:
            return k
        return 2 * k

    def search(self, query: str, k: int = 10, per_index_k: int = 0) -> List[SearchHit]:
        """Query every index and fuse: the batch of one."""
        return self.search_batch([query], k, per_index_k)[0]

    def search_batch(
        self, queries: List[str], k: int = 10, per_index_k: int = 0
    ) -> List[List[SearchHit]]:
        """:meth:`rank_batch`, materialized as hits."""
        return hits_of(self.rank_batch(queries, k, per_index_k), self.name)

    def rank_batch(
        self, queries: List[str], k: int = 10, per_index_k: int = 0
    ) -> List[Ranking]:
        """Rank the whole batch on every index in one call each, then
        fuse each query's rankings — in columns, no hit is built.

        ``per_index_k`` controls how many ids each index contributes
        before fusion (default: see :meth:`_fan_out`).
        """
        queries = list(queries)
        if not queries:
            return []
        fan_out = self._fan_out(k, per_index_k)
        # [index][query] -> ranking
        per_index = [
            index.rank_batch(queries, fan_out) for index in self.indexes
        ]
        return [self._fuse(rankings, k) for rankings in zip(*per_index)]

    def fuse(self, rankings: Iterable[Sequence[SearchHit]], k: int) -> List[SearchHit]:
        """Fuse pre-computed per-index hit lists into a single top-k."""
        fused = self._fuse([ranking_of(hits) for hits in rankings], k)
        return hits_of([fused], self.name)[0]

    def _fuse(self, rankings: Iterable[Ranking], k: int) -> Ranking:
        """Fuse per-index rankings into a single top-k.  RRF reads ranks
        alone; MAX normalizes the score column."""
        fused: Dict[str, float] = {}
        if self.method is FusionMethod.RRF:
            for ids, _ in rankings:
                for rank, instance_id in enumerate(ids):
                    fused[instance_id] = fused.get(instance_id, 0.0) + 1.0 / (
                        self.rrf_k + rank + 1
                    )
        elif self.method is FusionMethod.MAX:
            for ids, scores in rankings:
                for instance_id, score in zip(ids, _normalize_scores(scores)):
                    fused[instance_id] = max(fused.get(instance_id, 0.0), score)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown fusion method: {self.method}")
        return rank_top_k(fused, k)
