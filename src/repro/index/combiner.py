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

from repro.index.base import SearchHit, SearchIndex, top_k


class FusionMethod(enum.Enum):
    """How per-index rankings are fused."""

    RRF = "rrf"
    MAX = "max"


def _normalize_scores(hits: Sequence[SearchHit]) -> Dict[str, float]:
    """Min-max normalize one index's scores into [0, 1]."""
    if not hits:
        return {}
    scores = [hit.score for hit in hits]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return {hit.instance_id: 1.0 for hit in hits}
    return {hit.instance_id: (hit.score - lo) / (hi - lo) for hit in hits}


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
        """Query every index with the whole batch in one call, then fuse
        each query's rankings.

        ``per_index_k`` controls how many hits each index contributes
        before fusion (default: see :meth:`_fan_out`).
        """
        queries = list(queries)
        if not queries:
            return []
        fan_out = self._fan_out(k, per_index_k)
        # [index][query] -> ranking
        per_index = [
            index.search_batch(queries, fan_out) for index in self.indexes
        ]
        return [self.fuse(rankings, k) for rankings in zip(*per_index)]

    def fuse(self, rankings: Iterable[Sequence[SearchHit]], k: int) -> List[SearchHit]:
        """Fuse pre-computed per-index rankings into a single top-k."""
        fused: Dict[str, float] = {}
        if self.method is FusionMethod.RRF:
            for ranking in rankings:
                for rank, hit in enumerate(ranking):
                    fused[hit.instance_id] = fused.get(hit.instance_id, 0.0) + 1.0 / (
                        self.rrf_k + rank + 1
                    )
        elif self.method is FusionMethod.MAX:
            for ranking in rankings:
                normalized = _normalize_scores(list(ranking))
                for instance_id, score in normalized.items():
                    fused[instance_id] = max(fused.get(instance_id, 0.0), score)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown fusion method: {self.method}")
        return top_k(fused, k, self.name)
