"""Common index interface.

Every index maps string queries to scored instance ids; resolution of ids
back to data instances happens at the lake.  Keeping the interface
id-based lets one Combiner merge hits across heterogeneous indexes.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(frozen=True, order=True)
class SearchHit:
    """A scored retrieval result.

    Ordering is by (score, instance_id) so ties break deterministically.
    """

    score: float
    instance_id: str
    index_name: str = field(default="", compare=False)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SearchHit({self.instance_id!r}, {self.score:.4f}, {self.index_name})"


class SearchIndex(abc.ABC):
    """Abstract top-k retrieval index over (instance_id, payload) entries."""

    name: str = "index"

    @abc.abstractmethod
    def add(self, instance_id: str, payload: str) -> None:
        """Index one instance.  ``payload`` is its serialized form."""

    @abc.abstractmethod
    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        """Top-k hits for ``query``, highest score first."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of indexed instances."""

    def add_many(self, entries: Dict[str, str]) -> None:
        """Bulk-index a mapping of instance_id -> payload."""
        for instance_id, payload in entries.items():
            self.add(instance_id, payload)

    def search_batch(self, queries: List[str], k: int = 10) -> List[List[SearchHit]]:
        """Top-k hits for every query, one hit list per query.

        The default is the per-query loop; vectorized indexes override
        this with a batched kernel that must return hit-for-hit (ids
        AND scores) identical results.
        """
        return [self.search(query, k) for query in queries]


def top_k(scores: Dict[str, float], k: int, index_name: str = "") -> List[SearchHit]:
    """Materialize the k best (score, id) pairs as hits, deterministically.

    Ties are broken by instance id so that runs are reproducible.  When
    ``k`` is much smaller than the candidate set a bounded heap selects
    the winners in O(n log k) instead of sorting everything; both paths
    order by ``(-score, instance_id)`` and return identical hits.
    """
    if k <= 0:
        return []
    if 4 * k < len(scores):
        smallest = heapq.nsmallest(
            k, ((-score, instance_id) for instance_id, score in scores.items())
        )
        ranked = [(instance_id, -neg_score) for neg_score, instance_id in smallest]
    else:
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
    return [
        SearchHit(score=score, instance_id=instance_id, index_name=index_name)
        for instance_id, score in ranked
    ]
