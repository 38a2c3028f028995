"""Common index interface.

Every index maps string queries to scored instance ids; resolution of ids
back to data instances happens at the lake.  Keeping the interface
id-based lets one Combiner merge hits across heterogeneous indexes.
"""

from __future__ import annotations

import abc
import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple


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


#: one query's ranking between stages: ids and their scores, two parallel
#: columns in ``(-score, id)`` order.  Hits are built where a stage ends.
Ranking = Tuple[List[str], List[float]]


def hits_of(rankings: Iterable[Ranking], index_name: str) -> List[List[SearchHit]]:
    """Materialize rankings as hit lists, one per ranking."""
    return [
        [SearchHit(score, instance_id, index_name)
         for instance_id, score in zip(ids, scores)]
        for ids, scores in rankings
    ]


def ranking_of(hits: Sequence[SearchHit]) -> Ranking:
    """The columns of one hit list."""
    return [hit.instance_id for hit in hits], [hit.score for hit in hits]


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

    def rank_batch(self, queries: List[str], k: int = 10) -> List[Ranking]:
        """Top-k of every query as :data:`Ranking` columns.

        The default splits :meth:`search_batch`'s hits; an index that
        ranks natively overrides this and materializes in
        ``search_batch`` instead (``hits_of(rank_batch(...))``).
        """
        return [ranking_of(hits) for hits in self.search_batch(queries, k)]


def rank_top_k(scores: Dict[str, float], k: int) -> Ranking:
    """The k best (score, id) pairs as columns, deterministically.

    Ties are broken by instance id so that runs are reproducible.  When
    ``k`` is much smaller than the candidate set a bounded heap selects
    the winners in O(n log k) instead of sorting everything; both paths
    order by ``(-score, instance_id)`` and return identical columns.
    """
    if k <= 0:
        return [], []
    pairs = zip(map(operator.neg, scores.values()), scores)
    if 4 * k < len(scores):
        ranked = heapq.nsmallest(k, pairs)
    else:
        ranked = sorted(pairs)[:k]
    return [i for _, i in ranked], [-negated for negated, _ in ranked]


def top_k(scores: Dict[str, float], k: int, index_name: str = "") -> List[SearchHit]:
    """:func:`rank_top_k`, materialized as hits."""
    return hits_of([rank_top_k(scores, k)], index_name)[0]
