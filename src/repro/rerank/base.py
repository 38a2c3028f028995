"""Reranker interface.

A reranker scores (query, candidate payload) pairs; payload resolution
from instance ids happens through a caller-supplied fetch function so
rerankers stay storage-agnostic (``IndexerModule.fetch_payload``, the
pipeline's, renders afresh on every call and keeps nothing).

Scoring is split into what depends on the query alone, what depends on
the payload alone, and the comparison of the two.  :meth:`Reranker.rerank`
reads the query once for all its candidates, and what a reranker reads
in a payload is a pure function of the payload's text, kept in a bounded
per-reranker LRU keyed on that text; :meth:`Reranker.score` is the
one-candidate case of the same code.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Callable, List, Sequence

from repro.index.base import SearchHit

#: payload readings kept per reranker: at k = 50 the candidates of ~80
#: rerank calls, which is where the miss count of a campaign over the
#: 1,200-table lake stops falling.  A ColBERT reading is ~0.3 KB, a
#: table's ~6 KB and the fallback's ~20 KB (200 character trigrams), so
#: full memos hold ~1 / 25 / 80 MB.  Tuples are not reranked, so no
#: campaign over the default routes fills the ColBERT or fallback memo.
READINGS_SIZE = 4096


class Reranker(abc.ABC):
    """Scores a query against candidate payloads; higher is better.

    A payload's reading is kept in a per-reranker
    ``functools.lru_cache`` of ``READINGS_SIZE`` entries, which is
    thread-safe: ``verify_batch`` workers and ``serve``'s threads share
    one reranker, and a miss reads outside any lock (two threads missing
    on one text both compute the same pure value).
    """

    name: str = "reranker"

    def __init__(self) -> None:
        #: ``_read_payload(payload)``, once per distinct text while the
        #: LRU holds it
        self._readings = functools.lru_cache(maxsize=READINGS_SIZE)(
            self._read_payload
        )

    @abc.abstractmethod
    def _read_query(self, query: str) -> Any:
        """What scoring needs of the query, whatever the candidate."""

    @abc.abstractmethod
    def _read_payload(self, payload: str) -> Any:
        """What scoring needs of one payload, whatever the query.
        Shared by every thread that scores the payload, so nothing may
        write to it."""

    @abc.abstractmethod
    def _score(self, query: Any, payload: Any) -> float:
        """Fine-grained relevance of a read payload to a read query."""

    def score(self, query: str, payload: str) -> float:
        """Fine-grained relevance of ``payload`` to ``query``."""
        return self._score(self._read_query(query), self._readings(payload))

    def rerank(
        self,
        query: str,
        candidates: Sequence[SearchHit],
        fetch: Callable[[str], str],
        k: int = 5,
    ) -> List[SearchHit]:
        """Re-score ``candidates`` and return the top ``k``.

        ``fetch`` maps an instance id to its serialized payload.
        """
        if k <= 0 or not candidates:
            return []
        read = self._read_query(query)
        ids = [hit.instance_id for hit in candidates]
        scores = [
            self._score(read, self._readings(fetch(instance_id)))
            for instance_id in ids
        ]
        # plain (-score, id) tuples; a float's negation is exact both ways
        ranked = sorted(zip([-score for score in scores], ids))[:k]
        return [
            SearchHit(-negated, instance_id, self.name)
            for negated, instance_id in ranked
        ]
