"""Sharded scatter-gather indexes.

The ROADMAP's scale direction: partition one logical index into N
shards by a **stable hash of the instance id's root** (so chunk ids
``doc#cN`` and tuple ids ``table#rN`` co-locate with their parent
document/table), build the shards independently, and serve
``search()`` by **scatter-gather**: query every shard, merge the
per-shard rankings under the global ``(-score, instance_id)`` total
order, truncate to k.

The invariant everything below is built around (and that
``tests/test_index_sharding.py`` proves differentially):

    a sharded, mutated index returns answers *identical* — ids and
    scores — to a fresh single-shard build of the same corpus.

Two properties make that exact rather than approximate:

* **global statistics** — BM25 idf and length normalization read a
  :class:`GlobalBM25Stats` view that aggregates document counts,
  token lengths, and document frequencies across all shards.  The
  aggregates are integers, so every shard computes bit-identical
  per-document scores to the monolithic index;
* **exact merge** — each shard returns its local top-k under the
  shared ``(-score, instance_id)`` order; the global top-k is a
  subset of the union of local top-ks, so merging and truncating
  loses nothing and reorders nothing.

Both sharded indexes are one base class (routing, one
scatter-gather-merge) plus what differs: BM25 shards carry the global
statistics, and a write to one invalidates *every* shard's sealed read
form (the statistics changed); vector shards encode the batch once.
The scatter ranks the shards one after another on the calling thread.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.index.base import (
    Ranking, SearchHit, SearchIndex, hits_of, rank_top_k,
)
from repro.index.inverted import CorpusStats, InvertedIndex, MatrixPlan
from repro.index.vector import FlatVectorIndex


def shard_key(instance_id: str) -> str:
    """The routing key of an instance id: its root id.

    Derived ids — chunk ids (``doc#cN``) and tuple ids
    (``table#rN``) — share their parent's key, so a document's chunks
    (and a table's rows) always land in the same shard as the parent.
    """
    return instance_id.split("#", 1)[0]


def shard_of(instance_id: str, num_shards: int) -> int:
    """Stable shard number of an instance id.

    Uses a blake2b digest of the routing key, not ``hash()``, so the
    partition is identical across processes (Python string hashing is
    salted per process).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    digest = hashlib.blake2b(
        shard_key(instance_id).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % num_shards


def partition_ids(ids: List[str], num_shards: int) -> List[List[str]]:
    """Group ids into per-shard buckets, preserving input order."""
    buckets: List[List[str]] = [[] for _ in range(num_shards)]
    for instance_id in ids:
        buckets[shard_of(instance_id, num_shards)].append(instance_id)
    return buckets


def merge_shard_hits(
    rankings: List[List[SearchHit]], k: int, index_name: str = ""
) -> List[SearchHit]:
    """Gather per-shard rankings into the global top-k.

    Sorting the concatenation by ``(-score, instance_id)`` replays the
    exact total order the unsharded index ranks with; hits are
    re-tagged with the gathering index's name so callers see one
    logical index.
    """
    if k <= 0:
        return []
    merged = sorted(
        (hit for ranking in rankings for hit in ranking),
        key=lambda hit: (-hit.score, hit.instance_id),
    )[:k]
    return [
        SearchHit(
            score=hit.score,
            instance_id=hit.instance_id,
            index_name=index_name or hit.index_name,
        )
        for hit in merged
    ]


def merge_rankings(rankings: Iterable[Ranking], k: int) -> Ranking:
    """:func:`merge_shard_hits` in columns: the global top-k of
    per-shard rankings (an id lives in one shard), by the one selection
    every dict of scores goes through; nothing is materialized."""
    return rank_top_k(
        {
            instance_id: score
            for ids, scores in rankings
            for instance_id, score in zip(ids, scores)
        },
        k,
    )


class GlobalBM25Stats(CorpusStats):
    """Corpus statistics aggregated across every shard of one index.

    All aggregates are integer sums, so the values — and therefore
    every downstream idf/avg-length float — are exactly the unsharded
    index's.
    """

    def __init__(self, shards: List[InvertedIndex]) -> None:
        self._shards = shards

    def doc_count(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def total_token_length(self) -> int:
        return sum(shard._total_length for shard in self._shards)

    def df(self, token: str) -> int:
        # each shard's df table, current between seals
        return sum(shard.local_df(token) for shard in self._shards)


class _ShardedIndex(SearchIndex):
    """What the two sharded indexes share: routing by :func:`shard_of`
    and scatter-gather-merge.

    A subclass brings how a shard is made (``new_shard(name)``), the
    method a shard ranks a prepared batch with (``_task``) and what that
    method is handed for a query batch (``_prepare``).
    """

    def __init__(
        self, num_shards: int, name: str, new_shard: Callable
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.name = name
        self.num_shards = num_shards
        self.shards = [new_shard(f"{name}/s{i}") for i in range(num_shards)]

    def shard_for(self, instance_id: str):
        """The shard an instance id lives in."""
        return self.shards[shard_of(instance_id, self.num_shards)]

    def _written(self) -> None:
        """After every write: what a subclass must invalidate."""

    def add(self, instance_id: str, payload: str) -> None:
        self.shard_for(instance_id).add(instance_id, payload)
        self._written()

    def remove(self, instance_id: str) -> None:
        """Remove one instance (KeyError when absent)."""
        self.shard_for(instance_id).remove(instance_id)
        self._written()

    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        """Scatter the query to every shard, gather-merge the top-k."""
        return self.search_batch([query], k)[0]

    def search_batch(
        self, queries: List[str], k: int = 10
    ) -> List[List[SearchHit]]:
        return hits_of(self.rank_batch(queries, k), self.name)

    def rank_batch(self, queries: List[str], k: int = 10) -> List[Ranking]:
        """Prepare the batch once, rank it on every shard in turn,
        gather-merge the shards' columns."""
        queries = list(queries)
        if not queries:
            return []
        prepared = self._prepare(queries)
        per_shard = [  # [shard][query] -> ranking
            self._task(shard, prepared, k) for shard in self.shards
        ]
        return [
            merge_rankings(per_query, k) for per_query in zip(*per_shard)
        ]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self.shard_for(instance_id)


class ShardedInvertedIndex(_ShardedIndex):
    """N BM25 shards behind one :class:`SearchIndex` face.

    Every shard scores with :class:`GlobalBM25Stats`, so results are
    hit-for-hit identical to a single :class:`InvertedIndex` over the
    same corpus.  The batch is planned once
    (:meth:`InvertedIndex.plan_matrix`) and every shard ranks the plan
    (:meth:`InvertedIndex.rank_planned`).
    """

    _task = staticmethod(InvertedIndex.rank_planned)

    def __init__(
        self,
        num_shards: int,
        name: str = "bm25-sharded",
        k1: float = 1.2,
        b: float = 0.75,
        remove_stopwords: bool = True,
        stemming: bool = True,
    ) -> None:
        super().__init__(
            num_shards, name,
            lambda shard_name: InvertedIndex(
                name=shard_name, k1=k1, b=b,
                remove_stopwords=remove_stopwords, stemming=stemming,
            ),
        )
        stats = GlobalBM25Stats(self.shards)
        for shard in self.shards:
            shard.corpus_stats = stats

    def _prepare(self, queries: List[str]) -> MatrixPlan:
        # every shard shares the analyzer settings: analyze once
        return self.shards[0].plan_matrix(queries)

    def _written(self) -> None:
        """Global statistics changed: every shard's idf/norm tables are
        stale, not just the mutated one's, so every shard re-derives
        them on its next read (the mutated one folding its write in)."""
        for shard in self.shards:
            shard.invalidate_seal()

    def update(self, instance_id: str, payload: str) -> None:
        """Replace one document's payload (remove + add)."""
        self.shard_for(instance_id).update(instance_id, payload)
        self._written()

    def seal(self) -> "ShardedInvertedIndex":
        """Bring every populated shard's read form up to date."""
        for shard in self.shards:
            if len(shard):
                shard.seal()
        return self

    @property
    def is_sealed(self) -> bool:
        """True when every non-empty shard has a compiled read form."""
        populated = [shard for shard in self.shards if len(shard)]
        return bool(populated) and all(s.is_sealed for s in populated)


class ShardedVectorIndex(_ShardedIndex):
    """N flat vector shards behind one :class:`SearchIndex` face.

    Vector similarity is per-document local (no corpus statistics), so
    sharding only needs the routing rule and the exact merge.  The
    batch is encoded once and scattered as vectors.
    """

    _task = staticmethod(FlatVectorIndex.rank_vectors)

    def __init__(
        self,
        num_shards: int,
        dim: int,
        encoder: Optional[Callable[[str], "np.ndarray"]] = None,
        metric: str = "cosine",
        name: str = "vec-sharded",
    ) -> None:
        super().__init__(
            num_shards, name,
            lambda shard_name: FlatVectorIndex(
                dim=dim, encoder=encoder, metric=metric, name=shard_name
            ),
        )
        self.dim = dim
        self._encoder = encoder

    def _prepare(self, queries: List[str]) -> List["np.ndarray"]:
        if self._encoder is None:
            raise RuntimeError(
                f"{type(self).__name__} has no encoder; construct with "
                "encoder= to search by string"
            )
        return [
            np.asarray(self._encoder(query), dtype=np.float64)
            for query in queries
        ]
