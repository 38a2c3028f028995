"""Sharded scatter-gather indexes.

The ROADMAP's scale direction: partition one logical index into N
shards by a **stable hash of the instance id's root** (so chunk ids
``doc#cN`` and tuple ids ``table#rN`` co-locate with their parent
document/table), build the shards independently — and in parallel —
and serve ``search()`` by **scatter-gather**: query every shard,
merge the per-shard rankings under the global ``(-score,
instance_id)`` total order, truncate to k.

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

Mutation propagates: removing or updating an instance in one shard
invalidates *every* shard's sealed read form (global statistics
changed), and the next search re-seals.

How the scatter *runs* — serial loop, thread pool, or a process pool
whose workers memmap-attach sealed shard snapshots — is selected per
index by ``executor=`` (see :mod:`repro.index.executor`).  All three
strategies call the same sealed kernels on the same arrays, so the
choice affects wall-clock only, never a single hit or score.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Optional

import numpy as np

from repro.index import executor as shard_executor
from repro.index.base import SearchHit, SearchIndex
from repro.index.executor import ShardSpool, validate_executor_mode
from repro.index.inverted import CorpusStats, InvertedIndex
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
        return sum(shard.local_df(token) for shard in self._shards)


class ShardedInvertedIndex(SearchIndex):
    """N BM25 shards behind one :class:`SearchIndex` face.

    Writes route by :func:`shard_of`; reads scatter to every shard and
    gather-merge.  Every shard scores with :class:`GlobalBM25Stats`,
    so results are hit-for-hit identical to a single
    :class:`InvertedIndex` over the same corpus.
    """

    def __init__(
        self,
        num_shards: int,
        name: str = "bm25-sharded",
        k1: float = 1.2,
        b: float = 0.75,
        remove_stopwords: bool = True,
        stemming: bool = True,
        auto_seal: bool = True,
        executor: str = "serial",
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.name = name
        self.num_shards = num_shards
        self.auto_seal = auto_seal
        self.search_executor = validate_executor_mode(executor)
        self._spool = ShardSpool(prefix=f"repro-{name}-")
        self.shards: List[InvertedIndex] = [
            InvertedIndex(
                name=f"{name}/s{i}",
                k1=k1,
                b=b,
                remove_stopwords=remove_stopwords,
                stemming=stemming,
                auto_seal=auto_seal,
            )
            for i in range(num_shards)
        ]
        stats = GlobalBM25Stats(self.shards)
        for shard in self.shards:
            shard.corpus_stats = stats

    # -- routing --------------------------------------------------------
    def shard_for(self, instance_id: str) -> InvertedIndex:
        """The shard an instance id lives in."""
        return self.shards[shard_of(instance_id, self.num_shards)]

    def _invalidate_seals(self) -> None:
        """Global statistics changed: every shard's compiled form is
        stale, not just the mutated one's — and so is the persisted
        spool process workers attach."""
        for shard in self.shards:
            shard.invalidate_seal()
        self._spool.invalidate()

    # -- writes ---------------------------------------------------------
    def add(self, instance_id: str, payload: str) -> None:
        self.shard_for(instance_id).add(instance_id, payload)
        self._invalidate_seals()

    def remove(self, instance_id: str) -> None:
        """Remove one document (KeyError when absent)."""
        self.shard_for(instance_id).remove(instance_id)
        self._invalidate_seals()

    def update(self, instance_id: str, payload: str) -> None:
        """Replace one document's payload (remove + add)."""
        self.shard_for(instance_id).update(instance_id, payload)
        self._invalidate_seals()

    # -- reads ----------------------------------------------------------
    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        """Scatter the query to every shard, gather-merge the top-k."""
        return self.search_batch([query], k)[0]

    def search_batch(
        self, queries: List[str], k: int = 10
    ) -> List[List[SearchHit]]:
        """Scatter a whole query batch to every shard, gather-merge.

        Each shard scores the batch with the query-matrix kernel
        (:meth:`InvertedIndex.search_matrix`); the fan-out strategy is
        :attr:`search_executor` (``serial`` / ``thread`` / ``process``)
        and never changes a hit or a score.
        """
        queries = list(queries)
        if not queries:
            return []
        mode = self.search_executor
        if mode == "process":
            rankings = shard_executor.scatter_processes(
                self.shards, self._spool, queries, k
            )
        elif mode == "thread":
            rankings = shard_executor.scatter_threads(self.shards, queries, k)
        else:
            rankings = shard_executor.scatter_serial(self.shards, queries, k)
        # rankings is [shard][query]; merge per query across shards
        return [
            merge_shard_hits(
                [per_shard[qi] for per_shard in rankings], k, self.name
            )
            for qi in range(len(queries))
        ]

    def seal(self) -> "ShardedInvertedIndex":
        """Compile every shard's read form."""
        for shard in self.shards:
            if shard.auto_seal and len(shard):
                shard.seal()
        return self

    @property
    def is_sealed(self) -> bool:
        """True when every non-empty shard has a compiled read form."""
        populated = [shard for shard in self.shards if len(shard)]
        return bool(populated) and all(s.is_sealed for s in populated)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self.shard_for(instance_id)._doc_length


class ShardedVectorIndex(SearchIndex):
    """N flat vector shards behind one :class:`SearchIndex` face.

    Vector similarity is per-document local (no corpus statistics), so
    sharding only needs the routing rule and the exact merge.  The
    query is encoded once and scattered as a vector.
    """

    def __init__(
        self,
        num_shards: int,
        dim: int,
        encoder: Optional[Callable[[str], "np.ndarray"]] = None,
        metric: str = "cosine",
        name: str = "vec-sharded",
        executor: str = "serial",
    ) -> None:
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.name = name
        self.num_shards = num_shards
        self.dim = dim
        self._encoder = encoder
        self.search_executor = validate_executor_mode(executor)
        self._spool = ShardSpool(prefix=f"repro-{name}-")
        self.shards: List[FlatVectorIndex] = [
            FlatVectorIndex(
                dim=dim, encoder=encoder, metric=metric, name=f"{name}/s{i}"
            )
            for i in range(num_shards)
        ]

    def shard_for(self, instance_id: str) -> FlatVectorIndex:
        """The shard an instance id lives in."""
        return self.shards[shard_of(instance_id, self.num_shards)]

    def add(self, instance_id: str, payload: str) -> None:
        self.shard_for(instance_id).add(instance_id, payload)
        self._spool.invalidate()

    def remove(self, instance_id: str) -> None:
        """Evict one vector (KeyError when absent)."""
        self.shard_for(instance_id).remove(instance_id)
        self._spool.invalidate()

    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        return self.search_batch([query], k)[0]

    def search_batch(
        self, queries: List[str], k: int = 10
    ) -> List[List[SearchHit]]:
        """Encode the batch once, scatter the vectors to every shard.

        The fan-out strategy is :attr:`search_executor`; the encoder
        always runs in the parent process (worker processes only ever
        see dense vectors).
        """
        if self._encoder is None:
            raise RuntimeError(
                f"{type(self).__name__} has no encoder; construct with "
                "encoder= to search by string"
            )
        queries = list(queries)
        if not queries:
            return []
        vectors = [
            np.asarray(self._encoder(query), dtype=np.float64)
            for query in queries
        ]
        mode = self.search_executor
        if mode == "process":
            rankings = shard_executor.scatter_processes_vectors(
                self.shards, self._spool, vectors, k
            )
        elif mode == "thread":
            rankings = shard_executor.scatter_threads_vectors(
                self.shards, vectors, k
            )
        else:
            rankings = shard_executor.scatter_serial_vectors(
                self.shards, vectors, k
            )
        return [
            merge_shard_hits(
                [per_shard[qi] for per_shard in rankings], k, self.name
            )
            for qi in range(len(queries))
        ]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self.shard_for(instance_id)
