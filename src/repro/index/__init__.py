"""Task-agnostic indexes over the data lake (the paper's Indexer module).

Two families, per Section 3.1:

* content-based — :class:`InvertedIndex` (Okapi BM25, the Elasticsearch
  stand-in).
* semantic-based — :class:`FlatVectorIndex` (exact), :class:`IVFFlatIndex`
  and :class:`HNSWIndex` (approximate; the Faiss stand-ins).

:class:`Combiner` merges results from multiple indexes and deduplicates,
as described in the paper's Combiner remark.

For scale, :class:`ShardedInvertedIndex` / :class:`ShardedVectorIndex`
partition either family into N hash-routed shards served by
scatter-gather, with results proven identical to the monolithic index
(see :mod:`repro.index.shard`).
"""

from repro.index.base import SearchHit, SearchIndex
from repro.index.combiner import Combiner, FusionMethod
from repro.index.hnsw import HNSWIndex
from repro.index.inverted import CorpusStats, InvertedIndex
from repro.index.shard import (
    GlobalBM25Stats,
    ShardedInvertedIndex,
    ShardedVectorIndex,
    merge_shard_hits,
    shard_key,
    shard_of,
)
from repro.index.ivf import IVFFlatIndex
from repro.index.vector import FlatVectorIndex, VectorIndex

__all__ = [
    "Combiner",
    "CorpusStats",
    "FlatVectorIndex",
    "FusionMethod",
    "GlobalBM25Stats",
    "HNSWIndex",
    "IVFFlatIndex",
    "InvertedIndex",
    "SearchHit",
    "SearchIndex",
    "ShardedInvertedIndex",
    "ShardedVectorIndex",
    "VectorIndex",
    "merge_shard_hits",
    "shard_key",
    "shard_of",
]
