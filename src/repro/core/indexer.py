"""The Indexer module: task-agnostic retrieval over the lake.

Per modality (tuples, tables, text files, KG entities) it maintains a
content-based BM25 index and, optionally, a semantic vector index; the
Combiner fuses their rankings.  All indexes speak instance ids, which
the lake resolves back to data instances.

Text documents may be indexed as sentence-aligned chunks
(``config.chunk_text``): retrieval then scores passages — long pages no
longer drown a single relevant sentence in length normalization — and
chunk hits are folded back to their parent documents.

With ``config.num_shards > 1`` every modality's content + semantic
index is partitioned into N shards by stable hash of the instance id's
root (chunks co-locate with their parent document, tuples with their
parent table), and ``search()`` runs scatter-gather.  Shard results are
proven hit-for-hit identical — ids *and* scores — to the monolithic
build (tests/test_index_sharding.py), so downstream modules never know
shards exist.

A modality's indexes and Combiner are built together, by
:meth:`build` or by the first read that needs them, and published only
once filled and sealed: a modality no caller reads (the KG entities,
under the default routes) is never built.

The module supports the full incremental lifecycle: instances added to
the lake after a build fold in with :meth:`add_instance`, and lake
churn flows through :meth:`remove_instance` / :meth:`update_instance`
(postings removed at once, the sealed form patched on the next read,
vector eviction) — no full rebuild required; an update re-indexes only
the entries whose payload changed.  A write changes only the modalities
already built; one built later reads the already-written lake.
Mutations are single-writer: do not interleave them with concurrent
searches.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import DataInstance, Modality, Table, TextDocument
from repro.embed.chunker import chunk_document
from repro.embed.vectorizers import HashingVectorizer
from repro.index.base import Ranking, SearchHit, SearchIndex, top_k
from repro.index.combiner import Combiner
from repro.index.inverted import InvertedIndex
from repro.index.shard import (
    ShardedInvertedIndex,
    ShardedVectorIndex,
    shard_of,
)
from repro.index.vector import FlatVectorIndex
from repro.core.config import VerifAIConfig
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_BRANCH

_INDEXED_MODALITIES = (
    Modality.TUPLE,
    Modality.TABLE,
    Modality.TEXT,
    Modality.KG_ENTITY,
)

#: (shard number, build start, build end, entries built) timings the
#: sharded build reports for metrics and spans
_ShardTiming = Tuple[int, float, float, int]


def _fold_chunks_to_documents(
    ranking: Ranking, k: int, index_name: str
) -> List[SearchHit]:
    """Collapse a chunk ranking (``doc#cN`` ids) onto the parent
    documents, keeping each document's best chunk score.  Documents are
    re-ranked by ``(-score, instance_id)`` afterwards: a document whose
    best chunk appears late in the chunk ranking must not be stuck at the
    position of its first (weaker) chunk."""
    best: Dict[str, float] = {}
    for chunk_id, score in zip(*ranking):
        doc_id = chunk_id.split("#c", 1)[0]
        current = best.get(doc_id)
        if current is None or score > current:
            best[doc_id] = score
    return top_k(best, k, index_name)


def _entries_missing_from(
    other: Dict[str, str], entries: Dict[str, str]
) -> Dict[str, str]:
    """The entries whose ``(id, payload)`` is not in ``other``."""
    return {
        index_id: payload for index_id, payload in entries.items()
        if other.get(index_id) != payload
    }


class IndexerModule:
    """Per-modality content + semantic indexes with a Combiner on top."""

    def __init__(
        self,
        lake: DataLake,
        config: Optional[VerifAIConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.lake = lake
        self.config = config or VerifAIConfig()
        if self.config.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {self.config.num_shards}"
            )
        self.clock: Clock = clock or MonotonicClock()
        self._content: Dict[Modality, SearchIndex] = {}
        self._semantic: Dict[Modality, SearchIndex] = {}
        self._combiners: Dict[Modality, Combiner] = {}
        self._vectorizer = HashingVectorizer(dim=self.config.embedding_dim)
        # guards the lazy builds: readers on several threads may race to
        # build the same modality
        self._build_lock = threading.Lock()
        self._metrics = get_registry()

    @property
    def built_modalities(self) -> FrozenSet[Modality]:
        """The modalities whose indexes are built."""
        return frozenset(self._combiners)

    @property
    def num_shards(self) -> int:
        """Configured shard count (1 = monolithic indexes)."""
        return self.config.num_shards

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _payload_entries(self, instance: DataInstance):
        """(index id, payload) entries for one instance — one per chunk
        for text documents when chunking is on."""
        if (
            self.config.chunk_text
            and isinstance(instance, TextDocument)
        ):
            chunks = chunk_document(
                instance, max_tokens=self.config.chunk_max_tokens
            )
            if chunks:
                return [(chunk.chunk_id, chunk.text) for chunk in chunks]
        return [(instance.instance_id, serialize_instance(instance))]

    def _new_content_index(self, modality: Modality) -> SearchIndex:
        if self.config.num_shards > 1:
            return ShardedInvertedIndex(
                self.config.num_shards,
                name=f"bm25-{modality.value}",
            )
        return InvertedIndex(name=f"bm25-{modality.value}")

    def _new_semantic_index(self, modality: Modality) -> Optional[SearchIndex]:
        if not self.config.use_semantic_index:
            return None
        if self.config.num_shards > 1:
            return ShardedVectorIndex(
                self.config.num_shards,
                dim=self.config.embedding_dim,
                encoder=self._vectorizer.transform,
                name=f"vec-{modality.value}",
            )
        return FlatVectorIndex(
            dim=self.config.embedding_dim,
            encoder=self._vectorizer.transform,
            name=f"vec-{modality.value}",
        )

    def _instance_entries(
        self, instance: DataInstance
    ) -> Dict[Modality, Dict[str, str]]:
        """Every ``index id -> payload`` entry one lake instance is
        indexed under, per built modality: a table is a TABLE entry plus
        a TUPLE entry per row (matching :meth:`build`'s coverage).  A
        modality not built yet reads the already-written lake when it
        is built, so a write leaves it out."""
        if isinstance(instance, Table):
            entries = {
                Modality.TABLE: dict(self._payload_entries(instance)),
                Modality.TUPLE: {
                    index_id: payload
                    for row in instance.iter_rows()
                    for index_id, payload in self._payload_entries(row)
                },
            }
        else:
            modality = (
                Modality.TEXT if isinstance(instance, TextDocument)
                else Modality.TUPLE
            )
            entries = {modality: dict(self._payload_entries(instance))}
        return {
            modality: by_id for modality, by_id in entries.items()
            if modality in self._combiners
        }

    def _index_entries(
        self, modality: Modality, entries: Dict[str, str]
    ) -> None:
        content = self._content[modality]
        semantic = self._semantic.get(modality)
        for index_id, payload in entries.items():
            content.add(index_id, payload)
            if semantic is not None:
                semantic.add(index_id, payload)

    def _unindex_entries(
        self, modality: Modality, entries: Dict[str, str]
    ) -> None:
        """Drop entries from the content index and the vector index."""
        content = self._content[modality]
        semantic = self._semantic.get(modality)
        for index_id in entries:
            content.remove(index_id)
            if semantic is not None:
                semantic.remove(index_id)

    def _modality_entries(self, modality: Modality) -> List[Tuple[str, str]]:
        """Every (index id, payload) entry of one modality, in lake
        iteration order."""
        if modality is Modality.KG_ENTITY:
            return [
                (entity.instance_id, entity.serialize())
                for entity in self.lake.kg.entities()
            ]
        entries: List[Tuple[str, str]] = []
        for instance in self.lake.iter_instances(modality):
            entries.extend(self._payload_entries(instance))
        return entries

    def build(
        self,
        modalities: Iterable[Modality] = _INDEXED_MODALITIES,
        branch=None,
        parent=None,
    ) -> "IndexerModule":
        """Index every instance of each named modality not built yet,
        in :class:`Modality` order (idempotent, and safe to race: the
        first caller builds a modality under the lock, later callers
        see it completed).

        A tracing ``branch`` (plus ``parent`` span) emits one
        ``index.build:<modality>`` span per modality this call builds,
        with per-shard children when the build is sharded.
        """
        missing = {
            modality for modality in modalities
            if modality not in self._combiners
        }
        if not missing:
            return self
        branch = branch or NULL_BRANCH
        with self._build_lock:
            for modality in _INDEXED_MODALITIES:
                if modality not in missing or modality in self._combiners:
                    continue
                with branch.span(
                    f"index.build:{modality.value}",
                    parent=parent,
                    attributes={
                        "modality": modality.value,
                        "shards": self.config.num_shards,
                    },
                ) as build_span:
                    self._build_modality(modality, branch, build_span)
            self._metrics.gauge("indexer.shard.count").set(
                self.config.num_shards
            )
        return self

    def _build_modality(self, modality: Modality, branch, build_span) -> None:
        """Fill, seal and wire up one modality's indexes, then publish
        them: the Combiner last, because its presence is what tells a
        reader the modality is built."""
        content = self._new_content_index(modality)
        semantic = self._new_semantic_index(modality)
        entries = self._modality_entries(modality)
        if self.config.num_shards > 1:
            timings = self._build_shards(content, semantic, entries)
            self._record_shard_build(branch, build_span, timings)
        else:
            for index_id, payload in entries:
                content.add(index_id, payload)
                if semantic is not None:
                    semantic.add(index_id, payload)
        content.seal()
        indexes: List[SearchIndex] = [content]
        if semantic is not None:
            indexes.append(semantic)
            self._semantic[modality] = semantic
        self._content[modality] = content
        self._combiners[modality] = Combiner(
            indexes,
            method=self.config.fusion,
            name=f"combined-{modality.value}",
        )

    def _build_shards(
        self,
        content: ShardedInvertedIndex,
        semantic: Optional[ShardedVectorIndex],
        entries: Sequence[Tuple[str, str]],
    ) -> List[_ShardTiming]:
        """Partition the entries and build every shard, one after
        another (pure-Python ``add`` holds the GIL: threads lost).

        Entries are added to shard sub-indexes directly, skipping the
        wrapper's per-add seal invalidation (nothing is sealed yet).
        """
        num_shards = self.config.num_shards
        buckets: List[List[Tuple[str, str]]] = [[] for _ in range(num_shards)]
        for entry in entries:
            buckets[shard_of(entry[0], num_shards)].append(entry)
        timings: List[_ShardTiming] = []
        for shard_no, bucket in enumerate(buckets):
            start = self.clock.now()
            content_shard = content.shards[shard_no]
            semantic_shard = (
                semantic.shards[shard_no] if semantic is not None else None
            )
            for index_id, payload in bucket:
                content_shard.add(index_id, payload)
                if semantic_shard is not None:
                    semantic_shard.add(index_id, payload)
            timings.append((shard_no, start, self.clock.now(), len(bucket)))
        return timings

    def _record_shard_build(
        self, branch, build_span, timings: List[_ShardTiming]
    ) -> None:
        """Report per-shard build metrics, and one span per shard under
        the modality's build span when tracing.

        Spans are emitted after the build, start/end backfilled from
        the times measured around each shard."""
        build_seconds = self._metrics.histogram("indexer.shard.build_seconds")
        for _, start, end, _ in timings:
            build_seconds.observe(end - start)
        self._metrics.counter("indexer.shard.builds").inc(len(timings))
        if branch is NULL_BRANCH:
            return
        for shard_no, start, end, entry_count in timings:
            with branch.span(
                "index.build.shard",
                parent=build_span,
                index=shard_no,
                attributes={"shard": shard_no, "entries": entry_count},
            ) as shard_span:
                pass
            shard_span.start = start
            shard_span.end = end

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_instance(self, instance: DataInstance) -> None:
        """Fold a newly added lake instance into the live indexes.

        Tables also index each of their tuples (matching :meth:`build`'s
        coverage).  The instance must already be registered in the lake.
        """
        for modality, entries in self._instance_entries(instance).items():
            self._index_entries(modality, entries)
        self._metrics.counter("indexer.mutations.added").inc()

    def remove_instance(self, instance: DataInstance) -> None:
        """Unindex an instance that was removed from the lake.

        Takes the removed instance itself (what
        :meth:`DataLake.remove_instance` returns) because its derived
        index entries — a table's tuples, a chunked document's chunks —
        are recomputed from it.  Content postings and vector entries go
        at once.
        """
        for modality, entries in self._instance_entries(instance).items():
            self._unindex_entries(modality, entries)
        self._metrics.counter("indexer.mutations.removed").inc()

    def update_instance(
        self, old: DataInstance, new: DataInstance
    ) -> None:
        """Replace an instance's index entries with its new version.

        Needs both versions: the old one names the entries to drop
        (its chunk/tuple ids may differ from the new one's), the new
        one is what :meth:`DataLake.update_instance` registered.  Only
        the entries whose ``(id, payload)`` differs between the two are
        touched — a one-cell change re-indexes the table and that row,
        not every row — so a write costs what it changed.
        """
        if old.instance_id != new.instance_id:
            raise ValueError(
                f"update must keep the instance id: "
                f"{old.instance_id!r} != {new.instance_id!r}"
            )
        before = self._instance_entries(old)
        after = self._instance_entries(new)
        for modality, entries in before.items():
            dropped = _entries_missing_from(after.get(modality, {}), entries)
            self._unindex_entries(modality, dropped)
        for modality, entries in after.items():
            added = _entries_missing_from(before.get(modality, {}), entries)
            self._index_entries(modality, added)
        # an update is one removal and one addition, as it is counted
        self._metrics.counter("indexer.mutations.removed").inc()
        self._metrics.counter("indexer.mutations.added").inc()
        self._metrics.counter("indexer.mutations.updated").inc()

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self, query: str, modality: Modality, k: Optional[int] = None
    ) -> List[SearchHit]:
        """Coarse top-k for one modality (content + semantic fused):
        the batch of one."""
        return self.search_batch([query], modality, k)[0]

    def search_batch(
        self, queries: List[str], modality: Modality, k: Optional[int] = None
    ) -> List[List[SearchHit]]:
        """Coarse top-k for a whole query batch against one modality.

        Every underlying index ranks the batch in one call, each
        query's rankings are fused in columns and (for chunked text)
        folded back to documents, and the ``k`` survivors are
        materialized here, once: the coarse list is a provenance stage.
        With shards configured this is a scatter-gather: every shard
        answers, the merged ranking is provably identical to the
        monolithic index's.
        """
        queries = list(queries)
        if not queries:
            return []
        self.build((modality,))
        self._metrics.counter(f"indexer.search.{modality.value}").inc(
            len(queries)
        )
        if self.config.num_shards > 1:
            self._metrics.counter("indexer.shard.search.fanout").inc(
                self.config.num_shards * len(queries)
            )
        depth = k if k is not None else self.config.k_coarse
        combiner = self._combiners[modality]
        if modality is Modality.TEXT and self.config.chunk_text:
            return [
                _fold_chunks_to_documents(raw, depth, combiner.name)
                for raw in combiner.rank_batch(queries, depth * 3)
            ]
        return combiner.search_batch(queries, depth)

    def content_index(self, modality: Modality) -> SearchIndex:
        """Direct access to one modality's BM25 index (for ablations).

        An :class:`InvertedIndex`, or a :class:`ShardedInvertedIndex`
        when ``config.num_shards > 1``."""
        self.build((modality,))
        return self._content[modality]

    def semantic_index(self, modality: Modality) -> Optional[SearchIndex]:
        """Direct access to one modality's vector index, if enabled."""
        self.build((modality,))
        return self._semantic.get(modality)

    def fetch_payload(self, instance_id: str) -> str:
        """Serialized payload of any indexed instance, rendered from the
        lake as it is now (a removed instance raises the lake's
        ``KeyError``).  Not memoised: a render costs less than an LRU's
        bookkeeping (docs/performance.md, "Evidence text: no cache")."""
        return serialize_instance(self.lake.instance(instance_id))
