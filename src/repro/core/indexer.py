"""The Indexer module: task-agnostic retrieval over the lake.

Per modality (tuples, tables, text files, KG entities) it maintains a
content-based BM25 index and, optionally, a semantic vector index; the
Combiner fuses their rankings.  All indexes speak instance ids, which
the lake resolves back to data instances.

Each instance is one entry, its serialized text under its own id: a
text file is retrieved whole, as the paper's Section 4 retrieves its
top-3 text files.

A modality's indexes and Combiner are built together, by
:meth:`build` or by the first read that needs them, and published only
once filled and sealed: a modality no caller reads (the KG entities,
under the default routes) is never built.

The module supports the full incremental lifecycle: instances added to
the lake after a build fold in with :meth:`add_instance`, and lake
churn flows through :meth:`remove_instance` / :meth:`update_instance`
(statistics corrected at once, the next read scoring a view of the last
seal plus the writes since, vector eviction) — no full rebuild
required; an update re-indexes only the entries whose payload changed.
A write changes only the modalities already built; one built later
reads the already-written lake.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import DataInstance, Modality, Table, TextDocument
from repro.embed.vectorizers import HashingVectorizer
from repro.index.base import Ranking, SearchHit, SearchIndex, hits_of
from repro.index.combiner import Combiner
from repro.index.inverted import InvertedIndex
from repro.index.vector import FlatVectorIndex
from repro.core.config import EMBEDDING_DIM, VerifAIConfig
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_BRANCH
from repro.text import analyze

_INDEXED_MODALITIES = (
    Modality.TUPLE,
    Modality.TABLE,
    Modality.TEXT,
    Modality.KG_ENTITY,
)


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
    ) -> None:
        self.lake = lake
        self.config = config or VerifAIConfig()
        self._content: Dict[Modality, InvertedIndex] = {}
        self._semantic: Dict[Modality, FlatVectorIndex] = {}
        self._combiners: Dict[Modality, Combiner] = {}
        self._vectorizer = HashingVectorizer(dim=EMBEDDING_DIM)
        self._metrics = get_registry()

    @property
    def built_modalities(self) -> FrozenSet[Modality]:
        """The modalities whose indexes are built."""
        return frozenset(self._combiners)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_semantic_index(
        self, modality: Modality
    ) -> Optional[FlatVectorIndex]:
        if not self.config.use_semantic_index:
            return None
        return FlatVectorIndex(
            dim=EMBEDDING_DIM,
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
                Modality.TABLE: {
                    instance.instance_id: serialize_instance(instance)
                },
                Modality.TUPLE: {
                    row.instance_id: serialize_instance(row)
                    for row in instance.iter_rows()
                },
            }
        else:
            modality = (
                Modality.TEXT if isinstance(instance, TextDocument)
                else Modality.TUPLE
            )
            entries = {
                modality: {
                    instance.instance_id: serialize_instance(instance)
                }
            }
        return {
            modality: by_id for modality, by_id in entries.items()
            if modality in self._combiners
        }

    def _index_entry(
        self, content, semantic, index_id: str, payload: str
    ) -> None:
        """Analyse one payload once and hand its terms to the BM25 index
        and, when there is one, the vector index: both analyse with the
        default chain, so each gets what its own ``add`` would have."""
        terms = analyze(payload)
        content.add_tokens(index_id, terms)
        if semantic is not None:
            semantic.add_vector(
                index_id, self._vectorizer.transform_tokens(terms)
            )

    def _index_entries(
        self, modality: Modality, entries: Dict[str, str]
    ) -> None:
        content = self._content[modality]
        semantic = self._semantic.get(modality)
        for index_id, payload in entries.items():
            self._index_entry(content, semantic, index_id, payload)

    def _unindex_entries(
        self, modality: Modality, entries: Dict[str, str]
    ) -> None:
        """Drop entries from the content index and the vector index,
        handing the BM25 index each payload's terms (the mirror of
        :meth:`_index_entry`), so a removal costs what the entry holds."""
        content = self._content[modality]
        semantic = self._semantic.get(modality)
        for index_id, payload in entries.items():
            content.remove(index_id, analyze(payload))
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
        return [
            (instance.instance_id, serialize_instance(instance))
            for instance in self.lake.iter_instances(modality)
        ]

    def build(
        self,
        modalities: Iterable[Modality] = _INDEXED_MODALITIES,
        branch=None,
        parent=None,
    ) -> "IndexerModule":
        """Index every instance of each named modality not built yet,
        in :class:`Modality` order (idempotent).

        A tracing ``branch`` (plus ``parent`` span) emits one
        ``index.build:<modality>`` span per modality this call builds.
        """
        missing = {
            modality for modality in modalities
            if modality not in self._combiners
        }
        if not missing:
            return self
        branch = branch or NULL_BRANCH
        for modality in _INDEXED_MODALITIES:
            if modality in missing:
                with branch.span(
                    f"index.build:{modality.value}",
                    parent=parent,
                    attributes={"modality": modality.value},
                ):
                    self._build_modality(modality)
        return self

    def _build_modality(self, modality: Modality) -> None:
        """Fill, seal and wire up one modality's indexes, then publish
        them: the Combiner last, because its presence is what tells a
        reader the modality is built."""
        content = InvertedIndex(name=f"bm25-{modality.value}")
        semantic = self._new_semantic_index(modality)
        for index_id, payload in self._modality_entries(modality):
            self._index_entry(content, semantic, index_id, payload)
        content.seal()
        indexes: List[SearchIndex] = [content]
        if semantic is not None:
            indexes.append(semantic)
            self._semantic[modality] = semantic
        self._content[modality] = content
        self._combiners[modality] = Combiner(
            indexes,
            method=self.config.fusion,
            name=self.index_name(modality),
        )

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
        index entries — a table's tuples — are recomputed from it.
        Content postings and vector entries go at once.
        """
        for modality, entries in self._instance_entries(instance).items():
            self._unindex_entries(modality, entries)
        self._metrics.counter("indexer.mutations.removed").inc()

    def update_instance(
        self, old: DataInstance, new: DataInstance
    ) -> None:
        """Replace an instance's index entries with its new version.

        Needs both versions: the old one names the entries to drop
        (its tuple ids may differ from the new one's), the new
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
        """:meth:`rank_batch`, materialized as hits."""
        return hits_of(
            self.rank_batch(queries, modality, k), self.index_name(modality)
        )

    def rank_batch(
        self, queries: List[str], modality: Modality, k: Optional[int] = None
    ) -> List[Ranking]:
        """Coarse top-k for a whole query batch against one modality, as
        :data:`Ranking` columns.

        Every underlying index ranks the batch in one call and each
        query's rankings are fused in columns; no hit is built here.
        """
        queries = list(queries)
        if not queries:
            return []
        self.build((modality,))
        self._metrics.counter(f"indexer.search.{modality.value}").inc(
            len(queries)
        )
        depth = k if k is not None else self.config.k_coarse
        return self._combiners[modality].rank_batch(queries, depth)

    @staticmethod
    def index_name(modality: Modality) -> str:
        """The name a coarse hit of ``modality`` carries."""
        return f"combined-{modality.value}"

    def content_index(self, modality: Modality) -> InvertedIndex:
        """Direct access to one modality's BM25 index (for ablations)."""
        self.build((modality,))
        return self._content[modality]

    def semantic_index(
        self, modality: Modality
    ) -> Optional[FlatVectorIndex]:
        """Direct access to one modality's vector index, if enabled."""
        self.build((modality,))
        return self._semantic.get(modality)

    def fetch_payload(self, instance_id: str) -> str:
        """Serialized payload of any indexed instance, rendered from the
        lake as it is now (a removed instance raises the lake's
        ``KeyError``).  Not memoised: a render costs less than an LRU's
        bookkeeping (docs/performance.md, "Evidence text: no cache")."""
        return serialize_instance(self.lake.instance(instance_id))
