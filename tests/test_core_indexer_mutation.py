"""Post-seal mutation audit and payload-cache coherence.

The sealed (compiled) BM25 read form must never serve stale rankings:
any mutation after a ``search()`` — add, remove, or update — has to
invalidate the seal, and the next search has to re-seal over the
mutated corpus.  Likewise the Indexer's payload LRU must never return a
removed or pre-update serialization.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.pipeline import VerifAI
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality, Source, Table, TextDocument
from repro.index.inverted import InvertedIndex
from repro.workloads.builder import LakeConfig, build_lake


def make_doc(doc_id, text):
    return TextDocument(
        doc_id=doc_id, title=doc_id, text=text, source=Source("test")
    )


def make_table(table_id, rows):
    return Table(
        table_id=table_id,
        caption=f"{table_id} caption about medals",
        columns=("nation", "gold"),
        rows=rows,
        source=Source("test"),
    )


@pytest.fixture()
def lake_and_indexer():
    lake = build_lake(LakeConfig(num_tables=10, seed=41)).lake
    return lake, IndexerModule(lake, VerifAIConfig()).build()


# ---------------------------------------------------------------------------
# the raw index: seal lifecycle under mutation
# ---------------------------------------------------------------------------
class TestInvertedIndexSealLifecycle:
    DOCS = {
        "a": "red apples in the orchard",
        "b": "green apples and red pears",
        "c": "the orchard gate is green",
    }

    def build(self):
        index = InvertedIndex(name="seal-test")
        for doc_id, text in self.DOCS.items():
            index.add(doc_id, text)
        return index

    def remove(self, index, doc_id):
        """Remove a document of :attr:`DOCS` the way the indexer
        does: handing over the analysed tokens of what it indexed."""
        index.remove(doc_id, index._analyze(self.DOCS[doc_id]))

    def test_add_after_search_invalidates_and_reseals(self):
        index = self.build()
        index.search("apples", 5)
        assert index.is_sealed
        index.add("d", "red apples everywhere")
        assert not index.is_sealed
        hits = index.search("red apples", 5)
        assert index.is_sealed
        assert "d" in [h.instance_id for h in hits]

    def test_remove_after_search_invalidates_and_reseals(self):
        index = self.build()
        index.search("apples", 5)
        assert index.is_sealed
        self.remove(index, "a")
        assert not index.is_sealed
        assert [h.instance_id for h in index.search("orchard", 5)] == ["c"]

    def test_update_after_search_matches_fresh_build(self):
        index = self.build()
        index.search("apples", 5)
        self.remove(index, "b")
        index.add("b", "yellow bananas and red pears")
        fresh = InvertedIndex(name="seal-test")
        fresh.add("a", "red apples in the orchard")
        fresh.add("b", "yellow bananas and red pears")
        fresh.add("c", "the orchard gate is green")
        for query in ("red", "bananas", "apples orchard"):
            assert [
                (h.instance_id, h.score) for h in index.search(query, 5)
            ] == [(h.instance_id, h.score) for h in fresh.search(query, 5)]

    def test_removal_done_before_any_read(self):
        for sealed in (False, True):
            index = InvertedIndex(name="dict")
            index.add("a", "shared token alpha")
            index.add("b", "shared token beta")
            if sealed:  # the base carries "a": its tokens are handed over
                index.seal()
            index.remove("a", index._analyze("shared token alpha"))
            # the statistics move before any read, and the token only
            # "a" carried is out of the vocabulary
            assert not index.is_sealed
            assert index.local_df("alpha") == 0
            assert index.local_df("token") == 1
            assert index.avg_doc_length == 3.0
            hits = index.search("shared token", 5)
            assert [h.instance_id for h in hits] == ["b"]
            assert index.search("alpha", 5) == []
            assert "alpha" not in index._sealed.tok_pos

    def test_remove_then_readd_same_id(self):
        index = self.build()
        self.remove(index, "a")
        index.add("a", "completely new words about plums")
        hits = index.search("plums", 5)
        assert [h.instance_id for h in hits] == ["a"]
        # the old payload's tokens no longer reach "a"
        assert "a" not in [
            h.instance_id for h in index.search("orchard", 5)
        ]

    def test_remove_unknown_raises_and_changes_nothing(self):
        index = self.build()
        with pytest.raises(KeyError):
            index.remove("ghost", ())
        assert len(index) == 3

    def test_stats_corrected_before_compaction(self):
        index = self.build()
        before = index.avg_doc_length
        self.remove(index, "a")
        # every statistic reflects the removal at once, before any read
        assert not index.is_sealed
        assert len(index) == 2
        assert index.avg_doc_length != before or index._total_length >= 0
        # df is over post-analysis tokens ("apples" stems to "apple");
        # "orchard" appeared in docs a and c, and a is now gone
        assert index.local_df("orchard") == 1


# ---------------------------------------------------------------------------
# the indexer module: mutation after retrieval
# ---------------------------------------------------------------------------
class TestIndexerPostSealMutation:
    def test_add_instance_after_search_is_retrievable(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        indexer.search("anything at all", Modality.TEXT, 5)
        doc = make_doc("post-seal-doc", "ultramarine voyages of the kestrel")
        lake.add_document(doc)
        indexer.add_instance(doc)
        hits = indexer.search("ultramarine kestrel", Modality.TEXT, 5)
        assert hits and hits[0].instance_id == "post-seal-doc"

    def test_remove_instance_after_search_disappears(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        doc = lake.documents()[0]
        # warm the sealed path first
        indexer.search(doc.text[:40], Modality.TEXT, 5)
        removed = lake.remove_instance(doc.doc_id)
        indexer.remove_instance(removed)
        hits = indexer.search(doc.text[:40], Modality.TEXT, 50)
        assert all(h.instance_id != doc.doc_id for h in hits)

    def test_table_removal_drops_its_tuples_too(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        table = lake.tables()[0]
        row_ids = [row.instance_id for row in table.iter_rows()]
        indexer.search(table.caption, Modality.TUPLE, 5)
        removed = lake.remove_instance(table.table_id)
        indexer.remove_instance(removed)
        tuple_index = indexer.content_index(Modality.TUPLE)
        for row_id in row_ids:
            assert row_id not in tuple_index._doc_length
        assert table.table_id not in (
            indexer.content_index(Modality.TABLE)._doc_length
        )

    def test_update_with_different_row_count(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        table = lake.tables()[0]
        indexer.search(table.caption, Modality.TUPLE, 5)
        new = Table(
            table_id=table.table_id, caption="shrunk to one row",
            columns=("nation", "gold"), rows=[("valoria", "10")],
            source=table.source,
        )
        old = lake.update_instance(new)
        indexer.update_instance(old, new)
        tuple_index = indexer.content_index(Modality.TUPLE)
        assert f"{table.table_id}#r0" in tuple_index._doc_length
        for row in old.iter_rows()[1:]:
            assert row.instance_id not in tuple_index._doc_length

    def test_update_id_mismatch_rejected(self, lake_and_indexer):
        lake, indexer = lake_and_indexer
        doc = lake.documents()[0]
        other = make_doc("different-id", "text")
        with pytest.raises(ValueError):
            indexer.update_instance(doc, other)

    def test_mutation_before_build_is_noop(self):
        lake = build_lake(LakeConfig(num_tables=6, seed=42)).lake
        indexer = IndexerModule(lake, VerifAIConfig())
        doc = lake.remove_instance(lake.documents()[0].doc_id)
        indexer.remove_instance(doc)  # not built: must not raise
        indexer.build()
        hits = indexer.search(doc.text[:40], Modality.TEXT, 50)
        assert all(h.instance_id != doc.doc_id for h in hits)


# ---------------------------------------------------------------------------
# payload coherence: fetch_payload renders from the lake and keeps
# nothing, so these hold with no eviction code (each was once a bug of
# the LRU that used to sit there — the class keeps its name)
# ---------------------------------------------------------------------------
class TestPayloadCacheCoherence:
    def test_fetch_after_update_returns_new_payload(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=43)).lake
        system = VerifAI(lake).build_indexes()
        doc = lake.documents()[0]
        stale = system.indexer.fetch_payload(doc.doc_id)
        new = TextDocument(
            doc_id=doc.doc_id, title=doc.title,
            text=doc.text + " freshly updated content",
            source=doc.source, entity=doc.entity,
        )
        system.update_instance(new)
        fetched = system.indexer.fetch_payload(doc.doc_id)
        assert fetched != stale
        assert fetched == serialize_instance(new)

    def test_fetch_after_remove_raises_lake_keyerror(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=44)).lake
        system = VerifAI(lake).build_indexes()
        doc = lake.documents()[0]
        system.indexer.fetch_payload(doc.doc_id)  # fetched while present
        system.remove_instance(doc.doc_id)
        with pytest.raises(KeyError):
            system.indexer.fetch_payload(doc.doc_id)

    def test_table_update_evicts_row_payloads(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=45)).lake
        system = VerifAI(lake).build_indexes()
        table = lake.tables()[0]
        row_id = f"{table.table_id}#r0"
        stale = system.indexer.fetch_payload(row_id)
        new_rows = [tuple(f"{cell} updated" for cell in row)
                    for row in table.rows]
        new = Table(
            table_id=table.table_id, caption=table.caption,
            columns=table.columns, rows=new_rows, source=table.source,
            entity_columns=table.entity_columns,
            key_column=table.key_column, metadata=dict(table.metadata),
        )
        system.update_instance(new)
        assert system.indexer.fetch_payload(row_id) != stale

    def test_unbuilt_update_still_evicts_cached_payload(self):
        """Regression (of the LRU): eviction used to be skipped when
        the indexes weren't built yet, so a fetch_payload() before
        build() pinned a stale payload across an update forever."""
        lake = build_lake(LakeConfig(num_tables=8, seed=47)).lake
        indexer = IndexerModule(lake, VerifAIConfig())  # never built
        doc = lake.documents()[0]
        stale = indexer.fetch_payload(doc.doc_id)
        new = TextDocument(
            doc_id=doc.doc_id, title=doc.title,
            text=doc.text + " rewritten before any index existed",
            source=doc.source, entity=doc.entity,
        )
        lake.update_instance(new)
        indexer.update_instance(doc, new)
        fetched = indexer.fetch_payload(doc.doc_id)
        assert fetched != stale
        assert fetched == serialize_instance(new)

    def test_unbuilt_remove_evicts_table_row_payloads(self):
        lake = build_lake(LakeConfig(num_tables=8, seed=48)).lake
        indexer = IndexerModule(lake, VerifAIConfig())  # never built
        table = lake.tables()[0]
        row_id = f"{table.table_id}#r0"
        indexer.fetch_payload(row_id)  # a row of the table, while present
        lake.remove_instance(table.table_id)
        indexer.remove_instance(table)
        with pytest.raises(KeyError):
            indexer.fetch_payload(row_id)
