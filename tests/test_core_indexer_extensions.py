"""Chunked text indexing, incremental updates, and KG-modality search."""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule, _fold_chunks_to_documents
from repro.index.base import hits_of
from repro.datalake.lake import DataLake
from repro.datalake.types import Modality, Source, Table, TextDocument


class TestChunkedText:
    @pytest.fixture()
    def chunked(self, tiny_lake):
        config = VerifAIConfig(chunk_text=True, chunk_max_tokens=16)
        return IndexerModule(tiny_lake, config).build()

    def test_hits_are_parent_documents(self, chunked):
        hits = chunked.search("valoria gold medals", Modality.TEXT, 2)
        assert hits
        assert all("#c" not in hit.instance_id for hit in hits)
        assert hits[0].instance_id == "page-valoria"

    def test_long_document_findable_by_buried_fact(self, chunked):
        hits = chunked.search("102,000 votes", Modality.TEXT, 1)
        assert hits[0].instance_id == "page-jenkins"

    def test_fold_keeps_best_score(self):
        ranking = (["d1#c0", "d1#c2", "d2#c0"], [0.5, 0.9, 0.7])
        folded = hits_of([_fold_chunks_to_documents(ranking, 5)], "chunks")[0]
        by_id = {h.instance_id: h.score for h in folded}
        assert by_id == {"d1": 0.9, "d2": 0.7}
        assert {h.index_name for h in folded} == {"chunks"}

    def test_fold_respects_k(self):
        ranking = (
            [f"d{i}#c0" for i in range(5)], [1.0 - i * 0.1 for i in range(5)]
        )
        assert len(_fold_chunks_to_documents(ranking, 2)[0]) == 2

    def test_fold_reranks_late_best_chunk(self):
        # d2's best chunk appears after d1's first chunk; d2 must still
        # outrank d1 because its best-chunk score is higher
        ranking = (["d1#c0", "d2#c0", "d2#c7"], [0.6, 0.5, 0.9])
        folded = hits_of([_fold_chunks_to_documents(ranking, 5)], "")[0]
        assert [(h.instance_id, h.score) for h in folded] == [
            ("d2", 0.9), ("d1", 0.6),
        ]

    def test_fold_breaks_score_ties_by_id(self):
        ranking = (["dz#c0", "da#c0"], [0.5, 0.5])
        folded = hits_of([_fold_chunks_to_documents(ranking, 5)], "")[0]
        assert [h.instance_id for h in folded] == ["da", "dz"]

    def test_other_modalities_unaffected(self, chunked, tiny_lake):
        assert len(chunked.content_index(Modality.TUPLE)) == (
            tiny_lake.stats().num_tuples
        )


class TestIncrementalUpdates:
    def make_lake(self):
        lake = DataLake("inc")
        lake.add_table(
            Table("t0", "first table about apples", ("item", "count"),
                  [("apple", "5")], source=Source("s"))
        )
        return lake

    def test_new_table_and_tuples_searchable(self):
        lake = self.make_lake()
        indexer = IndexerModule(lake).build()
        new_table = Table(
            "t1", "second table about oranges", ("item", "count"),
            [("orange", "7"), ("tangerine", "2")], source=Source("s"),
        )
        lake.add_table(new_table)
        indexer.add_instance(new_table)
        assert indexer.search("oranges", Modality.TABLE, 1)[0].instance_id == "t1"
        assert indexer.search("tangerine", Modality.TUPLE, 1)[0].instance_id == (
            "t1#r1"
        )

    def test_new_document_searchable(self):
        lake = self.make_lake()
        indexer = IndexerModule(lake).build()
        doc = TextDocument("d1", "Oranges", "Oranges are citrus fruit.")
        lake.add_document(doc)
        indexer.add_instance(doc)
        assert indexer.search("citrus", Modality.TEXT, 1)[0].instance_id == "d1"

    def test_add_before_build_builds_nothing(self):
        lake = self.make_lake()
        indexer = IndexerModule(lake)
        indexer.add_instance(lake.table("t0"))
        assert indexer.built_modalities == frozenset()
        assert indexer.search("apples", Modality.TABLE, 1)


class TestKGModality:
    def test_kg_entities_searchable(self):
        lake = DataLake("kg-lake")
        lake.kg.add("tom jenkins", "party", "republican")
        lake.kg.add("tom jenkins", "district", "ohio 1")
        lake.kg.add("anne clark", "party", "democratic")
        indexer = IndexerModule(lake).build()
        hits = indexer.search("jenkins republican", Modality.KG_ENTITY, 1)
        assert hits[0].instance_id == "kg:tom_jenkins"

    def test_kg_instance_resolution(self):
        lake = DataLake("kg-lake")
        lake.kg.add("tom jenkins", "party", "republican")
        entity = lake.instance("kg:tom_jenkins")
        assert entity.name == "tom jenkins"

    def test_kg_unknown_id(self):
        lake = DataLake("kg-lake")
        with pytest.raises(KeyError):
            lake.instance("kg:nobody")
