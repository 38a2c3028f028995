"""IndexerModule: per-modality retrieval over a lake."""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality


@pytest.fixture(scope="module")
def built(tiny_lake):
    return IndexerModule(tiny_lake, VerifAIConfig()).build()


class TestBuild:
    def test_idempotent(self, built):
        before = len(built.content_index(Modality.TUPLE))
        built.build()
        assert len(built.content_index(Modality.TUPLE)) == before

    def test_lazy_build_on_search(self, tiny_lake):
        indexer = IndexerModule(tiny_lake)
        assert indexer.built_modalities == frozenset()
        indexer.search("tom jenkins", Modality.TUPLE, 1)
        assert indexer.built_modalities == {Modality.TUPLE}

    def test_counts_per_modality(self, built, tiny_lake):
        stats = tiny_lake.stats()
        assert len(built.content_index(Modality.TUPLE)) == stats.num_tuples
        assert len(built.content_index(Modality.TABLE)) == stats.num_tables
        assert len(built.content_index(Modality.TEXT)) == stats.num_text_files

    def test_semantic_disabled_by_default(self, built):
        assert built.semantic_index(Modality.TUPLE) is None

    def test_semantic_enabled(self, tiny_lake):
        indexer = IndexerModule(
            tiny_lake, VerifAIConfig(use_semantic_index=True, embedding_dim=64)
        ).build()
        assert indexer.semantic_index(Modality.TUPLE) is not None


class TestSearch:
    def test_tuple_search(self, built):
        hits = built.search("tom jenkins republican", Modality.TUPLE, 1)
        assert hits[0].instance_id == "t-ohio-1950#r0"

    def test_table_search(self, built):
        hits = built.search("summer games medal", Modality.TABLE, 1)
        assert hits[0].instance_id == "t-games-1960"

    def test_text_search(self, built):
        hits = built.search("valoria gold medals", Modality.TEXT, 1)
        assert hits[0].instance_id == "page-valoria"

    def test_k_respected(self, built):
        assert len(built.search("ohio", Modality.TUPLE, 2)) == 2

    def test_fetch_payload(self, built):
        payload = built.fetch_payload("t-ohio-1950#r0")
        assert "tom jenkins" in payload
