"""IndexerModule: per-modality retrieval over a lake."""

import dataclasses
import sys
from collections import Counter

import pytest

from repro.core.config import EMBEDDING_DIM, VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality
from repro.index.inverted import InvertedIndex
from repro.index.vector import FlatVectorIndex
from repro.workloads.builder import LakeConfig, build_lake

# ``repro.text.tokenize`` the attribute is the function; this is the module
tokenize_module = sys.modules["repro.text.tokenize"]


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
            tiny_lake, VerifAIConfig(use_semantic_index=True)
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


# ---------------------------------------------------------------------------
# each indexed payload is analysed once, for both of its indexes
# ---------------------------------------------------------------------------
class AnalyzeSpy:
    """Counts the texts ``analyze`` is called on, wherever it was
    imported: every module attribute bound to the function is patched."""

    def __init__(self, monkeypatch):
        self.texts = Counter()
        real = tokenize_module.analyze

        def spy(text, *args, **kwargs):
            self.texts[text] += 1
            return real(text, *args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "analyze", None) is real:
                monkeypatch.setattr(module, "analyze", spy)


QUERIES = ["ohio republican votes", "gold medals nation", "district 1950"]
#: the base's arrays a seal scores from, beside its own ``norm``
SEAL_ARRAYS = ("lengths", "tok_start", "doc_idx", "tf_flat", "ordinal")


def semantic_config():
    return VerifAIConfig(use_semantic_index=True)


def public_indexes(indexer, modality):
    """The modality's two indexes filled through the public
    ``add(id, payload)``, in the order the indexer adds its entries."""
    content = InvertedIndex()
    semantic = FlatVectorIndex(
        dim=EMBEDDING_DIM,
        encoder=indexer._vectorizer.transform,
    )
    for index_id, payload in indexer._modality_entries(modality):
        content.add(index_id, payload)
        semantic.add(index_id, payload)
    return content, semantic


def assert_same_indexes(indexer, modality, content, semantic):
    """Seal bytes, vector bits and rankings equal the reference's."""
    built = indexer.content_index(modality).seal()
    content.seal()
    got, want = built._sealed, content._sealed
    assert (got is None) == (want is None)
    if got is not None:
        assert got.base.doc_ids == want.base.doc_ids
        assert got.base.tokens == want.base.tokens
        assert got.base.by_ordinal.tolist() == want.base.by_ordinal.tolist()
        assert got.norm.tobytes() == want.norm.tobytes()
        for name in SEAL_ARRAYS:
            mine, theirs = getattr(got.base, name), getattr(want.base, name)
            assert mine.dtype == theirs.dtype, name
            assert mine.tobytes() == theirs.tobytes(), name
    vectors = indexer.semantic_index(modality)
    for index_id, _ in indexer._modality_entries(modality):
        assert vectors.vector_of(index_id).tobytes() == (
            semantic.vector_of(index_id).tobytes()
        )
    assert built.rank_batch(QUERIES, 5) == content.rank_batch(QUERIES, 5)
    assert vectors.rank_batch(QUERIES, 5) == semantic.rank_batch(QUERIES, 5)


class TestAnalyseOnce:
    @pytest.fixture()
    def lake(self):
        return build_lake(LakeConfig(num_tables=8, seed=41)).lake

    def test_the_build_analyses_each_entry_once(
        self, lake, monkeypatch
    ):
        indexer = IndexerModule(lake, semantic_config())
        entries = {
            modality: indexer._modality_entries(modality)
            for modality in (Modality.TUPLE, Modality.TABLE, Modality.TEXT)
        }
        spy = AnalyzeSpy(monkeypatch)
        indexer.build(tuple(entries))
        assert spy.texts == Counter(
            payload for listed in entries.values() for _, payload in listed
        )
        assert sum(spy.texts.values()) == sum(map(len, entries.values()))

    def test_a_write_analyses_each_changed_entry_once(
        self, lake, monkeypatch
    ):
        indexer = IndexerModule(lake, semantic_config()).build(
            (Modality.TUPLE, Modality.TABLE)
        )
        table = lake.tables()[0]
        rows = list(table.rows)
        rows[0] = rows[0][:-1] + ("987,654",)
        new = dataclasses.replace(table, rows=rows)
        old = lake.update_instance(new)
        spy = AnalyzeSpy(monkeypatch)
        indexer.update_instance(old, new)
        # the table's entry and its first row's: nothing else changed.
        # Each is analysed once as it was, for the removal's terms, and
        # once as it is, for the addition's
        changed = [
            serialize_instance(version)
            for version in (old, new, old.iter_rows()[0], new.iter_rows()[0])
        ]
        assert spy.texts == Counter(changed)

    def test_the_indexes_equal_ones_filled_through_add(
        self, lake
    ):
        indexer = IndexerModule(lake, semantic_config()).build()
        for modality in (Modality.TUPLE, Modality.TABLE, Modality.TEXT):
            assert_same_indexes(
                indexer, modality, *public_indexes(indexer, modality)
            )

    def test_after_a_write_they_equal_the_same_writes_through_add(
        self, lake
    ):
        indexer = IndexerModule(lake, semantic_config()).build(
            (Modality.TUPLE,)
        )
        content, semantic = public_indexes(indexer, Modality.TUPLE)
        table = lake.tables()[1]
        rows = list(table.rows)
        rows[-1] = rows[-1][:-1] + ("13 votes",)
        new = dataclasses.replace(table, rows=rows)
        indexer.update_instance(lake.update_instance(new), new)
        row = new.iter_rows()[-1]
        payload = serialize_instance(row)
        old_payload = serialize_instance(table.iter_rows()[-1])
        content.remove(row.instance_id, content._analyze(old_payload))
        semantic.remove(row.instance_id)
        for index in (content, semantic):
            index.add(row.instance_id, payload)
        assert_same_indexes(indexer, Modality.TUPLE, content, semantic)

    def test_add_tokens_records_what_add_records(self):
        payload = "The Ohio elections of 1950: 1,234 votes"
        handed = InvertedIndex()
        handed.add_tokens("a", tokenize_module.analyze(payload))
        added = InvertedIndex()
        added.add("a", payload)
        assert handed._fresh == added._fresh
        assert handed._df == added._df
        assert handed._doc_length == added._doc_length == {"a": 5}
        with pytest.raises(ValueError, match="duplicate"):
            handed.add_tokens("a", [])
