"""Whole-instance entries and incremental updates."""

import pytest

from repro.core.indexer import IndexerModule
from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality, Source, Table, TextDocument


class TestWholeInstances:
    """Each lake instance is one entry under its own id, its payload the
    serialized instance: a text file is retrieved whole."""

    @pytest.fixture()
    def indexer(self, tiny_lake):
        return IndexerModule(tiny_lake).build()

    def test_a_text_file_is_one_entry(self, indexer, tiny_lake):
        documents = list(tiny_lake.iter_instances(Modality.TEXT))
        assert indexer._modality_entries(Modality.TEXT) == [
            (doc.instance_id, serialize_instance(doc)) for doc in documents
        ]
        assert len(indexer.content_index(Modality.TEXT)) == len(documents)

    def test_a_table_is_its_own_entry_and_one_per_row(
        self, indexer, election_table
    ):
        assert indexer._instance_entries(election_table) == {
            Modality.TABLE: {
                election_table.instance_id: serialize_instance(election_table)
            },
            Modality.TUPLE: {
                row.instance_id: serialize_instance(row)
                for row in election_table.iter_rows()
            },
        }

    def test_a_document_is_one_text_entry(self, indexer, tiny_lake):
        page = tiny_lake.instance("page-valoria")
        assert indexer._instance_entries(page) == {
            Modality.TEXT: {"page-valoria": serialize_instance(page)}
        }

    def test_a_lone_row_is_one_tuple_entry(self, indexer, election_table):
        row = election_table.row(1)
        assert indexer._instance_entries(row) == {
            Modality.TUPLE: {row.instance_id: serialize_instance(row)}
        }

    def test_an_unbuilt_modality_gets_no_entry(
        self, tiny_lake, election_table
    ):
        indexer = IndexerModule(tiny_lake).build((Modality.TUPLE,))
        assert set(indexer._instance_entries(election_table)) == {
            Modality.TUPLE
        }

    @pytest.mark.parametrize(
        "modality", [Modality.TUPLE, Modality.TABLE, Modality.TEXT],
        ids=lambda m: m.value,
    )
    def test_every_hit_is_a_lake_instance(self, indexer, tiny_lake, modality):
        ids = {i.instance_id for i in tiny_lake.iter_instances(modality)}
        found = indexer.search("tom jenkins ohio valoria gold", modality, 50)
        assert found
        assert {hit.instance_id for hit in found} <= ids

    def test_a_long_document_is_found_by_a_buried_fact(self):
        """The fact sits after a page of filler; the short pages share
        the filler's words and the query's common ones, not its name."""
        filler = " ".join(
            f"The river town held its market on day {n} of the season."
            for n in range(60)
        )
        lake = DataLake("long")
        lake.add_document(TextDocument(
            "long", "River town",
            filler + " The lighthouse keeper was Amelia Quarrington.",
        ))
        for n in range(5):
            lake.add_document(TextDocument(
                f"short-{n}", "Market",
                f"The lighthouse over the river town saw its market on "
                f"day {n}.",
            ))
        indexer = IndexerModule(lake).build()
        found = indexer.search(
            "who was the lighthouse keeper quarrington", Modality.TEXT, 3
        )
        assert found[0].instance_id == "long"

    def test_an_empty_batch_ranks_nothing_and_builds_nothing(self, tiny_lake):
        indexer = IndexerModule(tiny_lake)
        assert indexer.rank_batch([], Modality.TEXT) == []
        assert indexer.built_modalities == frozenset()


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

