"""DataLake catalog behaviour."""

import re

import pytest

from repro.datalake.lake import DataLake
from repro.datalake.types import Modality, Row, TextDocument, modality_of


class TestIngestion:
    def test_duplicate_table_rejected(self, election_table):
        lake = DataLake()
        lake.add_table(election_table)
        with pytest.raises(ValueError):
            lake.add_table(election_table)

    def test_duplicate_document_rejected(self):
        lake = DataLake()
        doc = TextDocument("d1", "T", "b")
        lake.add_document(doc)
        with pytest.raises(ValueError):
            lake.add_document(doc)


class TestLookup:
    def test_table_by_id(self, tiny_lake, election_table):
        assert tiny_lake.table(election_table.table_id) is election_table

    def test_document_by_id(self, tiny_lake):
        assert tiny_lake.document("page-jenkins").entity == "tom jenkins"

    def test_entity_page_case_insensitive(self, tiny_lake):
        assert tiny_lake.entity_page("Tom Jenkins").doc_id == "page-jenkins"

    def test_entity_page_missing(self, tiny_lake):
        assert tiny_lake.entity_page("nobody") is None

    def test_instance_resolves_table(self, tiny_lake, election_table):
        assert tiny_lake.instance(election_table.table_id) is election_table

    def test_instance_resolves_tuple(self, tiny_lake, election_table):
        row = tiny_lake.instance(f"{election_table.table_id}#r1")
        assert isinstance(row, Row)
        assert row.get("incumbent") == "bill hess"

    def test_instance_resolves_document(self, tiny_lake):
        assert tiny_lake.instance("page-valoria").title == "Valoria"

    def test_instance_unknown_id(self, tiny_lake):
        with pytest.raises(KeyError):
            tiny_lake.instance("nope")

    def test_instance_out_of_range_row(self, tiny_lake, election_table):
        with pytest.raises(KeyError):
            tiny_lake.instance(f"{election_table.table_id}#r99")

    def test_instance_malformed_row_suffix(self, tiny_lake, election_table):
        # "t#rfoo" must honour the documented KeyError contract, not
        # leak the int() ValueError
        with pytest.raises(KeyError):
            tiny_lake.instance(f"{election_table.table_id}#rfoo")

    def test_instance_negative_row_suffix(self, tiny_lake, election_table):
        with pytest.raises(KeyError):
            tiny_lake.instance(f"{election_table.table_id}#r-1")

    def test_malformed_row_suffix_not_contained(self, tiny_lake,
                                                election_table):
        assert f"{election_table.table_id}#rfoo" not in tiny_lake

    @pytest.mark.parametrize("instance_id", [
        "kg:x", "kg:tom_jenkins", "kg:", "", "page-nobody", "t-nobody#r0",
        "#r0", "t-ohio-1950#r",
    ])
    def test_an_unknown_id_is_a_key_error(self, tiny_lake, instance_id):
        with pytest.raises(
            KeyError, match=re.escape(f"no instance with id {instance_id!r}")
        ):
            tiny_lake.instance(instance_id)
        assert instance_id not in tiny_lake

    def test_contains(self, tiny_lake, election_table):
        assert election_table.table_id in tiny_lake
        assert f"{election_table.table_id}#r0" in tiny_lake
        assert "missing" not in tiny_lake


class TestIteration:
    def test_iter_tuples(self, tiny_lake):
        tuples = list(tiny_lake.iter_tuples())
        assert len(tuples) == 7  # 4 election rows + 3 medal rows

    def test_iter_instances_by_modality(self, tiny_lake):
        assert len(list(tiny_lake.iter_instances(Modality.TABLE))) == 2
        assert len(list(tiny_lake.iter_instances(Modality.TEXT))) == 2
        assert len(list(tiny_lake.iter_instances(Modality.TUPLE))) == 7

    def test_iter_non_modality_rejected(self, tiny_lake):
        with pytest.raises(ValueError):
            list(tiny_lake.iter_instances("kg_entity"))

    @pytest.mark.parametrize("modality", list(Modality), ids=str)
    def test_every_iterated_id_resolves_to_its_instance(
        self, small_bundle, modality
    ):
        lake = small_bundle.lake
        instances = list(lake.iter_instances(modality))
        assert instances
        for instance in instances:
            assert modality_of(instance) is modality
            assert lake.instance(instance.instance_id) == instance

    def test_sources(self, tiny_lake):
        names = {source.name for source in tiny_lake.sources()}
        assert names == {"tabfact", "wikipages"}


class TestStats:
    def test_stats(self, tiny_lake):
        stats = tiny_lake.stats()
        assert stats.num_tables == 2
        assert stats.num_tuples == 7
        assert stats.num_text_files == 2
        assert stats.num_sources == 2

    def test_len(self, tiny_lake):
        assert len(tiny_lake) == 4  # tables + documents
