"""Row/Table/TextDocument datatypes."""

import pytest

from repro.datalake.serialize import (
    serialize_instance,
    serialize_row,
    serialize_table,
    serialize_text,
)
from repro.datalake.types import (
    Modality,
    Row,
    Source,
    Table,
    TextDocument,
    instance_id_of,
    modality_of,
)
from repro.datalake.lake import LakeStats
from repro.verify.objects import ClaimObject, TupleObject

#: values that are no lake instance, though some look like one
NOT_INSTANCES = {
    "text": "not an instance",
    "none": None,
    "id": "t-ohio-1950",
    "kg-id": "kg:tom_jenkins",
    "number": 3,
    "dict": {"table_id": "t", "rows": []},
    "source": Source("tabfact"),
    "claim": ClaimObject("c", "the party of tom jenkins is republican"),
    "stats": LakeStats(1, 1, 1, 1),
}


class TestRow:
    def make(self):
        return Row("t1", 2, ("a", "b"), ("x", "1,234"))

    def test_instance_id(self):
        assert self.make().instance_id == "t1#r2"

    def test_as_dict(self):
        assert self.make().as_dict() == {"a": "x", "b": "1,234"}

    def test_get_missing_column(self):
        assert self.make().get("nope") is None

    def test_numeric(self):
        assert self.make().numeric("b") == 1234.0

    def test_numeric_non_number(self):
        assert self.make().numeric("a") is None

    def test_replace_value(self):
        replaced = self.make().replace_value("a", "y")
        assert replaced.get("a") == "y"
        assert self.make().get("a") == "x"  # original untouched

    def test_replace_unknown_column(self):
        with pytest.raises(KeyError):
            self.make().replace_value("zzz", "y")

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Row("t", 0, ("a", "b"), ("only-one",))


class TestTable:
    def test_row_accessor(self, election_table):
        row = election_table.row(0)
        assert row.get("incumbent") == "tom jenkins"
        assert row.table_id == election_table.table_id

    def test_iter_rows(self, election_table):
        rows = election_table.iter_rows()
        assert len(rows) == election_table.num_rows
        assert rows[1].row_index == 1

    def test_column_values(self, election_table):
        assert election_table.column_values("party") == [
            "republican", "republican", "democratic", "democratic",
        ]

    def test_column_numbers(self, election_table):
        numbers = election_table.column_numbers("votes")
        assert numbers[0] == 102000.0

    def test_column_numbers_non_numeric(self, election_table):
        assert election_table.column_numbers("result") == [None] * 4

    def test_key_column_defaults_to_first(self):
        table = Table("t", "cap", ("x", "y"), [("1", "2")])
        assert table.key_column == "x"

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            Table("t", "cap", ("x", "y"), [("only-one",)])

    def test_has_column(self, election_table):
        assert election_table.has_column("votes")
        assert not election_table.has_column("nope")


class TestModality:
    def test_modality_of(self, election_table):
        assert modality_of(election_table) is Modality.TABLE
        assert modality_of(election_table.row(0)) is Modality.TUPLE
        doc = TextDocument("d", "T", "body")
        assert modality_of(doc) is Modality.TEXT

    @pytest.mark.parametrize("value", NOT_INSTANCES.values(),
                             ids=NOT_INSTANCES.keys())
    def test_modality_of_refuses_a_non_instance(self, value):
        with pytest.raises(TypeError, match="not a data instance"):
            modality_of(value)

    @pytest.mark.parametrize("value", NOT_INSTANCES.values(),
                             ids=NOT_INSTANCES.keys())
    def test_serialize_instance_refuses_a_non_instance(self, value):
        with pytest.raises(TypeError, match="not a data instance"):
            serialize_instance(value)

    def test_a_tuple_object_is_no_instance(self, election_table):
        obj = TupleObject("o", election_table.row(0), attribute="party")
        with pytest.raises(TypeError):
            modality_of(obj)

    def test_the_modalities_are_the_papers_three(self):
        assert [m.value for m in Modality] == ["tuple", "table", "text"]
        with pytest.raises(ValueError):
            Modality("kg_entity")

    @pytest.mark.parametrize("modality", list(Modality), ids=str)
    def test_each_kind_has_its_modality_and_serializer(
        self, election_table, modality
    ):
        instance, serializer = {
            Modality.TUPLE: (election_table.row(1), serialize_row),
            Modality.TABLE: (election_table, serialize_table),
            Modality.TEXT: (TextDocument("d", "T", "body"), serialize_text),
        }[modality]
        assert modality_of(instance) is modality
        assert serialize_instance(instance) == serializer(instance)

    def test_instance_id_of(self, election_table):
        assert instance_id_of(election_table) == election_table.table_id
        assert instance_id_of(election_table.row(1)).endswith("#r1")


class TestSource:
    def test_str(self):
        assert str(Source("tabfact")) == "tabfact"

    def test_frozen(self):
        with pytest.raises(Exception):
            Source("a").name = "b"
