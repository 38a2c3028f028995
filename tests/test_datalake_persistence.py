"""JSON save/load round-trip of lakes."""

import json

import pytest

from repro.datalake.persistence import load_lake, save_lake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality


class TestRoundTrip:
    def test_stats_preserved(self, tiny_lake, tmp_path):
        path = tmp_path / "lake.json"
        save_lake(tiny_lake, path)
        loaded = load_lake(path)
        assert loaded.stats() == tiny_lake.stats()
        assert loaded.name == tiny_lake.name

    def test_table_contents_preserved(self, tiny_lake, tmp_path, election_table):
        path = tmp_path / "lake.json"
        save_lake(tiny_lake, path)
        loaded = load_lake(path)
        table = loaded.table(election_table.table_id)
        assert table.rows == election_table.rows
        assert table.columns == election_table.columns
        assert table.caption == election_table.caption
        assert table.source.name == election_table.source.name
        assert table.entity_columns == election_table.entity_columns
        assert table.key_column == election_table.key_column

    def test_document_contents_preserved(self, tiny_lake, tmp_path):
        path = tmp_path / "lake.json"
        save_lake(tiny_lake, path)
        loaded = load_lake(path)
        doc = loaded.document("page-jenkins")
        assert doc.text == tiny_lake.document("page-jenkins").text
        assert doc.entity == "tom jenkins"

    def test_no_kg_triples_written(self, tiny_lake, tmp_path):
        path = tmp_path / "lake.json"
        save_lake(tiny_lake, path)
        assert sorted(json.loads(path.read_text())) == [
            "documents", "name", "tables", "version",
        ]

    def test_double_round_trip_stable(self, tiny_lake, tmp_path):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_lake(tiny_lake, path_a)
        save_lake(load_lake(path_a), path_b)
        assert json.loads(path_a.read_text()) == json.loads(path_b.read_text())

    def test_unknown_version_rejected(self, tiny_lake, tmp_path):
        path = tmp_path / "lake.json"
        save_lake(tiny_lake, path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_lake(path)

    def test_generated_bundle_round_trip(self, small_bundle, tmp_path):
        path = tmp_path / "big.json"
        save_lake(small_bundle.lake, path)
        loaded = load_lake(path)
        assert loaded.stats() == small_bundle.lake.stats()
        assert [t.rows for t in loaded.tables()] == [
            t.rows for t in small_bundle.lake.tables()
        ]

    @pytest.mark.parametrize("modality", list(Modality), ids=str)
    def test_every_instance_reads_back_as_written(
        self, small_bundle, tmp_path, modality
    ):
        path = tmp_path / "lake.json"
        save_lake(small_bundle.lake, path)
        loaded = load_lake(path)

        def rendered(lake):
            return [
                (instance.instance_id, serialize_instance(instance))
                for instance in lake.iter_instances(modality)
            ]

        assert rendered(loaded) == rendered(small_bundle.lake)


class TestAFileSavedWithAKnowledgeGraph:
    """Files saved before the lake dropped its knowledge graph carry a
    ``kg_triples`` key: empty (every default lake) or filled (a
    ``repro build-lake`` file)."""

    def saved_with(self, tiny_lake, tmp_path, **extra):
        path = tmp_path / "old.json"
        save_lake(tiny_lake, path)
        payload = json.loads(path.read_text())
        payload.update(extra)
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("extra", [{}, {"kg_triples": []}],
                             ids=["absent", "empty"])
    def test_an_empty_or_absent_graph_loads(self, tiny_lake, tmp_path, extra):
        loaded = load_lake(self.saved_with(tiny_lake, tmp_path, **extra))
        assert loaded.stats() == tiny_lake.stats()

    @pytest.mark.parametrize("count", [1, 3])
    def test_a_filled_graph_is_refused_by_name(self, tiny_lake, tmp_path,
                                               count):
        path = self.saved_with(
            tiny_lake, tmp_path,
            kg_triples=[["tom jenkins", "party", "republican"]] * count,
        )
        with pytest.raises(ValueError, match=f"{count} 'kg_triples'"):
            load_lake(path)
