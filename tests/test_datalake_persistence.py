"""JSON save/load round-trip of lakes."""

import json

import pytest

from repro.datalake.persistence import load_lake, save_lake


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

    def test_kg_triples_preserved(self, tiny_lake, tmp_path):
        tiny_lake.kg.add("tom jenkins", "party", "republican")
        path = tmp_path / "lake.json"
        save_lake(tiny_lake, path)
        loaded = load_lake(path)
        assert loaded.kg.has("tom jenkins", "party", "republican")

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

    @pytest.mark.parametrize("bundle_name", ["small_bundle", "kg_bundle"])
    def test_generated_bundle_round_trip(self, bundle_name, request, tmp_path):
        bundle = request.getfixturevalue(bundle_name)
        path = tmp_path / "big.json"
        save_lake(bundle.lake, path)
        loaded = load_lake(path)
        assert loaded.stats() == bundle.lake.stats()
        assert loaded.kg.num_triples == bundle.lake.kg.num_triples
        assert (loaded.kg.num_triples > 0) == bundle.config.build_kg
