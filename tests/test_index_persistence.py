"""Inverted-index snapshot/restore (monolithic and sharded)."""

import json

import pytest

from repro.index.inverted import InvertedIndex
from repro.index.persistence import (
    load_inverted_index,
    load_sharded_index,
    save_inverted_index,
    save_sharded_index,
)
from repro.index.shard import ShardedInvertedIndex


@pytest.fixture()
def index():
    idx = InvertedIndex(name="snap", k1=1.5, b=0.6)
    idx.add("d1", "tom jenkins republican ohio votes 102,000")
    idx.add("d2", "bill hess republican ohio")
    idx.add("d3", "basketball jordan chicago")
    return idx


class TestRoundTrip:
    def test_identical_search_results(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_inverted_index(index, path)
        loaded = load_inverted_index(path)
        for query in ("tom jenkins", "ohio republican", "102,000", "zzz"):
            original = [(h.instance_id, round(h.score, 9))
                        for h in index.search(query, 3)]
            restored = [(h.instance_id, round(h.score, 9))
                        for h in loaded.search(query, 3)]
            assert original == restored

    def test_parameters_preserved(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_inverted_index(index, path)
        loaded = load_inverted_index(path)
        assert loaded.name == "snap"
        assert loaded.k1 == 1.5
        assert loaded.b == 0.6
        assert len(loaded) == len(index)
        assert loaded.avg_doc_length == index.avg_doc_length

    def test_loaded_index_accepts_new_documents(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_inverted_index(index, path)
        loaded = load_inverted_index(path)
        loaded.add("d4", "a brand new document")
        assert loaded.search("brand new", 1)[0].instance_id == "d4"
        with pytest.raises(ValueError):
            loaded.add("d1", "duplicate")

    def test_bad_version_rejected(self, index, tmp_path):
        path = tmp_path / "index.json"
        save_inverted_index(index, path)
        payload = json.loads(path.read_text())
        payload["version"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_inverted_index(path)

    def test_empty_index(self, tmp_path):
        path = tmp_path / "empty.json"
        save_inverted_index(InvertedIndex(), path)
        loaded = load_inverted_index(path)
        assert len(loaded) == 0
        assert loaded.search("anything") == []


DOCS = [
    ("d1", "tom jenkins republican ohio votes 102,000"),
    ("d2", "bill hess republican ohio"),
    ("d3", "basketball jordan chicago"),
    ("d4", "ohio election results by district"),
    ("d5", "chicago bulls championship season"),
]


@pytest.fixture()
def sharded():
    idx = ShardedInvertedIndex(3, name="snap-sharded", k1=1.5, b=0.6)
    for doc_id, text in DOCS:
        idx.add(doc_id, text)
    return idx


class TestShardedRoundTrip:
    def test_identical_search_results(self, sharded, tmp_path):
        path = tmp_path / "sharded.json"
        save_sharded_index(sharded, path)
        loaded = load_sharded_index(path)
        assert loaded.num_shards == sharded.num_shards
        assert loaded.name == "snap-sharded"
        for query in ("ohio republican", "chicago", "district", "zzz"):
            assert [
                (h.instance_id, h.score) for h in loaded.search(query, 5)
            ] == [(h.instance_id, h.score) for h in sharded.search(query, 5)]

    def test_tombstones_compacted_before_save(self, sharded, tmp_path):
        sharded.remove("d2")
        path = tmp_path / "sharded.json"
        save_sharded_index(sharded, path)
        # the snapshot is written without the removed document
        snapshot = json.loads(path.read_text())
        for shard in snapshot["shards"]:
            assert "d2" not in shard["doc_length"]
            assert all("d2" not in row for row in shard["postings"].values())
        loaded = load_sharded_index(path)
        assert len(loaded) == len(DOCS) - 1
        assert "d2" not in loaded
        hits = loaded.search("republican ohio", 5)
        assert all(h.instance_id != "d2" for h in hits)

    def test_loaded_index_stays_mutable(self, sharded, tmp_path):
        path = tmp_path / "sharded.json"
        save_sharded_index(sharded, path)
        loaded = load_sharded_index(path)
        loaded.add("d9", "a brand new springfield document")
        assert loaded.search("springfield", 1)[0].instance_id == "d9"
        loaded.remove("d1")
        assert "d1" not in loaded

    def test_bad_version_rejected(self, sharded, tmp_path):
        path = tmp_path / "sharded.json"
        save_sharded_index(sharded, path)
        payload = json.loads(path.read_text())
        payload["version"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_sharded_index(path)

    def test_shard_count_mismatch_rejected(self, sharded, tmp_path):
        path = tmp_path / "sharded.json"
        save_sharded_index(sharded, path)
        payload = json.loads(path.read_text())
        payload["shards"] = payload["shards"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_sharded_index(path)
