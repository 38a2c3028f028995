"""Durability proof of the sealed memmap persistence layer.

The contract under test (src/repro/index/persistence.py): a sealed
index persisted with ``save_sealed_index`` and re-opened with
``attach_sealed_index`` — in this process or a *fresh* one — answers
every query with exactly the (id, score) pairs the writable index
produced, attaches without re-analysis (zero-copy ``np.memmap``), and
refuses both mutation and corrupted snapshots with a clean
``VerificationError`` rather than garbage rankings.
"""

import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.index.inverted import InvertedIndex
from repro.index.persistence import (
    attach_sealed_index,
    attach_sealed_sharded_index,
    attach_vector_index,
    save_sealed_index,
    save_sealed_sharded_index,
    save_vector_index,
)
from repro.index.shard import ShardedInvertedIndex
from repro.index.vector import FlatVectorIndex
from repro.verify.base import VerificationError

WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta",
    "theta", "iota", "kappa", "sigma", "omega",
]

QUERIES = [
    "alpha beta",
    "gamma delta epsilon",
    "theta iota kappa alpha",
    "zeta zeta sigma",
    "",  # empty query must round-trip to [] as well
    "unknowntoken",
]


def corpus(n=80, seed=13):
    rng = random.Random(seed)
    return {
        f"doc-{i:04d}": " ".join(rng.choices(WORDS, k=rng.randint(5, 30)))
        for i in range(n)
    }


def build_index(docs=None) -> InvertedIndex:
    index = InvertedIndex(name="bm25-test")
    for doc_id, payload in (docs or corpus()).items():
        index.add(doc_id, payload)
    return index


def ranking(index, query, k=10):
    return [(h.instance_id, h.score) for h in index.search(query, k)]


@pytest.fixture()
def snapshot_dir(tmp_path):
    target = tmp_path / "sealed"
    save_sealed_index(build_index(), target)
    return target


# ---------------------------------------------------------------------------
# round trip: exact (id, score) equality
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_attach_reproduces_every_ranking_exactly(self, snapshot_dir):
        original = build_index()
        attached = attach_sealed_index(snapshot_dir)
        assert attached.is_attached
        assert len(attached) == len(original)
        for query in QUERIES:
            for k in (1, 3, 10, 1000):
                assert ranking(attached, query, k) == ranking(
                    original, query, k
                )

    def test_attach_uses_memmap_not_reanalysis(self, snapshot_dir):
        attached = attach_sealed_index(snapshot_dir)
        # the heavy arrays are memmaps over the snapshot files
        sealed = attached._sealed
        assert isinstance(sealed.tf_flat, np.memmap)
        assert isinstance(sealed.doc_idx, np.memmap)
        # the dict write form was never rebuilt
        assert not attached._postings

    def test_matrix_kernel_identical_on_attached_index(self, snapshot_dir):
        original = build_index()
        attached = attach_sealed_index(snapshot_dir)
        batched = attached.search_batch(QUERIES, 10)
        for query, hits in zip(QUERIES, batched):
            assert [
                (h.instance_id, h.score) for h in hits
            ] == ranking(original, query, 10)

    def test_single_doc_and_empty_token_geometry(self, tmp_path):
        index = InvertedIndex(name="tiny")
        index.add("only-doc", "alpha beta alpha")
        save_sealed_index(index, tmp_path / "tiny")
        attached = attach_sealed_index(tmp_path / "tiny")
        assert ranking(attached, "alpha") == ranking(index, "alpha")
        assert ranking(attached, "missing") == []

    def test_fresh_process_attach_is_bit_identical(
        self, snapshot_dir, tmp_path
    ):
        """The whole point of the manifest: a worker that never saw the
        corpus attaches the snapshot and reproduces the exact scores."""
        expected = {
            query: ranking(build_index(), query) for query in QUERIES
        }
        out_path = tmp_path / "fresh.json"
        script = textwrap.dedent(
            f"""
            import json
            from repro.index.persistence import attach_sealed_index

            index = attach_sealed_index({str(snapshot_dir)!r})
            queries = {QUERIES!r}
            result = {{
                q: [
                    (h.instance_id, h.score) for h in index.search(q, 10)
                ]
                for q in queries
            }}
            with open({str(out_path)!r}, "w") as fh:
                json.dump(result, fh)
            """
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        subprocess.run(
            [sys.executable, "-c", script], check=True, env=env
        )
        fresh = json.loads(out_path.read_text())
        for query in QUERIES:
            assert [
                tuple(pair) for pair in fresh[query]
            ] == expected[query], query


# ---------------------------------------------------------------------------
# attached indexes are read-only
# ---------------------------------------------------------------------------
class TestAttachedIsReadOnly:
    def test_mutations_refused(self, snapshot_dir):
        attached = attach_sealed_index(snapshot_dir)
        with pytest.raises(VerificationError):
            attached.add("new-doc", "alpha")
        with pytest.raises(VerificationError):
            attached.remove("doc-0000")
        with pytest.raises(VerificationError):
            attached.invalidate_seal()
        # refusal left the index fully usable
        assert ranking(attached, "alpha") == ranking(
            build_index(), "alpha"
        )

    def test_vector_mutations_refused(self, tmp_path):
        index = FlatVectorIndex(dim=4, name="vec-test")
        rng = np.random.default_rng(5)
        for i in range(12):
            index.add_vector(f"v-{i}", rng.standard_normal(4))
        save_vector_index(index, tmp_path / "vec")
        attached = attach_vector_index(tmp_path / "vec")
        with pytest.raises(VerificationError):
            attached.add_vector("v-new", np.ones(4))
        with pytest.raises(VerificationError):
            attached.remove_vector("v-0")
        # the refusal did not register the id
        assert "v-new" not in attached


# ---------------------------------------------------------------------------
# corruption: clean VerificationError, never garbage
# ---------------------------------------------------------------------------
class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(VerificationError, match="manifest"):
            attach_sealed_index(tmp_path / "nowhere")

    def test_unparseable_manifest(self, snapshot_dir):
        (snapshot_dir / "manifest.json").write_text("{not json")
        with pytest.raises(VerificationError):
            attach_sealed_index(snapshot_dir)

    def test_wrong_kind(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["kind"] = "something-else"
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VerificationError, match="kind"):
            attach_sealed_index(snapshot_dir)

    def test_future_version(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["version"] = 999
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VerificationError, match="version"):
            attach_sealed_index(snapshot_dir)

    @pytest.mark.parametrize(
        "array_name", ["tf_flat", "doc_idx", "norm", "idf_flat", "tok_start"]
    )
    def test_truncated_array_file(self, snapshot_dir, array_name):
        path = snapshot_dir / f"{array_name}.bin"
        path.write_bytes(path.read_bytes()[:8])
        with pytest.raises(VerificationError, match="truncated"):
            attach_sealed_index(snapshot_dir)

    def test_missing_array_file(self, snapshot_dir):
        (snapshot_dir / "tf_flat.bin").unlink()
        with pytest.raises(VerificationError):
            attach_sealed_index(snapshot_dir)

    def test_inconsistent_geometry(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / "manifest.json").read_text())
        manifest["doc_ids"] = manifest["doc_ids"][:-1]
        manifest["doc_lengths"] = manifest["doc_lengths"][:-1]
        (snapshot_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(VerificationError):
            attach_sealed_index(snapshot_dir)


# ---------------------------------------------------------------------------
# sharded snapshots
# ---------------------------------------------------------------------------
class TestShardedSnapshot:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_round_trip_identical(self, tmp_path, num_shards):
        docs = corpus(seed=29)
        sharded = ShardedInvertedIndex(num_shards=num_shards)
        for doc_id, payload in docs.items():
            sharded.add(doc_id, payload)
        expected = {q: ranking(sharded, q) for q in QUERIES}
        save_sealed_sharded_index(sharded, tmp_path / "sharded")
        attached = attach_sealed_sharded_index(tmp_path / "sharded")
        assert attached.num_shards == num_shards
        assert len(attached) == len(sharded)
        for query in QUERIES:
            assert ranking(attached, query) == expected[query]

    def test_sharded_snapshot_rejects_missing_shard(self, tmp_path):
        sharded = ShardedInvertedIndex(num_shards=2)
        for doc_id, payload in corpus(n=20).items():
            sharded.add(doc_id, payload)
        save_sealed_sharded_index(sharded, tmp_path / "s")
        import shutil

        shutil.rmtree(tmp_path / "s" / "shard-0001")
        with pytest.raises(VerificationError):
            attach_sealed_sharded_index(tmp_path / "s")


# ---------------------------------------------------------------------------
# vector snapshots
# ---------------------------------------------------------------------------
class TestVectorSnapshot:
    def test_vector_round_trip_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        index = FlatVectorIndex(dim=16, name="vec")
        for i in range(40):
            index.add_vector(f"v-{i:03d}", rng.standard_normal(16))
        save_vector_index(index, tmp_path / "vec")
        attached = attach_vector_index(tmp_path / "vec")
        assert attached.is_attached
        assert len(attached) == len(index)
        for probe in range(6):
            vector = rng.standard_normal(16)
            assert [
                (h.instance_id, h.score)
                for h in attached.search_vector(vector, 8)
            ] == [
                (h.instance_id, h.score)
                for h in index.search_vector(vector, 8)
            ]

    def test_vector_truncation_detected(self, tmp_path):
        index = FlatVectorIndex(dim=8, name="vec")
        index.add_vector("a", np.ones(8))
        index.add_vector("b", np.zeros(8))
        save_vector_index(index, tmp_path / "vec")
        matrix = tmp_path / "vec" / "matrix.bin"
        matrix.write_bytes(matrix.read_bytes()[:16])
        with pytest.raises(VerificationError):
            attach_vector_index(tmp_path / "vec")
