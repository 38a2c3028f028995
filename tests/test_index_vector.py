"""Flat, IVF, and HNSW vector indexes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embed.vectorizers import HashingVectorizer
from repro.index.hnsw import HNSWIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.shard import ShardedVectorIndex
from repro.index.vector import FlatVectorIndex


def random_vectors(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


class TestFlatVectorIndex:
    def test_exact_nearest(self):
        data = random_vectors(50, 16)
        index = FlatVectorIndex(dim=16)
        for i, vec in enumerate(data):
            index.add_vector(f"v{i}", vec)
        query = data[7] + 0.01
        hits = index.search_vector(query, k=1)
        assert hits[0].instance_id == "v7"

    def test_encoder_path(self):
        hv = HashingVectorizer(dim=64)
        index = FlatVectorIndex(dim=64, encoder=hv.transform)
        index.add("a", "tom jenkins ohio republican")
        index.add("b", "basketball jordan chicago")
        hits = index.search("ohio republican tom", k=2)
        assert hits[0].instance_id == "a"

    def test_no_encoder_raises(self):
        index = FlatVectorIndex(dim=8)
        with pytest.raises(RuntimeError):
            index.search("text query")

    def test_wrong_dim_rejected(self):
        index = FlatVectorIndex(dim=8)
        with pytest.raises(ValueError):
            index.add_vector("a", np.zeros(9))

    def test_duplicate_id_rejected(self):
        index = FlatVectorIndex(dim=4)
        index.add_vector("a", np.ones(4))
        with pytest.raises(ValueError):
            index.add_vector("a", np.ones(4))

    def test_l2_metric(self):
        index = FlatVectorIndex(dim=2, metric="l2")
        index.add_vector("near", np.array([1.0, 0.0]))
        index.add_vector("far", np.array([10.0, 0.0]))
        hits = index.search_vector(np.array([1.1, 0.0]), k=2)
        assert hits[0].instance_id == "near"

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            FlatVectorIndex(dim=4, metric="manhattan")

    def test_empty_index(self):
        assert FlatVectorIndex(dim=4).search_vector(np.ones(4), k=3) == []

    def test_vector_of(self):
        index = FlatVectorIndex(dim=3)
        vec = np.array([1.0, 2.0, 3.0])
        index.add_vector("a", vec)
        assert np.allclose(index.vector_of("a"), vec)
        with pytest.raises(KeyError, match="no vector with id 'nope' in 'flat'"):
            index.vector_of("nope")
        with pytest.raises(KeyError, match="'nope'"):
            index.remove_vector("nope")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10**6))
    def test_top1_is_argmax_cosine(self, n, seed):
        data = random_vectors(n, 8, seed)
        index = FlatVectorIndex(dim=8)
        for i, vec in enumerate(data):
            index.add_vector(f"v{i}", vec)
        query = random_vectors(1, 8, seed + 1)[0]
        best = index.search_vector(query, k=1)[0]
        sims = data @ query
        assert best.instance_id == f"v{int(np.argmax(sims))}"


class TestIVFFlatIndex:
    def test_recall_against_flat(self):
        data = random_vectors(300, 16, seed=2)
        flat = FlatVectorIndex(dim=16)
        ivf = IVFFlatIndex(dim=16, nlist=16, nprobe=4, seed=3)
        for i, vec in enumerate(data):
            flat.add_vector(f"v{i}", vec)
            ivf.add_vector(f"v{i}", vec)
        queries = random_vectors(20, 16, seed=4)
        agree = 0
        for query in queries:
            exact = {h.instance_id for h in flat.search_vector(query, 10)}
            approx = {h.instance_id for h in ivf.search_vector(query, 10)}
            agree += len(exact & approx) / 10
        assert agree / 20 >= 0.5  # probing 25% of cells keeps most recall

    def test_full_probe_equals_flat(self):
        data = random_vectors(60, 8, seed=5)
        flat = FlatVectorIndex(dim=8)
        ivf = IVFFlatIndex(dim=8, nlist=4, nprobe=4, seed=6)
        for i, vec in enumerate(data):
            flat.add_vector(f"v{i}", vec)
            ivf.add_vector(f"v{i}", vec)
        query = random_vectors(1, 8, seed=7)[0]
        exact = [h.instance_id for h in flat.search_vector(query, 5)]
        approx = [h.instance_id for h in ivf.search_vector(query, 5)]
        assert exact == approx

    def test_lazy_training(self):
        ivf = IVFFlatIndex(dim=4, nlist=2)
        ivf.add_vector("a", np.array([1.0, 0, 0, 0]))
        assert not ivf.is_trained
        ivf.search_vector(np.array([1.0, 0, 0, 0]), k=1)
        assert ivf.is_trained

    def test_retrain_after_insert(self):
        ivf = IVFFlatIndex(dim=4, nlist=2)
        ivf.add_vector("a", np.array([1.0, 0, 0, 0]))
        ivf.search_vector(np.ones(4), k=1)
        ivf.add_vector("b", np.array([0, 1.0, 0, 0]))
        assert not ivf.is_trained  # invalidated
        hits = ivf.search_vector(np.array([0, 1.0, 0, 0]), k=1)
        assert hits[0].instance_id == "b"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            IVFFlatIndex(dim=4, nlist=0)
        with pytest.raises(ValueError):
            IVFFlatIndex(dim=4, nprobe=0)

    def test_empty(self):
        assert IVFFlatIndex(dim=4).search_vector(np.ones(4)) == []


class TestHNSWIndex:
    def test_recall_against_flat(self):
        data = random_vectors(300, 16, seed=8)
        flat = FlatVectorIndex(dim=16)
        hnsw = HNSWIndex(dim=16, m=8, ef_search=64, seed=9)
        for i, vec in enumerate(data):
            flat.add_vector(f"v{i}", vec)
            hnsw.add_vector(f"v{i}", vec)
        queries = random_vectors(20, 16, seed=10)
        agree = 0
        for query in queries:
            exact = {h.instance_id for h in flat.search_vector(query, 10)}
            approx = {h.instance_id for h in hnsw.search_vector(query, 10)}
            agree += len(exact & approx) / 10
        assert agree / 20 >= 0.7

    def test_single_element(self):
        hnsw = HNSWIndex(dim=4)
        hnsw.add_vector("only", np.array([1.0, 0, 0, 0]))
        hits = hnsw.search_vector(np.array([0.9, 0.1, 0, 0]), k=3)
        assert [h.instance_id for h in hits] == ["only"]

    def test_empty(self):
        assert HNSWIndex(dim=4).search_vector(np.ones(4)) == []

    def test_scores_are_cosine_like(self):
        hnsw = HNSWIndex(dim=2)
        hnsw.add_vector("x", np.array([1.0, 0.0]))
        hits = hnsw.search_vector(np.array([1.0, 0.0]), k=1)
        assert hits[0].score == pytest.approx(1.0)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            HNSWIndex(dim=4, m=0)


# ---------------------------------------------------------------------------
# the flat index's table: a row's score is a function of that row and the
# query alone, so every way of asking returns the same bits
# ---------------------------------------------------------------------------
def pairs(hits):
    return [(hit.instance_id, hit.score) for hit in hits]


def seeded_rows(count, dim, seed, sparse):
    """``count`` vectors — hashed-embedding sparse (a few non-zero
    buckets, repeated rows, an all-zero row) or dense."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((count, dim))
    if sparse:
        rows *= rng.random((count, dim)) < 0.15
        rows[rng.integers(count)] = 0.0
        rows[rng.integers(count)] = rows[0]
    return rows


class TestOneScorePerRow:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        count=st.integers(min_value=1, max_value=70),
        dim=st.sampled_from([3, 16, 40]),
        sparse=st.booleans(),
        metric=st.sampled_from(["cosine", "l2"]),
        num_shards=st.integers(min_value=1, max_value=7),
        batch=st.integers(min_value=1, max_value=6),
        k=st.sampled_from([1, 5, 100]),
    )
    def test_search_batch_shards_and_snapshot_agree_to_the_bit(
        self, seed, count, dim, sparse, metric, num_shards, batch, k
    ):
        rows = seeded_rows(count, dim, seed, sparse)
        queries = list(seeded_rows(6, dim, seed + 1, sparse)) + [rows[0]]
        by_text = {f"q{i}": query for i, query in enumerate(queries)}
        ids = [f"v{(i * 37) % count:03d}-{i}" for i in range(count)]
        index = FlatVectorIndex(
            dim, encoder=by_text.__getitem__, metric=metric, name="one"
        )
        # any split of the rows, not just the routing rule's
        sharded = ShardedVectorIndex(
            num_shards, dim, encoder=by_text.__getitem__, metric=metric,
            name="one",
        )
        split = np.random.default_rng(seed + 2).integers(num_shards, size=count)
        for instance_id, row, shard_no in zip(ids, rows, split):
            index.add_vector(instance_id, row)
            sharded.shards[shard_no].add_vector(instance_id, row)
        expected = [pairs(index.search_vector(query, k)) for query in queries]

        texts = list(by_text)
        batched = []
        for start in range(0, len(texts), batch):
            batched += index.search_batch(texts[start:start + batch], k)
        assert [pairs(hits) for hits in batched] == expected
        assert [
            pairs(hits) for hits in sharded.search_batch(texts, k)
        ] == expected

    @pytest.mark.parametrize("num_shards", [1, 4, 7])
    def test_every_shard_count_returns_the_monolithic_bits(self, num_shards):
        rows = seeded_rows(120, 32, 5, sparse=True)
        queries = list(seeded_rows(5, 32, 6, sparse=True))
        by_text = {f"q{i}": query for i, query in enumerate(queries)}
        index = FlatVectorIndex(32, name="one")
        for position, row in enumerate(rows):
            index.add_vector(f"v{position:03d}", row)
        expected = [pairs(index.search_vector(query, 9)) for query in queries]
        sharded = ShardedVectorIndex(
            num_shards, 32, encoder=by_text.__getitem__, name="one"
        )
        for position, row in enumerate(rows):
            instance_id = f"v{position:03d}"
            sharded.shard_for(instance_id).add_vector(instance_id, row)
        assert [
            pairs(hits) for hits in sharded.search_batch(list(by_text), 9)
        ] == expected


class TestTableAgainstAListOfVectors:
    """The staging block (256 rows) and the doubling table behind
    ``add_vector`` / ``remove_vector``, against the model the index used
    to be: a list of vectors."""

    @pytest.mark.parametrize("size", [255, 256, 257, 1025])
    @pytest.mark.parametrize("metric", ["cosine", "l2"])
    def test_adds_removes_and_searches_interleaved(self, size, metric):
        rng = np.random.default_rng(size)
        pyrandom = random.Random(size)
        index = FlatVectorIndex(8, metric=metric)
        model = []  # (id, vector), in the index's order
        query = rng.standard_normal(8)

        def check():
            assert index._ids == [instance_id for instance_id, _ in model]
            assert len(index) == len(model)
            matrix = index._get_matrix()
            assert matrix.shape == (len(model), 8)
            assert matrix.tolist() == [vector.tolist() for _, vector in model]
            fresh = FlatVectorIndex(8, metric=metric)
            for instance_id, vector in model:
                fresh.add_vector(instance_id, vector)
            assert pairs(index.search_vector(query, 12)) == pairs(
                fresh.search_vector(query, 12)
            )
            for instance_id, vector in pyrandom.sample(model, min(3, len(model))):
                assert index.vector_of(instance_id).tolist() == vector.tolist()

        added = 0
        while len(model) < size:
            vector = rng.standard_normal(8) * (rng.random(8) < 0.5)
            index.add_vector(f"v{added:04d}", vector)
            model.append((f"v{added:04d}", vector))
            added += 1
            # removals with rows staged and with none: the first row, a
            # table row, the last (staged) row
            if added % 97 == 0:
                for position in (0, len(model) // 2, -1):
                    instance_id, _ = model.pop(position)
                    index.remove_vector(instance_id)
                    assert instance_id not in index
            if added % 131 == 0 or len(model) in (255, 256, 257, size):
                check()
        assert index._columns.shape[1] >= size > index._columns.shape[1] // 2
        for instance_id, _ in list(model):
            index.remove_vector(instance_id)
        model.clear()
        assert index.search_vector(query, 3) == []
        check()

    def test_a_remove_between_searches_of_an_unflushed_stage(self):
        index = FlatVectorIndex(2)
        for position in range(300):
            index.add_vector(f"v{position}", np.array([1.0, position]))
        index.remove_vector("v299")  # staged, never searched
        index.remove_vector("v0")    # in the table
        assert len(index._get_matrix()) == 298
        assert index.search_vector(np.array([0.0, 1.0]), 1)[0].instance_id == "v298"
