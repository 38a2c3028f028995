"""Flat, IVF, and HNSW vector indexes."""

import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality
from repro.embed.vectorizers import HashingVectorizer, TfidfVectorizer
from repro.index.hnsw import HNSWIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.vector import FlatVectorIndex
from repro.workloads.builder import LakeConfig, build_lake


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

    @pytest.mark.parametrize(
        "build",
        [
            FlatVectorIndex,
            lambda dim: IVFFlatIndex(dim=dim, nlist=2, nprobe=2),
            HNSWIndex,
        ],
        ids=["flat", "ivf", "hnsw"],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_vector_is_refused_stored_and_queried(
        self, build, bad
    ):
        index = build(dim=4)
        for i, vec in enumerate(random_vectors(10, 4, seed=11)):
            index.add_vector(f"v{i}", vec)
        with pytest.raises(ValueError, match="finite"):
            index.add_vector("bad", np.array([bad, 1.0, 0.0, 0.0]))
        assert "bad" not in index and len(index) == 10
        with pytest.raises(ValueError, match="finite"):
            index.search_vector(np.array([bad, 0.0, 0.0, 1.0]), 3)
        # the refused row took nothing with it: a search still fills k
        assert len(index.search_vector(random_vectors(1, 4, 12)[0], 3)) == 3

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
        batch=st.integers(min_value=1, max_value=6),
        k=st.sampled_from([1, 5, 100]),
    )
    def test_search_batch_shards_and_snapshot_agree_to_the_bit(
        self, seed, count, dim, sparse, metric, batch, k
    ):
        rows = seeded_rows(count, dim, seed, sparse)
        queries = list(seeded_rows(6, dim, seed + 1, sparse)) + [rows[0]]
        by_text = {f"q{i}": query for i, query in enumerate(queries)}
        ids = [f"v{(i * 37) % count:03d}-{i}" for i in range(count)]
        index = FlatVectorIndex(
            dim, encoder=by_text.__getitem__, metric=metric, name="one"
        )
        for instance_id, row in zip(ids, rows):
            index.add_vector(instance_id, row)
        expected = [pairs(index.search_vector(query, k)) for query in queries]

        texts = list(by_text)
        batched = []
        for start in range(0, len(texts), batch):
            batched += index.search_batch(texts[start:start + batch], k)
        assert [pairs(hits) for hits in batched] == expected


class TestTableAgainstAListOfVectors:
    """The staging block (256 rows) and the per-bucket non-zeros behind
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
        # the buckets hold the model's non-zeros and nothing else
        rows, values, _ = index._table()
        assert [len(bucket) for bucket in rows] == [
            len(bucket) for bucket in values
        ]
        assert sum(len(bucket) for bucket in rows) == sum(
            np.count_nonzero(vector) for _, vector in model
        )
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


# ---------------------------------------------------------------------------
# the flat index's non-zeros against the dense table they replaced
# ---------------------------------------------------------------------------
#: exact in binary: sums of their products cancel to exactly 0.0 often
DYADIC = np.array([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])


def dense_table_ranking(model, vector, k):
    """The ``k`` best of ``model`` (``(id, row)`` pairs in index order)
    as the dense column-major table ranked them: ``dots += q[b] *
    columns[b]`` over the query's non-zero buckets in ascending order,
    over ``row_norms * (|q| or 1)``, ordered by ``(-score, id)`` — as
    ``(id, score.hex())``, so that ``==`` compares bits."""
    if not model or k <= 0:
        return []
    ids = [instance_id for instance_id, _ in model]
    matrix = np.array([row for _, row in model])
    columns = matrix.T
    dots = np.zeros(len(model))
    for bucket in np.flatnonzero(vector).tolist():
        dots += vector[bucket] * columns[bucket]
    norms = np.linalg.norm(matrix, axis=1) * (np.linalg.norm(vector) or 1.0)
    norms[norms == 0] = 1.0
    ranked = sorted(zip((-(dots / norms)).tolist(), ids))[:k]
    return [(instance_id, (-negated).hex()) for negated, instance_id in ranked]


def bits(hits):
    return [(hit.instance_id, hit.score.hex()) for hit in hits]


class TestNonZerosAgainstTheDenseTable:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        count=st.sampled_from([1, 9, 60, 255, 256, 257]),
        dim=st.sampled_from([4, 16, 40]),
        dense=st.booleans(),
        removals=st.integers(min_value=0, max_value=6),
        k=st.sampled_from([1, 7, 300]),
    )
    def test_ids_and_score_bits_are_the_dense_loops(
        self, seed, count, dim, dense, removals, k
    ):
        rng = np.random.default_rng(seed)

        def draw(n):
            if dense:  # every bucket non-zero
                return rng.standard_normal((n, dim))
            return rng.choice(DYADIC, (n, dim)) * (rng.random((n, dim)) < 0.3)

        rows = draw(count)
        queries = list(draw(5)) + [rows[0], np.zeros(dim)]
        by_text = {f"q{i}": query for i, query in enumerate(queries)}
        index = FlatVectorIndex(dim, encoder=by_text.__getitem__, name="one")
        model = []
        added = iter(range(10**4))

        def add(rows_to_add):
            for row in rows_to_add:
                # unique, and not in insertion order: ties go by id
                instance_id = f"v{next(added) * 7919 % 10007:05d}"
                index.add_vector(instance_id, row)
                model.append((instance_id, row))

        def check():
            expected = [dense_table_ranking(model, q, k) for q in queries]
            texts = list(by_text)
            assert [bits(index.search_vector(q, k)) for q in queries] == expected
            assert [bits(hits) for hits in index.search_batch(texts, k)] == expected

        add(rows)
        check()
        # removals between searches, then rows staged on top of them
        for position in rng.permutation(len(model))[:removals].tolist():
            instance_id = model[position][0]
            index.remove_vector(instance_id)
        model[:] = [entry for entry in model if entry[0] in index]
        check()
        add(draw(3))
        check()


class TestTheIndexHoldsItsNonZeros:
    def test_bytes_held_by_a_tfidf_index(self):
        """At most 16 B per non-zero (an ``int32`` row and a ``float64``
        value) and 16 B per row, beside the fixed 256-row stage; the
        dense table held 2 KB a row."""
        pyrandom = random.Random(5)
        words = [f"w{i}" for i in range(3000)]
        texts = [
            " ".join(pyrandom.choices(words, k=pyrandom.randint(4, 30)))
            for _ in range(3000)
        ]
        vectorizer = TfidfVectorizer(dim=256).fit(texts)
        index = FlatVectorIndex(256, encoder=vectorizer.transform)
        non_zeros = 0
        for position, text in enumerate(texts):
            index.add(f"t{position}", text)
            non_zeros += np.count_nonzero(vectorizer.transform(text))
        assert index.search(texts[0], 1)[0].instance_id == "t0"

        def nbytes(value):
            if isinstance(value, np.ndarray):
                return value.nbytes
            if isinstance(value, (list, tuple)):
                return sum(nbytes(item) for item in value)
            return 0

        held = sum(
            nbytes(value) for name, value in vars(index).items()
            if name != "_stage"
        )
        assert held <= 16 * non_zeros + 16 * len(texts)


# ---------------------------------------------------------------------------
# add_vectors: a block is checked whole, then staged a slice at a time
# ---------------------------------------------------------------------------
def held_state(index):
    """Everything a refused ``add_vectors`` must leave as it was."""
    return (
        list(index._ids),
        sorted(index._id_set),
        index._count,
        index._staged,
        index._stage[: index._staged].tobytes(),
        [[part.tobytes() for part in block] for block in index._blocks],
    )


def table_bytes(index):
    """The ids, every bucket's rows and values, and the row norms."""
    rows, values, norms = index._table()
    return (
        list(index._ids),
        [bucket.tobytes() for bucket in rows],
        [bucket.tobytes() for bucket in values],
        norms.tobytes(),
    )


class TestAddVectorsRefusals:
    """The checks ``add_vector`` made one vector at a time, made on the
    whole block before any of it is stored."""

    @pytest.fixture
    def index(self):
        index = FlatVectorIndex(dim=4)
        # one block moved out of the stage, 44 rows staged on top
        index.add_vectors(
            [f"v{i}" for i in range(300)], random_vectors(300, 4, seed=8)
        )
        assert index._blocks and index._staged == 44
        return index

    @pytest.mark.parametrize("ids, block, match", [
        (["a", "b"], np.ones((2, 5)), r"expected 2 vector\(s\) of dim 4"),
        (["a", "b"], np.ones((3, 4)), r"expected 2 vector\(s\) of dim 4"),
        (["a"], np.ones(4), r"got shape \(4,\)"),
        (["a", "b"], np.array([[1.0, 0, 0, 0], [0, np.nan, 0, 0]]), "finite"),
        (["a", "b"], np.array([[np.inf, 0, 0, 0], [0, 1.0, 0, 0]]), "finite"),
        (["a"], np.array([[0, 0, -np.inf, 0]]), "finite"),
        (["a", "b", "a"], np.ones((3, 4)), "duplicate instance id: a"),
        (["a", "v7"], np.ones((2, 4)), "duplicate instance id: v7"),
        (["v299"], np.ones((1, 4)), "duplicate instance id: v299"),
    ], ids=[
        "wide", "long", "flat", "nan", "inf", "-inf",
        "twice-in-block", "stored-in-blocks", "stored-in-stage",
    ])
    def test_a_refused_block_leaves_the_index_as_it_was(
        self, index, ids, block, match
    ):
        before = held_state(index)
        with pytest.raises(ValueError, match=match):
            index.add_vectors(ids, block)
        assert held_state(index) == before
        assert "a" not in index and len(index) == 300

    def test_a_refusal_stores_nothing_it_already_checked(self, index):
        # the good rows before the bad one are not kept either
        block = np.ones((5, 4))
        block[4, 2] = np.nan
        before = held_state(index)
        with pytest.raises(ValueError, match="finite"):
            index.add_vectors([f"n{i}" for i in range(5)], block)
        assert held_state(index) == before
        index.add_vectors([f"n{i}" for i in range(4)], block[:4])
        assert len(index) == 304

    def test_an_empty_block_is_a_no_op(self, index):
        before = held_state(index)
        index.add_vectors([], np.zeros((0, 4)))
        assert held_state(index) == before


class TestBlockBoundaries:
    """One entry sequence, embedded and added in blocks of any size,
    holds the same bytes: the kernel's rows do not depend on their
    block, and the stage fills the same rows whatever slices reach it."""

    @staticmethod
    def entries(count, seed=6):
        pyrandom = random.Random(seed)
        words = [f"w{i}" for i in range(400)] + ["the", "of"]
        return [
            (f"e{position:04d}", Counter(pyrandom.choices(
                words, k=pyrandom.randint(0, 25)
            )))
            for position in range(count)
        ]

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 600])
    def test_blocks_of_1_7_256_and_all_hold_the_same_bytes(self, count):
        entries = self.entries(count)
        held = []
        for size in (1, 7, 256, count):
            vectorizer = HashingVectorizer(dim=64)
            index = FlatVectorIndex(dim=64)
            for start in range(0, count, size):
                block = entries[start:start + size]
                index.add_vectors(
                    [instance_id for instance_id, _ in block],
                    vectorizer.transform_counts([terms for _, terms in block]),
                )
            held.append(table_bytes(index))
        assert held[1:] == held[:1] * 3

    def test_add_vector_is_add_vectors_of_one_row(self):
        entries = self.entries(300)
        vectorizer = HashingVectorizer(dim=64)
        one, block = FlatVectorIndex(dim=64), FlatVectorIndex(dim=64)
        for instance_id, terms in entries:
            one.add_vector(
                instance_id,
                vectorizer.transform_tokens(list(terms.elements())),
            )
        block.add_vectors(
            [instance_id for instance_id, _ in entries],
            vectorizer.transform_counts([terms for _, terms in entries]),
        )
        assert table_bytes(one) == table_bytes(block)


#: sha256 per modality of the semantic index's ids, bucket rows, bucket
#: values and row norms for ``build_lake(LakeConfig(num_tables=48,
#: seed=5))``, taken at ``988646c``, before the index was embedded a
#: block at a time
PINNED_SEMANTIC = {
    "tuple": "00ccd11eced7316c6f5880e62852c7e9447451b518d432e779a06436fc27950d",
    "text": "094700c0c86883cc83f9fd329aed66b49b26c7e832297c59b23c69aabf2dffd5",
    "table": "373d34d768e288f8fdf409a515f99a764dfedb0b5f6c9b35bd47f1313a0c1d56",
}


def semantic_digest(index):
    hasher = hashlib.sha256()

    def feed(data):
        hasher.update(len(data).to_bytes(8, "big"))
        hasher.update(data)

    ids, rows, values, norms = table_bytes(index)
    feed("\n".join(ids).encode())
    for bucket_rows, bucket_values in zip(rows, values):
        feed(bucket_rows)
        feed(bucket_values)
    feed(norms)
    return hasher.hexdigest()


class TestSemanticIndexPin:
    def test_a_seeded_lake_embeds_to_the_pinned_bytes(self):
        lake = build_lake(LakeConfig(num_tables=48, seed=5)).lake
        indexer = IndexerModule(lake, VerifAIConfig(use_semantic_index=True))
        digests = {
            modality.value: semantic_digest(indexer.semantic_index(modality))
            for modality in (Modality.TUPLE, Modality.TEXT, Modality.TABLE)
        }
        assert digests == PINNED_SEMANTIC
