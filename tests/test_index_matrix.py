"""Differential proof of the query-matrix BM25 kernel.

The contract under test (src/repro/index/inverted.py): scoring a whole
campaign of queries against a sealed shard in one vectorized pass
(``search_batch``) returns, query for query, the
bit-identical ``(instance_id, score)`` rankings of the per-query paths
— the sealed single-query kernel AND the dict walk of
``tests/bm25_oracle.py``.  Equality
is exact float64 equality, never approx: both paths accumulate
contributions in the same canonical sorted-token order, so IEEE
addition order matches and the scores agree to the last bit.

The kernel scores a campaign in tiles of consecutive queries, cut where
one more query would pass ``inverted._TILE_BUDGET`` elements
(``TestTiles``): wherever the cuts fall the rankings do not move, and
no single ``np.bincount`` pass is handed more than the budget allows.
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitizer
from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality
from repro.index import inverted
from repro.index.inverted import InvertedIndex
from repro.index.shard import ShardedInvertedIndex
from repro.obs.metrics import get_registry
from tests.bm25_oracle import DictOracle

SHARD_COUNTS = [1, 2, 4]

QUERIES = [
    "largest cities by population",
    "points per game shooting guard",
    "gold silver bronze medal total",
    "season player statistics games",
    "eastern province area",
    "summer games delegation",
]

MODALITIES = [Modality.TUPLE, Modality.TABLE, Modality.TEXT]

DOCS = [
    ("d1", "the quick brown fox jumps over the lazy dog"),
    ("d2", "a quick brown dog barks at the fox"),
    ("d3", "lazy afternoons in the brown meadow"),
    ("d4", "the fox and the hound are friends"),
    ("d5", "dogs and foxes share the meadow at dusk"),
    ("d6", "quick reflexes help the hound catch nothing"),
    ("d7", "the meadow fox naps while the dog watches"),
    ("d8", "hounds bark and foxes listen at dusk"),
]

MICRO_QUERIES = [
    "quick brown fox",
    "lazy meadow",
    "hound dusk",
    "dog dog dog",  # repeated query term exercises the qtf weight
    "",  # empty query
    "absent tokens only here",
    "quick brown fox",  # duplicate of an earlier query (dedup-free path)
]


def pairs(hits):
    return [(h.instance_id, h.score) for h in hits]


def build_index():
    index = InvertedIndex(name="micro")
    for doc_id, text in DOCS:
        index.add(doc_id, text)
    return index


class BuildSpy:
    """Records the seal of every ``contrib_flat`` build, at the build's
    one publication: ``note_write(seal, "contrib_flat")`` under the
    seal lock."""

    def __init__(self, monkeypatch):
        self.seals = []
        self._note_write = sanitizer.note_write
        monkeypatch.setattr(sanitizer, "note_write", self)

    def __call__(self, owner, field_name, lock=None):
        if field_name == "contrib_flat":
            self.seals.append(owner)
        self._note_write(owner, field_name, lock=lock)


def same_objects(got, expected):
    return len(got) == len(expected) and all(
        a is b for a, b in zip(got, expected)
    )


def seal_counter(name):
    return get_registry().counter(f"index.seal.{name}").value


# ---------------------------------------------------------------------------
# the kernel itself, on a single index
# ---------------------------------------------------------------------------
class TestMatrixKernel:
    def test_matrix_matches_sealed_and_dict_paths_bitwise(self):
        index = build_index()
        oracle = DictOracle.like(index, DOCS)
        expected_dict = [pairs(oracle.search(q, 5)) for q in MICRO_QUERIES]
        index.seal()
        expected_sealed = [pairs(index.search(q, 5)) for q in MICRO_QUERIES]
        got = [pairs(hits) for hits in index.search_batch(MICRO_QUERIES, 5)]
        assert got == expected_sealed
        assert got == expected_dict

    def test_matrix_seals_an_unsealed_index(self):
        index = build_index()
        assert not index.is_sealed
        got = [pairs(h) for h in index.search_batch(MICRO_QUERIES, 5)]
        assert index.is_sealed
        assert got == [pairs(index.search(q, 5)) for q in MICRO_QUERIES]

    def test_matrix_empty_campaign(self):
        assert build_index().search_batch([], 5) == []

    def test_matrix_k_edge_cases(self):
        index = build_index()
        for k in (0, 1, len(DOCS), 10 * len(DOCS)):
            got = [pairs(h) for h in index.search_batch(MICRO_QUERIES, k)]
            assert got == [
                pairs(index.search(q, k)) for q in MICRO_QUERIES
            ]

    def test_matrix_after_mutation_reseals_correctly(self):
        index = build_index()
        index.search_batch(MICRO_QUERIES, 5)  # seals
        index.remove("d1")
        index.update("d3", "sunny mornings in the green meadow")
        got = [pairs(h) for h in index.search_batch(MICRO_QUERIES, 5)]
        oracle = InvertedIndex(name="micro")
        for doc_id, text in DOCS:
            if doc_id == "d1":
                continue
            if doc_id == "d3":
                text = "sunny mornings in the green meadow"
            oracle.add(doc_id, text)
        assert got == [pairs(oracle.search(q, 5)) for q in MICRO_QUERIES]


# ---------------------------------------------------------------------------
# one of each: a query is a batch of one, one selection ranks both
# kernels, and the kernel is chosen in one place
# ---------------------------------------------------------------------------
#: three words over short documents: most scores tie, so the selection's
#: boundary (ties on both sides of the k-th score) is where answers go
TIE_WORDS = ["kax", "tox", "mix"]
tie_docs = st.lists(
    st.lists(st.sampled_from(TIE_WORDS), min_size=0, max_size=3).map(" ".join),
    min_size=0, max_size=14,
)
tie_queries = st.lists(
    st.lists(
        st.sampled_from(TIE_WORDS + ["absent"]), min_size=0, max_size=3
    ).map(" ".join),
    min_size=1, max_size=4,
)


def tie_fill(index, docs):
    for number, text in enumerate(docs):
        index.add(f"doc{number:02d}", text)
    return index


def assert_one_answer(index, oracle, queries, docs):
    """``search`` ≡ ``search_batch`` rows ≡ the oracle's dict walk, at
    every k around each query's match count."""
    matches = [len(oracle.search(q, len(docs) + 1)) for q in queries]
    for k in sorted({0, 1, len(docs), len(docs) + 5}.union(
        *({m - 1, m, m + 1} for m in matches)
    )):
        expected = [pairs(oracle.search(q, k)) for q in queries]
        assert [pairs(index.search(q, k)) for q in queries] == expected, k
        assert [
            pairs(hits) for hits in index.search_batch(queries, k)
        ] == expected, k


class TestOneOfEach:
    @settings(max_examples=60, deadline=None)
    @given(docs=tie_docs, queries=tie_queries)
    def test_solo_batch_and_dict_agree_on_tie_heavy_corpora(
        self, docs, queries
    ):
        oracle = tie_fill(DictOracle(name="ties"), docs)
        solo = tie_fill(InvertedIndex(name="ties"), docs)
        assert_one_answer(solo, oracle, queries, docs)
        for num_shards in (2, 4):
            sharded = ShardedInvertedIndex(num_shards, name="ties")
            assert_one_answer(tie_fill(sharded, docs), oracle, queries, docs)

    def test_an_empty_index_answers_nothing(self):
        for index in (
            InvertedIndex(name="void"),
            ShardedInvertedIndex(2, name="void"),
        ):
            assert_one_answer(index, DictOracle(), ["kax", ""], [])
            assert index.search_batch([], 3) == []

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_the_first_read_of_a_seal_builds_contrib_flat_once(
        self, monkeypatch, shards
    ):
        if shards == 1:
            index = fill(InvertedIndex(name="solo"), docs=60)
            members = [index]
        else:
            index = fill(
                ShardedInvertedIndex(shards, name="solo"), docs=60
            )
            members = index.shards
        spy = BuildSpy(monkeypatch)
        query, other = campaign(2)
        assert index.search(query, 5)
        seals = [member._sealed for member in members]
        assert same_objects(spy.seals, seals)  # once per member seal
        assert index.search(query, 5) == index.search_batch([query], 5)[0]
        index.search_batch([query, other], 5)
        assert same_objects(spy.seals, seals)  # and never again
        # a write publishes new seals: a patch of every member, the
        # written one's folding the write, the other shards' re-deriving
        # their statistics after invalidate_seal()
        published = seal_counter("patched")
        index.update("doc0007", "kakax memex")
        assert index.search(query, 5)
        assert seal_counter("patched") == published + shards
        fresh = [member._sealed for member in members]
        assert all(new is not old for new, old in zip(fresh, seals))
        assert same_objects(spy.seals, seals + fresh)


# ---------------------------------------------------------------------------
# tiles: wherever a campaign is cut, the rankings do not move
# ---------------------------------------------------------------------------
def pseudo_word(rank):
    return "".join("kmrtv"[d] + "aeo"[d % 3] for d in divmod(rank, 5)) + "x"


def corpus_text(rng, words=12, vocabulary=25):
    """Low ranks far more frequent than high ones, so streams vary."""
    return " ".join(
        pseudo_word(int(rng.random() ** 2 * vocabulary)) for _ in range(words)
    )


def fill(index, docs=1500, seed=5):
    rng = random.Random(seed)
    for number in range(docs):
        index.add(f"doc{number:04d}", corpus_text(rng))
    return index


def campaign(count=56, seed=11):
    rng = random.Random(seed)
    return [corpus_text(rng, words=rng.randint(1, 7)) for _ in range(count)]


def counter(name):
    return get_registry().counter(f"index.matrix.{name}").value


class BincountSpy:
    """Records ``(stream length, minlength)`` of every ``np.bincount``
    pass the kernel makes."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._bincount = np.bincount
        monkeypatch.setattr(np, "bincount", self)

    def __call__(self, cells, weights=None, minlength=0):
        self.calls.append((len(cells), minlength))
        return self._bincount(cells, weights=weights, minlength=minlength)


#: with the budget forced to ``EDGE_BUDGET`` over ``fill(docs=40)``: a
#: query that alone costs more than the budget, empty and absent-token
#: queries where tiles begin and end, and one query landing in two tiles
EDGE_BUDGET = 160
EDGE_QUERIES = [
    "",
    "kakax kakax kamex karox katax kavex mekax memex merox",  # its own tile
    "absent tokens only",
    "",
    "kamex rotax",
    "karox",
    "absent",
    "kamex rotax",
    "",
]


class TestTiles:
    def test_a_multi_tile_campaign_equals_the_per_query_paths(self):
        index = fill(InvertedIndex(name="tiles"))
        oracle = fill(DictOracle(name="tiles"))
        queries = campaign()
        expected = [pairs(oracle.search(q, 5)) for q in queries]
        tiles = counter("tiles")
        got = [pairs(hits) for hits in index.search_batch(queries, 5)]
        assert counter("tiles") - tiles >= 3
        assert got == expected
        assert got == [pairs(index.search(q, 5)) for q in queries]
        assert sum(map(bool, got)) > 50, "vacuous: most queries matched nothing"

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    @pytest.mark.parametrize("k", [0, 1, 3, 1000])
    def test_cuts_on_every_edge_change_nothing(
        self, monkeypatch, num_shards, k
    ):
        budget = EDGE_BUDGET // num_shards  # a shard holds 1/n of it all
        monkeypatch.setattr(inverted, "_TILE_BUDGET", budget)
        sharded = fill(ShardedInvertedIndex(num_shards, name="tiles"), docs=40)
        spy = BincountSpy(monkeypatch)
        got = [pairs(hits) for hits in sharded.search_batch(EDGE_QUERIES, k)]
        if k:
            assert len(spy.calls) >= 3 * num_shards
            assert max(map(sum, spy.calls)) > budget
        assert got == [pairs(sharded.search(q, k)) for q in EDGE_QUERIES]
        assert got[4] == got[7]
        if k == 1000:  # k beyond the matches: every matched document
            assert 0 < len(got[5]) < 40

    def test_worker_arrays_are_tiled_the_same(self, monkeypatch):
        index = fill(InvertedIndex(name="tiles"), docs=40)
        monkeypatch.setattr(inverted, "_TILE_BUDGET", EDGE_BUDGET)
        tiles = counter("tiles")
        ranked = index.rank_planned(index.plan_matrix(EDGE_QUERIES), 3)
        assert counter("tiles") - tiles >= 4
        assert [list(zip(*ranking)) for ranking in ranked] == [
            pairs(index.search(q, 3)) for q in EDGE_QUERIES
        ]

    def test_no_pass_is_handed_more_than_the_budget(self, monkeypatch):
        index = fill(InvertedIndex(name="tiles")).seal()
        queries = campaign(50)
        docs = len(index)
        streams = [
            sum(index.local_df(token) for token in set(index._analyze(q)))
            for q in queries
        ]
        budget = inverted._TILE_BUDGET
        assert max(streams) + docs < budget < sum(streams) + 50 * docs
        tiles, postings = counter("tiles"), counter("stream_postings")
        spy = BincountSpy(monkeypatch)
        index.search_batch(queries, 3)
        assert len(spy.calls) >= 3
        for stream, cells in spy.calls:
            assert stream + cells <= budget
            assert cells % docs == 0
        # every query scored once, and the counters say how it was cut
        assert sum(stream for stream, _ in spy.calls) == sum(streams)
        assert sum(cells for _, cells in spy.calls) == 50 * docs
        assert counter("tiles") - tiles == len(spy.calls)
        assert counter("stream_postings") - postings == sum(streams)

    def test_an_oversize_query_is_a_tile_of_one(self, monkeypatch):
        index = fill(InvertedIndex(name="tiles"), docs=40).seal()
        monkeypatch.setattr(inverted, "_TILE_BUDGET", EDGE_BUDGET)
        spy = BincountSpy(monkeypatch)
        index.search_batch(EDGE_QUERIES, 3)
        longest = max(stream for stream, _ in spy.calls)
        assert longest + 40 > EDGE_BUDGET  # alone over the budget...
        assert (longest, 40) in spy.calls  # ...so scored alone
        for stream, cells in spy.calls:
            assert stream + cells <= EDGE_BUDGET or cells == 40


# ---------------------------------------------------------------------------
# sharded scatter-gather over the matrix kernel
# ---------------------------------------------------------------------------
class TestShardedBatch:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_search_batch_matches_per_query(self, num_shards):
        sharded = ShardedInvertedIndex(num_shards, name="micro")
        for doc_id, text in DOCS:
            sharded.add(doc_id, text)
        per_query = [pairs(sharded.search(q, 6)) for q in MICRO_QUERIES]
        batched = [
            pairs(h) for h in sharded.search_batch(MICRO_QUERIES, 6)
        ]
        assert batched == per_query

    def test_search_batch_empty(self):
        sharded = ShardedInvertedIndex(2, name="micro")
        assert sharded.search_batch([], 5) == []


# ---------------------------------------------------------------------------
# the full indexer surface: every modality, every retrieval path
# ---------------------------------------------------------------------------
class TestIndexerBatch:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_all_modalities_identical(self, small_bundle, num_shards):
        indexer = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=num_shards)
        ).build()
        for modality in MODALITIES:
            per_query = [
                pairs(indexer.search(q, modality, 10)) for q in QUERIES
            ]
            batched = [
                pairs(h)
                for h in indexer.search_batch(QUERIES, modality, 10)
            ]
            assert batched == per_query, (
                f"shards={num_shards} {modality.value}"
            )
            assert any(per_query), (
                f"vacuous comparison: {modality.value} matched nothing"
            )

    def test_semantic_fusion_batch_identical(self, small_bundle):
        indexer = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(use_semantic_index=True, num_shards=2),
        ).build()
        for modality in MODALITIES:
            assert [
                pairs(h)
                for h in indexer.search_batch(QUERIES[:4], modality, 10)
            ] == [
                pairs(indexer.search(q, modality, 10)) for q in QUERIES[:4]
            ]

    def test_chunked_text_fold_batch_identical(self, small_bundle):
        indexer = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(chunk_text=True, chunk_max_tokens=24, num_shards=2),
        ).build()
        assert [
            pairs(h)
            for h in indexer.search_batch(QUERIES, Modality.TEXT, 10)
        ] == [pairs(indexer.search(q, Modality.TEXT, 10)) for q in QUERIES]

    def test_batch_after_live_mutation_identical(self, small_bundle):
        indexer = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=2)
        ).build()
        indexer.search_batch(QUERIES, Modality.TUPLE, 10)  # warm/seal
        victim = small_bundle.tables[0]
        indexer.remove_instance(victim)
        assert [
            pairs(h)
            for h in indexer.search_batch(QUERIES, Modality.TABLE, 10)
        ] == [pairs(indexer.search(q, Modality.TABLE, 10)) for q in QUERIES]


# ---------------------------------------------------------------------------
# solo readers racing to build a fresh seal's contribution table
# ---------------------------------------------------------------------------
class TestSoloReadHammer:
    """``make sanitize`` runs this under the lockset sanitizer: four
    threads issue one-query reads on a freshly published seal, race to
    build its ``contrib_flat`` through the double-checked seal lock, and
    exactly one of them builds it."""

    def test_four_solo_readers_build_one_table_per_seal(self, monkeypatch):
        index = fill(InvertedIndex(name="hammer"), docs=300)
        oracle = fill(DictOracle(name="hammer"), docs=300)
        queries = campaign(4, seed=13)
        rng = random.Random(17)
        spy = BuildSpy(monkeypatch)
        errors = []
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_no in range(6):
                text = corpus_text(rng)
                index.update(f"doc{round_no * 7:04d}", text)
                oracle.update(f"doc{round_no * 7:04d}", text)
                sealed = index.seal()._sealed  # published, no table yet
                assert sealed.contrib_flat is None
                expected = [pairs(oracle.search(q, 7)) for q in queries]
                results = {}
                barrier = threading.Barrier(4)

                def reader(reader_no):
                    try:
                        barrier.wait(timeout=10)
                        # each thread starts on a different query
                        order = queries[reader_no:] + queries[:reader_no]
                        got = {q: pairs(index.search(q, 7)) for q in order}
                        results[reader_no] = [got[q] for q in queries]
                    except Exception as error:  # surfaced below
                        errors.append(error)

                threads = [
                    threading.Thread(target=reader, args=(number,))
                    for number in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert [results[number] for number in range(4)] == [
                    expected
                ] * 4
                assert index._sealed is sealed
                assert len(spy.seals) == round_no + 1
                assert spy.seals[-1] is sealed
        finally:
            sys.setswitchinterval(previous)
