"""Differential proof of one BM25 index per modality.

The contract under test (src/repro/core/indexer.py): each modality is
one :class:`InvertedIndex`, optionally beside one
:class:`FlatVectorIndex`, and what the indexer returns is fixed by the
dict oracle of ``tests/bm25_oracle.py`` fed the modality's entries:

* BM25 alone, RRF fusion: the oracle's top k, each id re-scored
  ``1 / (61 + rank)``;
* BM25 alone, MAX fusion: the oracle's top 2k, min-max normalised,
  re-ranked by ``(-score, id)``;
* BM25 + vectors: the two top-2k lists fused.

Every comparison is of ids and score bits, over two generated lakes,
every indexed modality, queries cut from the modality's own entries and
depths from 1 to past the match count.  The index's own statistics —
document count, total length, df and idf per token — are checked against
the oracle's after every write of seeded write sequences, and after
seeded lake churn through the indexer.
"""

import random

import pytest

from repro.core.config import EMBEDDING_DIM, VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality
from repro.embed.vectorizers import HashingVectorizer
from repro.index.combiner import FusionMethod
from repro.index.inverted import InvertedIndex
from repro.index.vector import FlatVectorIndex
from repro.text import analyze
from repro.workloads.builder import LakeConfig, build_lake
from tests.bm25_oracle import DictOracle
from tests.test_index_churn import apply_op, fresh_lake

MODALITIES = [
    Modality.TUPLE, Modality.TABLE, Modality.TEXT, Modality.KG_ENTITY,
]
LAKES = ["seed-11", "seed-5"]
SLOTS = range(8)
RRF_K = 60


def exact(ids, scores):
    return list(zip(ids, [score.hex() for score in scores]))


def hits(hit_list):
    return exact(
        [hit.instance_id for hit in hit_list], [hit.score for hit in hit_list]
    )


def cut_query(entries, slot):
    """Query ``slot`` of a modality: the head of one entry's payload and
    the tail of another's, so it matches several entries unevenly."""
    size = len(entries)
    head = entries[(slot * size) // len(SLOTS)][1].split()
    tail = entries[((slot * 5 + 3) * size) // (5 * len(SLOTS))][1].split()
    return " ".join(head[:4] + tail[-4:])


def rrf_of(ids):
    """One ranking re-scored by rank, as RRF over one list scores it."""
    return {instance_id: 1.0 / (RRF_K + rank + 1)
            for rank, instance_id in enumerate(ids)}


def min_max(scores):
    lo, hi = min(scores, default=0.0), max(scores, default=0.0)
    if hi == lo:
        return [1.0] * len(scores)
    return [(score - lo) / (hi - lo) for score in scores]


def top(fused, k):
    ranked = sorted(fused.items(), key=lambda item: (-item[1], item[0]))[:k]
    return exact([i for i, _ in ranked], [s for _, s in ranked])


class Built:
    """A lake, its indexer with every modality built, and an oracle per
    modality over the entries the indexer indexed."""

    def __init__(self, lake, config=None):
        self.indexer = IndexerModule(lake, config or VerifAIConfig()).build(
            MODALITIES
        )
        self.entries = {
            modality: self.indexer._modality_entries(modality)
            for modality in MODALITIES
        }
        self.oracles = {
            modality: DictOracle.like(
                self.indexer.content_index(modality), entries
            )
            for modality, entries in self.entries.items()
        }

    def queries(self, modality):
        return [cut_query(self.entries[modality], slot) for slot in SLOTS]


@pytest.fixture(scope="module")
def lakes(small_bundle):
    return {
        "seed-11": small_bundle.lake,
        "seed-5": build_lake(LakeConfig(num_tables=30, seed=5)).lake,
    }


@pytest.fixture(scope="module")
def built(lakes):
    return {name: Built(lake) for name, lake in lakes.items()}


# ---------------------------------------------------------------------------
# the indexer's coarse hits, per query, modality and depth
# ---------------------------------------------------------------------------
class TestEveryQueryEveryModality:
    @pytest.mark.parametrize("slot", SLOTS)
    @pytest.mark.parametrize("modality", MODALITIES, ids=lambda m: m.value)
    @pytest.mark.parametrize("lake", LAKES)
    def test_coarse_hits_are_the_oracle_ranks(self, built, lake, modality,
                                              slot):
        system = built[lake]
        query = system.queries(modality)[slot]
        ranked = system.oracles[modality].search(query, 10)
        assert ranked, f"vacuous: {query!r} matched nothing"
        expected = top(rrf_of([hit.instance_id for hit in ranked]), 10)
        assert hits(system.indexer.search(query, modality, 10)) == expected
        assert hits(
            system.indexer.content_index(modality).search(query, 10)
        ) == hits(ranked)

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 50, 1000])
    @pytest.mark.parametrize("modality", MODALITIES, ids=lambda m: m.value)
    def test_every_depth(self, built, modality, k):
        system = built["seed-11"]
        oracle = system.oracles[modality]
        queries = system.queries(modality)
        for query, got in zip(
            queries, system.indexer.search_batch(queries, modality, k)
        ):
            ranked = [hit.instance_id for hit in oracle.search(query, k)]
            assert hits(got) == top(rrf_of(ranked), k), query
        if k == 1000:  # past the matches: every matched entry, once
            for query in queries:
                matched = len(oracle.search(query, len(oracle.lengths)))
                assert matched < 1000
                assert len(system.indexer.search(query, modality, k)) == (
                    matched
                )


# ---------------------------------------------------------------------------
# the other fusion paths over the one index
# ---------------------------------------------------------------------------
class TestFusionPaths:
    @pytest.fixture(scope="class")
    def max_fused(self, small_bundle):
        return Built(
            small_bundle.lake, VerifAIConfig(fusion=FusionMethod.MAX)
        )

    @pytest.fixture(scope="class")
    def semantic(self, small_bundle):
        built = {
            method: Built(
                small_bundle.lake,
                VerifAIConfig(use_semantic_index=True, fusion=method),
            )
            for method in FusionMethod
        }
        vectors = {}
        for modality, entries in built[FusionMethod.RRF].entries.items():
            index = FlatVectorIndex(
                EMBEDDING_DIM,
                encoder=HashingVectorizer(dim=EMBEDDING_DIM).transform,
            )
            for instance_id, payload in entries:
                index.add(instance_id, payload)
            vectors[modality] = index
        return built, vectors

    @pytest.mark.parametrize("modality", MODALITIES, ids=lambda m: m.value)
    def test_max_over_one_index_is_min_max_of_the_oracle(
        self, max_fused, modality
    ):
        oracle = max_fused.oracles[modality]
        for query in max_fused.queries(modality):
            ranked = oracle.search(query, 20)
            fused = dict(zip(
                [hit.instance_id for hit in ranked],
                min_max([hit.score for hit in ranked]),
            ))
            assert hits(
                max_fused.indexer.search(query, modality, 10)
            ) == top(fused, 10), query

    @pytest.mark.parametrize("method", list(FusionMethod),
                             ids=lambda m: m.value)
    @pytest.mark.parametrize("modality", MODALITIES, ids=lambda m: m.value)
    def test_bm25_and_vectors_fuse_the_two_top_lists(
        self, semantic, modality, method
    ):
        built, vectors = semantic
        system = built[method]
        for query in system.queries(modality):
            lists = [
                system.oracles[modality].search(query, 20),
                vectors[modality].search(query, 20),
            ]
            fused = {}
            for ranked in lists:
                ids = [hit.instance_id for hit in ranked]
                if method is FusionMethod.RRF:
                    for instance_id, score in rrf_of(ids).items():
                        fused[instance_id] = fused.get(instance_id, 0.0) + (
                            score
                        )
                else:
                    scores = min_max([hit.score for hit in ranked])
                    for instance_id, score in zip(ids, scores):
                        fused[instance_id] = max(
                            fused.get(instance_id, 0.0), score
                        )
            assert hits(
                system.indexer.search(query, modality, 10)
            ) == top(fused, 10), query


# ---------------------------------------------------------------------------
# the index's own statistics under writes
# ---------------------------------------------------------------------------
WORDS = ["kax", "tox", "mix", "rax", "nex", "sox", "lux", "vix", "dax"]


def assert_statistics(index, oracle):
    """Document count, total length, df and idf of every token, and
    rankings: the index's are the oracle's."""
    assert len(index) == len(oracle.lengths)
    assert sorted(index._doc_length) == sorted(oracle.lengths)
    assert index._total_length == sum(oracle.lengths.values())
    assert index.avg_doc_length == oracle.avg_doc_length
    for word in WORDS + ["absent"]:
        token = analyze(word)[0]
        assert index.local_df(token) == oracle.df(token), word
        assert index.idf(token).hex() == oracle.idf(token).hex(), word


class TestStatistics:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_write_keeps_the_oracles_statistics(self, seed):
        rng = random.Random(seed)
        index = InvertedIndex(name="stats")
        oracle = DictOracle.like(index)
        payloads = {}
        for step in range(60):
            live = sorted(payloads)
            roll = rng.random()
            payload = " ".join(rng.choices(WORDS, k=rng.randint(1, 6)))
            if live and roll < 0.3:
                doc_id = rng.choice(live)
                # the removal hands over the terms, as the indexer's does
                index.remove(doc_id, analyze(payloads.pop(doc_id)))
                oracle.remove(doc_id)
            elif live and roll < 0.5:
                doc_id = rng.choice(live)
                index.remove(doc_id, analyze(payloads[doc_id]))
                index.add(doc_id, payload)
                payloads[doc_id] = payload
                oracle.update(doc_id, payload)
            else:
                doc_id = f"d{step:02d}"
                payloads[doc_id] = payload
                index.add(doc_id, payload)
                oracle.add(doc_id, payload)
            assert_statistics(index, oracle)
            if rng.random() < 0.3:  # later writes land on a seal or view
                query = " ".join(rng.choices(WORDS, k=3))
                assert hits(index.search(query, 5)) == hits(
                    oracle.search(query, 5)
                )
        assert payloads, "vacuous: every document was removed"


class TestRemoval:
    DOCS = [
        ("d1", "the quick brown fox jumps over the lazy dog"),
        ("d2", "a quick brown dog barks at the fox"),
        ("d3", "lazy afternoons in the brown meadow"),
        ("d4", "the fox and the hound are friends"),
    ]

    def filled(self):
        index = InvertedIndex(name="removal")
        for doc_id, text in self.DOCS:
            index.add(doc_id, text)
        return index

    def remove(self, index, doc_id):
        index.remove(doc_id, analyze(dict(self.DOCS)[doc_id]))

    def test_len_and_contains_follow_a_removal_before_any_seal(self):
        index = self.filled()
        self.remove(index, "d2")
        assert len(index) == len(self.DOCS) - 1
        assert "d2" not in index and "d1" in index
        assert "d2" not in [h.instance_id for h in index.search("dog", 10)]
        index.seal()
        assert len(index) == len(self.DOCS) - 1
        assert "d2" not in [h.instance_id for h in index.search("dog", 10)]

    def test_a_removal_from_a_seal_equals_a_fresh_index(self):
        index = self.filled().seal()
        self.remove(index, "d1")
        fresh = InvertedIndex(name="removal")
        for doc_id, text in self.DOCS[1:]:
            fresh.add(doc_id, text)
        for query in ("quick brown fox", "lazy meadow", "hound", "dog"):
            assert hits(index.search(query, 6)) == hits(
                fresh.search(query, 6)
            )

    def test_an_update_equals_a_rebuild(self):
        index = self.filled().seal()
        self.remove(index, "d3")
        index.add("d3", "sunny mornings in the green meadow")
        rebuilt = DictOracle.like(index, [
            (doc_id, "sunny mornings in the green meadow"
             if doc_id == "d3" else text)
            for doc_id, text in self.DOCS
        ])
        for query in ("meadow", "green sunny", "lazy", "quick fox"):
            assert hits(index.search(query, 6)) == hits(
                rebuilt.search(query, 6)
            )

    @pytest.mark.parametrize("sealed", [False, True])
    def test_an_unknown_id_raises_and_changes_nothing(self, sealed):
        index = self.filled()
        if sealed:
            index.seal()
        with pytest.raises(KeyError):
            index.remove("ghost", ())
        assert len(index) == len(self.DOCS)
        assert_same_as(index, DictOracle.like(index, self.DOCS))

    def test_tokens_of_another_length_are_refused(self):
        index = self.filled().seal()
        with pytest.raises(ValueError, match="holds"):
            index.remove("d4", ["fox"])
        assert "d4" in index
        assert_same_as(index, DictOracle.like(index, self.DOCS))


def assert_same_as(index, oracle):
    for query in ("quick brown fox", "lazy meadow", "hound friends"):
        assert hits(index.search(query, 6)) == hits(oracle.search(query, 6))


# ---------------------------------------------------------------------------
# lake churn through the indexer
# ---------------------------------------------------------------------------
class TestChurnAgainstTheOracle:
    @pytest.mark.parametrize("seed", range(3, 11))
    def test_the_live_indexes_are_the_oracle_over_the_lake(
        self, churn_ops, seed
    ):
        lake = fresh_lake(seed)
        indexer = IndexerModule(lake, VerifAIConfig()).build()
        modalities = MODALITIES[:3]  # churn writes tables and documents
        for step, op in enumerate(churn_ops(lake, seed, 20), 1):
            apply_op(lake, indexer, op)
            if step % 5:
                continue
            for modality in modalities:
                entries = indexer._modality_entries(modality)
                index = indexer.content_index(modality)
                oracle = DictOracle.like(index, entries)
                assert len(index) == len(entries)
                for slot in (0, 3, 6):
                    query = cut_query(entries, slot)
                    assert hits(index.search(query, 10)) == hits(
                        oracle.search(query, 10)
                    ), (seed, step, modality.value, query)
