"""Differential proof of the sharding equivalence invariant.

The contract under test (src/repro/index/shard.py): a sharded index —
any shard count — answers every query hit-for-hit identically, ids AND
scores, to the monolithic index over the same corpus.  These tests
compare full ``(instance_id, score)`` tuples, never just id sets, for
shard counts {1, 2, 3, 4, 7} across the BM25, semantic, and
chunked-text fold paths.  The shards of one search are ranked one after
another on the calling thread; ``make sanitize`` runs this file under
the lockset sanitizer, with the batch engine's workers reading the
sharded indexes.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
from repro.embed.vectorizers import HashingVectorizer
from repro.index.inverted import InvertedIndex
from repro.index.shard import (
    GlobalBM25Stats,
    ShardedInvertedIndex,
    ShardedVectorIndex,
    merge_shard_hits,
    partition_ids,
    shard_key,
    shard_of,
)
from repro.index.base import SearchHit
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.verify.objects import TupleObject

SHARD_COUNTS = [1, 2, 3, 4, 7]

#: queries chosen to hit the generated lakes' vocabulary across
#: modalities: city/population tables, sports stats, medal pages
QUERIES = [
    "largest cities by population",
    "points per game shooting guard",
    "gold silver bronze medal total",
    "season player statistics games",
    "eastern province area",
    "summer games delegation",
]

MODALITIES = [Modality.TUPLE, Modality.TABLE, Modality.TEXT]


def ranking(indexer, query, modality, k=10):
    """The full (id, score) ranking — the strongest equality we can ask."""
    return [
        (hit.instance_id, hit.score)
        for hit in indexer.search(query, modality, k)
    ]


@pytest.fixture(scope="module")
def baseline(small_bundle):
    """The unsharded oracle every sharded build is compared against."""
    return IndexerModule(small_bundle.lake, VerifAIConfig()).build()


# ---------------------------------------------------------------------------
# routing primitives
# ---------------------------------------------------------------------------
class TestRouting:
    def test_shard_key_strips_derived_suffix(self):
        assert shard_key("page-00001#c3") == "page-00001"
        assert shard_key("geography-00001#r12") == "geography-00001"
        assert shard_key("geography-00001") == "geography-00001"
        assert shard_key("kg:anna-morgan") == "kg:anna-morgan"

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_children_co_locate_with_parent(self, num_shards):
        parent = shard_of("doc-17", num_shards)
        for n in range(25):
            assert shard_of(f"doc-17#c{n}", num_shards) == parent
            assert shard_of(f"doc-17#r{n}", num_shards) == parent

    def test_shard_of_is_stable_and_in_range(self):
        for num_shards in SHARD_COUNTS:
            for i in range(50):
                first = shard_of(f"id-{i}", num_shards)
                assert 0 <= first < num_shards
                assert shard_of(f"id-{i}", num_shards) == first

    def test_shard_of_actually_spreads(self):
        used = {shard_of(f"table-{i:05d}", 4) for i in range(200)}
        assert used == {0, 1, 2, 3}

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)

    def test_partition_ids_is_a_partition(self):
        ids = [f"t-{i}" for i in range(40)] + [f"t-{i}#r0" for i in range(40)]
        buckets = partition_ids(ids, 5)
        assert len(buckets) == 5
        flat = [i for bucket in buckets for i in bucket]
        assert sorted(flat) == sorted(ids)
        for bucket in buckets:
            for instance_id in bucket:
                assert shard_of(instance_id, 5) == buckets.index(bucket)


class TestMerge:
    def test_merge_replays_total_order(self):
        a = [SearchHit(2.0, "b", "s0"), SearchHit(1.0, "d", "s0")]
        b = [SearchHit(2.0, "a", "s1"), SearchHit(1.5, "c", "s1")]
        merged = merge_shard_hits([a, b], 3, "logical")
        assert [(h.instance_id, h.score) for h in merged] == [
            ("a", 2.0), ("b", 2.0), ("c", 1.5),
        ]
        assert all(h.index_name == "logical" for h in merged)

    def test_merge_empty_and_zero_k(self):
        assert merge_shard_hits([], 5) == []
        assert merge_shard_hits([[SearchHit(1.0, "a", "s")]], 0) == []


# ---------------------------------------------------------------------------
# the tentpole invariant: sharded == monolithic, ids and scores
# ---------------------------------------------------------------------------
class TestShardCountInvariance:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_every_query_every_modality_identical(
        self, small_bundle, baseline, num_shards
    ):
        sharded = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=num_shards)
        ).build()
        for modality in MODALITIES:
            for query in QUERIES:
                expected = ranking(baseline, query, modality)
                got = ranking(sharded, query, modality)
                assert got == expected, (
                    f"shards={num_shards} {modality.value} {query!r}"
                )
                assert expected, (
                    f"vacuous comparison: {modality.value} {query!r} "
                    "matched nothing"
                )

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_depths_beyond_default_identical(
        self, small_bundle, baseline, num_shards
    ):
        sharded = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=num_shards)
        ).build()
        for k in (1, 5, 50):
            assert (
                ranking(sharded, QUERIES[0], Modality.TUPLE, k)
                == ranking(baseline, QUERIES[0], Modality.TUPLE, k)
            )

    @pytest.mark.parametrize("num_shards", [3, 7])
    def test_chunked_text_fold_path_identical(self, small_bundle, num_shards):
        config = VerifAIConfig(chunk_text=True, chunk_max_tokens=24)
        plain = IndexerModule(small_bundle.lake, config).build()
        sharded = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(
                chunk_text=True, chunk_max_tokens=24, num_shards=num_shards
            ),
        ).build()
        for query in QUERIES:
            expected = ranking(plain, query, Modality.TEXT)
            assert ranking(sharded, query, Modality.TEXT) == expected
        # the fold produced documents, not chunks
        for instance_id, _ in ranking(sharded, QUERIES[2], Modality.TEXT):
            assert "#c" not in instance_id

    @pytest.mark.parametrize("num_shards", [2, 7])
    def test_semantic_fusion_path_identical(self, small_bundle, num_shards):
        plain = IndexerModule(
            small_bundle.lake, VerifAIConfig(use_semantic_index=True)
        ).build()
        sharded = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(use_semantic_index=True, num_shards=num_shards),
        ).build()
        for modality in MODALITIES:
            for query in QUERIES[:4]:
                assert (
                    ranking(sharded, query, modality)
                    == ranking(plain, query, modality)
                )

    def test_serial_build_matches_parallel_build(self, small_bundle):
        parallel = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=4)
        ).build()
        serial = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(num_shards=4),
        ).build()
        for modality in MODALITIES:
            for query in QUERIES:
                assert (
                    ranking(serial, query, modality)
                    == ranking(parallel, query, modality)
                )


# ---------------------------------------------------------------------------
# the sharded index types directly
# ---------------------------------------------------------------------------
DOCS = [
    ("d1", "the quick brown fox jumps over the lazy dog"),
    ("d2", "a quick brown dog barks at the fox"),
    ("d3", "lazy afternoons in the brown meadow"),
    ("d4", "the fox and the hound are friends"),
    ("d5", "dogs and foxes share the meadow at dusk"),
    ("d6", "quick reflexes help the hound catch nothing"),
]


def build_pair(num_shards):
    mono = InvertedIndex(name="mono")
    sharded = ShardedInvertedIndex(num_shards, name="mono")
    for doc_id, text in DOCS:
        mono.add(doc_id, text)
        sharded.add(doc_id, text)
    return mono, sharded


class TestShardedInvertedIndex:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_search_identical_to_monolithic(self, num_shards):
        mono, sharded = build_pair(num_shards)
        for query in ("quick brown fox", "lazy meadow", "hound", "dusk"):
            assert [
                (h.instance_id, h.score) for h in sharded.search(query, 6)
            ] == [(h.instance_id, h.score) for h in mono.search(query, 6)]

    def test_global_stats_match_monolithic(self):
        mono, sharded = build_pair(3)
        stats = GlobalBM25Stats(sharded.shards)
        assert stats.doc_count() == len(mono)
        assert stats.total_token_length() == mono._total_length
        for token in ("quick", "fox", "meadow", "absent"):
            assert stats.df(token) == mono.local_df(token)

    def test_mutation_invalidates_every_shard_seal(self):
        _, sharded = build_pair(3)
        sharded.seal()
        assert sharded.is_sealed
        sharded.remove("d1")
        for shard in sharded.shards:
            assert not shard.is_sealed
        # and the re-sealed answers match a fresh monolithic build
        mono = InvertedIndex(name="mono")
        for doc_id, text in DOCS:
            if doc_id != "d1":
                mono.add(doc_id, text)
        for query in ("quick brown fox", "lazy meadow"):
            assert [
                (h.instance_id, h.score) for h in sharded.search(query, 6)
            ] == [(h.instance_id, h.score) for h in mono.search(query, 6)]

    def test_update_routes_and_matches_rebuild(self):
        mono, sharded = build_pair(4)
        sharded.update("d3", "sunny mornings in the green meadow")
        mono.update("d3", "sunny mornings in the green meadow")
        for query in ("meadow", "green sunny", "quick fox"):
            assert [
                (h.instance_id, h.score) for h in sharded.search(query, 6)
            ] == [(h.instance_id, h.score) for h in mono.search(query, 6)]

    def test_len_contains_tombstones(self):
        _, sharded = build_pair(3)
        assert len(sharded) == len(DOCS)
        assert "d2" in sharded
        sharded.remove("d2")
        assert len(sharded) == len(DOCS) - 1
        assert "d2" not in sharded
        # the removal needs no seal to take effect, and survives one
        assert all(
            h.instance_id != "d2" for h in sharded.search(DOCS[1][1], 10)
        )
        sharded.seal()
        assert len(sharded) == len(DOCS) - 1
        assert all(
            h.instance_id != "d2" for h in sharded.search(DOCS[1][1], 10)
        )

    def test_remove_unknown_raises(self):
        _, sharded = build_pair(2)
        with pytest.raises(KeyError):
            sharded.remove("ghost")

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardedInvertedIndex(0)
        with pytest.raises(ValueError):
            ShardedVectorIndex(0, dim=8)

    def test_shard_names_are_derived(self):
        sharded = ShardedInvertedIndex(3, name="bm25-text")
        assert [s.name for s in sharded.shards] == [
            "bm25-text/s0", "bm25-text/s1", "bm25-text/s2",
        ]


class TestIndexerShardWiring:
    def test_indexer_exposes_sharded_indexes(self, small_bundle):
        sharded = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=3)
        ).build()
        index = sharded.content_index(Modality.TABLE)
        assert isinstance(index, ShardedInvertedIndex)
        assert index.num_shards == 3
        assert sharded.num_shards == 3

    def test_indexer_rejects_bad_shard_count(self, small_bundle):
        with pytest.raises(ValueError):
            IndexerModule(small_bundle.lake, VerifAIConfig(num_shards=0))

    def test_all_entries_land_in_their_routed_shard(self, small_bundle):
        sharded = IndexerModule(
            small_bundle.lake, VerifAIConfig(num_shards=4)
        ).build()
        index = sharded.content_index(Modality.TUPLE)
        for shard_no, shard in enumerate(index.shards):
            for instance_id in shard._doc_length:
                assert shard_of(instance_id, 4) == shard_no


# ---------------------------------------------------------------------------
# the one fan-out: a search is the batch of one, and a campaign prefills
# ---------------------------------------------------------------------------
SCATTER_QUERIES = ["quick brown fox", "lazy meadow", "hound dusk", "", "absent"]


def pairs(hits):
    return [(h.instance_id, h.score) for h in hits]


class TestScatter:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_search_is_search_batch_of_one(self, num_shards):
        bm25 = ShardedInvertedIndex(num_shards, name="scatter")
        vectors = ShardedVectorIndex(
            num_shards, dim=32, encoder=HashingVectorizer(dim=32).transform,
            name="scatter",
        )
        for index in (bm25, vectors):
            for doc_id, text in DOCS:
                index.add(doc_id, text)
            batched = [
                pairs(hits) for hits in index.search_batch(SCATTER_QUERIES, 8)
            ]
            assert batched == [
                pairs(index.search(q, 8)) for q in SCATTER_QUERIES
            ]
            assert any(batched)

    def test_a_sharded_traced_campaign_prefills_by_matrix(self, small_bundle):
        workload = [
            TupleObject(f"obj-{i}", table.row(0), attribute=table.columns[1])
            for i, table in enumerate(small_bundle.tables[:5])
        ]
        system = VerifAI(
            small_bundle.lake,
            llm=SimulatedLLM(knowledge=None, seed=26),
            config=VerifAIConfig(num_shards=2),
            clock=TickClock(),
        ).build_indexes()
        batch = system.verify_batch(workload, max_workers=4, trace=True)
        assert batch.stats.matrix_batches > 0
        assert "matrix batches" in batch.stats.summary()
