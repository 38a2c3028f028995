"""From the index to the shortlist in columns.

The contract under test: an index ranks into :data:`Ranking` columns
(``rank_batch``), the Combiner fuses columns, a rerank keeps its scores
in a list — and a ``SearchHit`` is built only where a stage ends.  None
of that may move an id, a score or a tie: every ``search_batch`` is
``hits_of(rank_batch(...))`` and every ``search`` the batch of one, on
every index; the Combiner's columns
and ``Reranker.rerank`` are held against the bodies they replaced, kept
here as oracles.

The ordinal selection — one ``lexsort`` by ``(-score, ordinal)`` in
BM25's ``_rank_row`` and the vector indexes' ``top_ranked`` — is held
against the ``(-score, id, index)`` tuple sorts it replaced, after
seeded bursts of writes.

The file also carries the token embedder's oracle (its ``_compose`` and
``token_rows`` as they were).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embed import token_embed
from repro.embed.token_embed import TokenEmbedder
from repro.embed.vectorizers import HashingVectorizer
from repro.index import hnsw, ivf
from repro.index.base import (
    SearchHit, SearchIndex, hits_of, ordinals_of, ranking_of,
)
from repro.index.combiner import Combiner, FusionMethod
from repro.index.hnsw import HNSWIndex
from repro.index.inverted import InvertedIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.vector import FlatVectorIndex
from repro.rerank.base import Reranker
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.features import FeatureReranker
from repro.rerank.table import TableReranker
from repro.text import analyze
from repro.text.similarity import ngrams
from tests.bm25_oracle import DictOracle, contrib_table

#: three words over short documents: most scores tie, so the boundary of
#: every selection is where answers would move (``TestOneOfEach``)
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

#: few buckets: distinct documents collide, so cosines tie too
ENCODER = HashingVectorizer(dim=8).transform


def triples(hits):
    return [(hit.instance_id, hit.score, hit.index_name) for hit in hits]


def tie_fill(index, docs):
    for number, text in enumerate(docs):
        index.add(f"doc{number:02d}", text)
    return index


def depths(oracle, queries, docs):
    """0, 1, around every query's match count, and past the corpus."""
    matches = [len(oracle.search(q, len(docs) + 1)) for q in queries]
    return sorted({0, 1, len(docs) + 5}.union(
        *({m - 1, m, m + 1} for m in matches)
    ) - {-1})


def assert_columns_are_the_hits(index, queries, k, expected):
    """``hits_of(rank_batch)`` ≡ ``search_batch`` ≡ ``[search ...]`` ≡ the
    monolithic oracle, on ids, scores, names and order."""
    rankings = index.rank_batch(queries, k)
    assert all(len(ids) == len(scores) for ids, scores in rankings)
    from_columns = [triples(hits) for hits in hits_of(rankings, index.name)]
    assert from_columns == [
        triples(hits) for hits in index.search_batch(queries, k)
    ]
    assert from_columns == [triples(index.search(q, k)) for q in queries]
    assert [
        [(instance_id, score) for instance_id, score, _ in hits]
        for hits in from_columns
    ] == expected


def bm25_index(docs):
    return tie_fill(InvertedIndex(name="ties"), docs)


def vector_index(docs):
    return tie_fill(FlatVectorIndex(dim=8, encoder=ENCODER, name="ties"), docs)


def assert_every_index_agrees(docs, queries):
    bm25 = tie_fill(DictOracle(name="ties"), docs)
    flat = tie_fill(FlatVectorIndex(dim=8, encoder=ENCODER, name="ties"), docs)
    for k in depths(bm25, queries, docs):
        expected = [
            [(h.instance_id, h.score) for h in bm25.search(q, k)]
            for q in queries
        ]
        assert_columns_are_the_hits(bm25_index(docs), queries, k, expected)
        expected = [
            [(h.instance_id, h.score) for h in flat.search(q, k)]
            for q in queries
        ]
        assert_columns_are_the_hits(vector_index(docs), queries, k, expected)


class TestRankBatchIsSearchBatch:
    @settings(max_examples=40, deadline=None)
    @given(docs=tie_docs, queries=tie_queries)
    def test_on_every_index_snapshot_and_shard_count(self, docs, queries):
        assert_every_index_agrees(docs, queries)

    def test_empty_index_empty_batch_and_zero_match_queries(self):
        for index in (bm25_index([]), vector_index([])):
            assert index.rank_batch([], 3) == []
            assert index.rank_batch(["kax", ""], 3) == [([], []), ([], [])]
            assert index.search_batch(["kax", ""], 3) == [[], []]
        index = tie_fill(InvertedIndex(name="ties"), ["kax tox", "tox"])
        assert index.rank_batch(["", "absent", "kax"], 5) == [
            ([], []), ([], []), (["doc00"], [index.search("kax", 1)[0].score]),
        ]

    def test_the_default_splits_search_batch_once(self):
        """An index that only knows hits still serves a Combiner: one
        ``search_batch`` call, its hits split into columns."""

        class HitsOnly(SearchIndex):
            name = "hits-only"
            calls = 0

            def add(self, instance_id, payload):  # pragma: no cover
                raise NotImplementedError

            def __len__(self):  # pragma: no cover
                return 2

            def search(self, query, k=10):
                return [
                    SearchHit(2.0, "a", self.name), SearchHit(1.0, "b", self.name)
                ][:k]

            def search_batch(self, queries, k=10):
                self.calls += 1
                return super().search_batch(queries, k)

        index = HitsOnly()
        assert index.rank_batch(["x", "y"], 1) == [(["a"], [2.0])] * 2
        assert index.calls == 1
        fused = Combiner([index]).search_batch(["x", "y"], 2)
        assert [[h.instance_id for h in hits] for hits in fused] == [["a", "b"]] * 2
        assert index.calls == 2


# ---------------------------------------------------------------------------
# the ordinal selection, against the tuple sorts it replaced
# ---------------------------------------------------------------------------
def parent_order_candidates(doc_ids, scores, candidates, k):
    """BM25's ``_order_candidates`` as it was: ``(-score, id, index)``
    tuples, sorted."""
    indexes = candidates.tolist()
    ordered = sorted(
        zip((-scores).tolist(), [doc_ids[i] for i in indexes], indexes)
    )[:k]
    return (
        [i for _, _, i in ordered], [-negated for negated, _, _ in ordered]
    )


def parent_top_ranked(scores, ids, k, rows=None):
    """The vector indexes' ``top_ranked`` as it was."""
    count = scores.shape[0]
    if k <= 0 or count == 0:
        return [], []
    if k < count:
        kth = np.partition(scores, count - k)[count - k]
        positions = np.nonzero(scores >= kth)[0]
        scores = scores[positions]
        positions = positions.tolist()
    else:
        positions = range(count)
    if rows is not None:
        positions = [rows[i] for i in positions]
    ranked = sorted(zip((-scores).tolist(), [ids[i] for i in positions]))[:k]
    return [i for _, i in ranked], [-negated for negated, _ in ranked]


def exact(ranking):
    """A ranking's ids with its scores' bits."""
    ids, scores = ranking
    return [(i, float(score).hex()) for i, score in zip(ids, scores)]


def parent_bm25(index, query, k):
    """One query's BM25 ranking as the parent selected it: every matched
    document of the per-token kernel's row, tuple-sorted.  The kernel as
    it was: each known token adds its CSR block of the contribution
    table times its query count into the row, in sorted token order."""
    sealed = index._current_seal()
    if sealed is None or k <= 0:
        return [], []
    base, contrib_flat = sealed.base, contrib_table(index, sealed)
    row = np.zeros(sealed.size, dtype=np.float64)
    for token, query_count in index.plan_matrix([query]).terms[0]:
        i = sealed.tok_pos.get(token)
        if i is not None:
            block = slice(*base.tok_start[i:i + 2].tolist())
            row[base.doc_idx[block]] += contrib_flat[block] * query_count
    candidates = np.nonzero(row > 0.0)[0]
    positions, scores = parent_order_candidates(
        base.doc_ids, row[candidates], candidates, k
    )
    return [base.doc_ids[i] for i in positions], scores


#: ids whose string order is not their insertion order nor their
#: numeric one (``t10`` < ``t2``), with shared prefixes and both cases
ORDINAL_IDS = (
    [f"t{n}" for n in range(24)] + ["T5", "t1#r0", "t1#r10", "t1#r2", "a", ""]
)
ordinal_texts = st.lists(
    st.sampled_from(TIE_WORDS), min_size=1, max_size=3
).map(" ".join)


@st.composite
def shuffled_corpus(draw):
    """A tie-heavy corpus whose ids arrive out of id order."""
    names = draw(st.lists(
        st.sampled_from(ORDINAL_IDS), unique=True, max_size=18,
    ))
    return [(name, draw(ordinal_texts)) for name in names]


def ordinal_depths(matches, size):
    """k ∈ {1, 3, every match count ± 1, 100, corpus + 5}."""
    return sorted({1, 3, 100, size + 5}.union(
        *({m - 1, m, m + 1} for m in matches)
    ) - {-1, 0})


def burst(rng, index, live, writes):
    """Up to six seeded writes — add, remove, update — mirrored in
    ``live``; ``writes`` names the kinds this index takes."""
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(writes) if live else "add"
        if kind == "add":
            free = [name for name in ORDINAL_IDS if name not in live]
            if not free:
                continue
            name = rng.choice(free)
            live[name] = " ".join(rng.choices(TIE_WORDS, k=rng.randint(1, 3)))
            index.add(name, live[name])
        else:
            name = rng.choice(sorted(live))
            old = live.pop(name)
            if isinstance(index, InvertedIndex):
                index.remove(name, index._analyze(old))
            else:
                index.remove(name)
            if kind == "update":
                live[name] = " ".join(
                    rng.choices(TIE_WORDS, k=rng.randint(1, 3))
                )
                index.add(name, live[name])


def assert_bm25_selects_as_the_parent(index, queries):
    sealed = index.seal()._sealed
    if sealed is not None:  # the carried table is the one a sort builds
        ordinal, by_ordinal = ordinals_of(sealed.base.doc_ids)
        assert sealed.ordinal.tolist() == ordinal.tolist()
        assert sealed.base.by_ordinal.tolist() == by_ordinal.tolist()
        assert by_ordinal.tolist() == sorted(sealed.base.doc_ids)
    matches = [len(parent_bm25(index, q, len(index) + 1)[0]) for q in queries]
    for k in ordinal_depths(matches, len(index)):
        expected = [exact(parent_bm25(index, q, k)) for q in queries]
        # a plan of several queries and a plan of one take the same
        # kernel, a query a pass, and end in the one selection
        assert [exact(r) for r in index.rank_batch(queries, k)] == expected
        assert [
            exact(index.rank_batch([q], k)[0]) for q in queries
        ] == expected


def assert_flat_selects_as_the_parent(index, queries):
    assert [a.tolist() for a in index._ordinals()] == [
        a.tolist() for a in ordinals_of(index._ids)
    ]
    table = index._table()
    scores = [
        FlatVectorIndex._cosines(*table, index.encode(q)) for q in queries
    ]
    matches = [int(np.count_nonzero(row)) for row in scores]
    for k in ordinal_depths(matches, len(index)):
        assert [exact(r) for r in index.rank_batch(queries, k)] == [
            exact(parent_top_ranked(row, list(index._ids), k))
            for row in scores
        ]


class TestOrdinalSelection:
    @settings(max_examples=60, deadline=None)
    @given(corpus=shuffled_corpus(), queries=tie_queries,
           seed=st.integers(0, 2**16))
    def test_bm25_after_every_burst_of_writes(self, corpus, queries, seed):
        index = InvertedIndex(name="ordinal")
        live = dict(corpus)
        for name, text in corpus:
            index.add(name, text)
        rng = random.Random(seed)
        assert_bm25_selects_as_the_parent(index, queries)
        for _ in range(4):
            burst(rng, index, live, ("add", "remove", "update"))
            assert_bm25_selects_as_the_parent(index, queries)

    @settings(max_examples=40, deadline=None)
    @given(corpus=shuffled_corpus(), queries=tie_queries,
           seed=st.integers(0, 2**16))
    def test_flat_vector_after_every_burst_of_writes(
        self, corpus, queries, seed
    ):
        index = FlatVectorIndex(dim=8, encoder=ENCODER, name="ordinal")
        live = dict(corpus)
        for name, text in corpus:
            index.add(name, text)
        rng = random.Random(seed)
        assert_flat_selects_as_the_parent(index, queries)
        for _ in range(4):
            burst(rng, index, live, ("add", "remove"))
            assert_flat_selects_as_the_parent(index, queries)

    @pytest.mark.parametrize("module, make", [
        (ivf, lambda: IVFFlatIndex(dim=8, nlist=3, nprobe=2, encoder=ENCODER)),
        (hnsw, lambda: HNSWIndex(dim=8, m=4, ef_search=8, encoder=ENCODER)),
    ], ids=["ivf", "hnsw"])
    @settings(max_examples=25, deadline=None)
    @given(corpus=shuffled_corpus(), queries=tie_queries)
    def test_approximate_indexes_share_the_selection(
        self, module, make, corpus, queries
    ):
        """IVF and HNSW rank their probed candidates through
        ``top_hits``: each call equals the parent's body on its
        arguments."""
        calls = []
        real = module.top_hits

        def checked(scores, ordinal, by_ordinal, k, index_name, rows=None):
            hits = real(scores, ordinal, by_ordinal, k, index_name, rows)
            ids = by_ordinal[ordinal].tolist()  # in the index's order
            assert ids == index._ids
            assert exact(ranking_of(hits)) == exact(parent_top_ranked(
                scores, ids, k, None if rows is None else list(rows)
            ))
            calls.append(k)
            return hits

        index = make()
        for name, text in corpus:
            index.add(name, text)
        original, module.top_hits = module.top_hits, checked
        try:
            for k in ordinal_depths([], len(index)):
                for query in queries:
                    index.search(query, k)
        finally:
            module.top_hits = original
        assert bool(calls) == bool(corpus)

    def test_the_selection_is_the_id_order_not_the_insertion_order(self):
        index = InvertedIndex(name="ordinal")
        for name in ("t2", "t10", "T5", "t1#r0", "a"):
            index.add(name, "kax")
        index.seal()
        index.remove("t10", ["kax"])
        index.seal()
        index.add("t10", "kax")
        index.remove("t2", ["kax"])
        index.add("t2", "kax")
        assert index.rank_batch(["kax"], 4)[0][0] == ["T5", "a", "t1#r0", "t10"]
        sealed = index._sealed
        assert sealed.base.doc_ids == ["T5", "t1#r0", "a", "t10", "t2"]
        assert sealed.ordinal.tolist() == [0, 2, 1, 3, 4]


# ---------------------------------------------------------------------------
# the Combiner, against the fuse-over-hits body it replaced
# ---------------------------------------------------------------------------
def parent_top_k(scores, k, index_name=""):
    import heapq

    if k <= 0:
        return []
    if 4 * k < len(scores):
        smallest = heapq.nsmallest(
            k, ((-score, instance_id) for instance_id, score in scores.items())
        )
        ranked = [(instance_id, -neg) for neg, instance_id in smallest]
    else:
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]
    return [
        SearchHit(score=score, instance_id=instance_id, index_name=index_name)
        for instance_id, score in ranked
    ]


def parent_normalize_scores(hits):
    if not hits:
        return {}
    scores = [hit.score for hit in hits]
    lo, hi = min(scores), max(scores)
    if hi == lo:
        return {hit.instance_id: 1.0 for hit in hits}
    return {hit.instance_id: (hit.score - lo) / (hi - lo) for hit in hits}


def parent_fuse(combiner, rankings, k):
    """``Combiner.fuse`` over hit lists, as it was."""
    fused = {}
    if combiner.method is FusionMethod.RRF:
        for ranking in rankings:
            for rank, hit in enumerate(ranking):
                fused[hit.instance_id] = fused.get(hit.instance_id, 0.0) + 1.0 / (
                    combiner.rrf_k + rank + 1
                )
    else:
        for ranking in rankings:
            normalized = parent_normalize_scores(list(ranking))
            for instance_id, score in normalized.items():
                fused[instance_id] = max(fused.get(instance_id, 0.0), score)
    return parent_top_k(fused, k, combiner.name)


class ColumnsOnly(SearchIndex):
    """A member that ranks natively from a fixed full ranking per query
    and refuses to build a hit."""

    def __init__(self, name, by_query):
        self.name = name
        self.by_query = by_query

    def add(self, instance_id, payload):  # pragma: no cover - unused
        raise NotImplementedError

    def __len__(self):  # pragma: no cover - unused
        return 0

    def search(self, query, k=10):
        raise AssertionError("a Combiner ranks its members in columns")

    def search_batch(self, queries, k=10):
        raise AssertionError("a Combiner ranks its members in columns")

    def rank_batch(self, queries, k=10):
        return [
            (self.by_query[q][0][:max(k, 0)], self.by_query[q][1][:max(k, 0)])
            for q in queries
        ]

    def hits(self, query, k):
        return hits_of(self.rank_batch([query], k), self.name)[0]


#: a small pool, so members share some ids and not others, and few
#: scores, so min-max normalisation and RRF sums tie
POOL = [f"id{n:02d}" for n in range(9)]


@st.composite
def member_rankings(draw):
    ids = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=9))
    scores = draw(st.lists(
        st.sampled_from([0.25, 0.5, 0.5, 1.0, 3.75]),
        min_size=len(ids), max_size=len(ids),
    ))
    ranked = sorted(zip(scores, ids), key=lambda pair: (-pair[0], pair[1]))
    return [i for _, i in ranked], [s for s, _ in ranked]


class TestCombinerColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        members=st.lists(
            st.lists(member_rankings(), min_size=2, max_size=2),
            min_size=1, max_size=3,
        ),
        method=st.sampled_from(list(FusionMethod)),
        k=st.integers(0, 12),
        per_index_k=st.sampled_from([0, 0, 1, 4]),
    )
    def test_equals_the_fuse_over_hits_it_replaced(
        self, members, method, k, per_index_k
    ):
        queries = ["q0", "q1"]
        indexes = [
            ColumnsOnly(f"m{n}", dict(zip(queries, rankings)))
            for n, rankings in enumerate(members)
        ]
        combiner = Combiner(indexes, method=method, name="fused")
        fan_out = combiner._fan_out(k, per_index_k)
        expected = [
            triples(parent_fuse(
                combiner, [index.hits(q, fan_out) for index in indexes], k
            ))
            for q in queries
        ]
        rankings = combiner.rank_batch(queries, k, per_index_k)
        assert [
            triples(hits) for hits in hits_of(rankings, combiner.name)
        ] == expected
        assert [
            triples(hits)
            for hits in combiner.search_batch(queries, k, per_index_k)
        ] == expected
        assert [
            triples(combiner.search(q, k, per_index_k)) for q in queries
        ] == expected
        # the hit-list adapter bench/replay.py times: the same fusing code
        assert [
            triples(combiner.fuse(
                [index.hits(q, fan_out) for index in indexes], k
            ))
            for q in queries
        ] == expected

    @pytest.mark.parametrize("method", list(FusionMethod))
    def test_equal_fused_scores_break_on_the_id(self, method):
        """Mirrored ranks (RRF) and two top scores (MAX) fuse to equal
        scores; the id decides, whichever member named it first."""
        one = ColumnsOnly("one", {"q": (["zed", "abe"], [2.0, 1.0])})
        other = ColumnsOnly("other", {"q": (["abe", "zed"], [9.0, 3.0])})
        combiner = Combiner([one, other], method=method, name="fused")
        (ids, scores), = combiner.rank_batch(["q"], 2)
        assert ids == ["abe", "zed"] and scores[0] == scores[1]
        assert triples(combiner.search("q", 2)) == triples(parent_fuse(
            combiner, [one.hits("q", 4), other.hits("q", 4)], 2
        ))

    def test_disjoint_members_and_an_empty_one(self):
        one = ColumnsOnly("one", {"q": (["a", "b"], [2.0, 1.0])})
        other = ColumnsOnly("other", {"q": (["c"], [5.0])})
        void = ColumnsOnly("void", {"q": ([], [])})
        for method in FusionMethod:
            combiner = Combiner([one, other, void], method=method)
            assert triples(combiner.search("q", 3)) == triples(parent_fuse(
                combiner, [m.hits("q", 6) for m in (one, other, void)], 3
            ))
        assert Combiner([void]).rank_batch([], 3) == []

    def test_search_batch_never_asks_a_real_member_for_hits(
        self, monkeypatch
    ):
        docs = ["kax tox", "tox mix", "mix", "kax kax mix", "tox"]
        content = InvertedIndex(name="bm25")
        semantic = FlatVectorIndex(dim=8, encoder=ENCODER, name="vec")
        tie_fill(content, docs), tie_fill(semantic, docs)
        combiner = Combiner([content, semantic], name="fused")
        queries = ["kax", "tox mix", ""]
        expected = [
            triples(parent_fuse(
                combiner, [content.search(q, 6), semantic.search(q, 6)], 3
            ))
            for q in queries
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("a member was asked for hits")

        built = []
        real_init = SearchHit.__init__
        monkeypatch.setattr(
            SearchHit, "__init__",
            lambda self, *a, **kw: built.append(1) or real_init(self, *a, **kw),
        )
        for cls in (InvertedIndex, FlatVectorIndex):
            for method in ("search", "search_batch", "search_vector"):
                if hasattr(cls, method):
                    monkeypatch.setattr(cls, method, refuse)
        got = combiner.search_batch(queries, 3)
        assert [triples(hits) for hits in got] == expected
        # only the fused survivors were ever built
        assert len(built) == sum(len(hits) for hits in got)


# ---------------------------------------------------------------------------
# Reranker.rerank, against the body it replaced
# ---------------------------------------------------------------------------
def parent_rerank(reranker, query, candidates, fetch, k=5):
    read = reranker._read_query(query)
    scored = [
        SearchHit(
            score=reranker._score(
                read, reranker._readings(fetch(hit.instance_id))
            ),
            instance_id=hit.instance_id,
            index_name=reranker.name,
        )
        for hit in candidates
    ]
    scored.sort(key=lambda hit: (-hit.score, hit.instance_id))
    return scored[: max(k, 0)]


def bits(hits):
    """Triples with the score's sign bit: ``0.0 == -0.0`` hides it."""
    return [
        (hit.instance_id, hit.score, math.copysign(1.0, hit.score), hit.index_name)
        for hit in hits
    ]


TABLE_PAYLOADS = {
    "m1": "1960 summer games medal table\nnation | gold | total\nvaloria | 19 | 40\nborduria | 7 | 22",
    "m2": "1960 summer games medal table\nnation | gold | total\nvaloria | 19 | 40\nborduria | 7 | 22",
    "m3": "1984 winter games medal table\nnation | gold\nsyldavia | 3",
    "m4": "largest cities\ncity | population\nlakeview | 120,000",
}
TEXT_PAYLOADS = {
    "p1": "Tom Jenkins represented ohio in the election of 1950.",
    "p2": "Tom Jenkins represented ohio in the election of 1950.",
    "p3": "Basketball players average many points per game.",
    "p4": "",
    "p5": "The elections in ohio drew many voters.",
}

RERANK_CASES = [
    (LateInteractionReranker, "tom jenkins ohio election", TEXT_PAYLOADS),
    (FeatureReranker, "tom jenkins ohio election", TEXT_PAYLOADS),
    (
        TableReranker, "valoria won 19 gold in the 1960 summer games",
        TABLE_PAYLOADS,
    ),
]


class FixedScores(Reranker):
    """Scores are what the payload says: ties and signed zeros at will."""

    name = "fixed"

    def _read_query(self, query):
        return query

    def _read_payload(self, payload):
        return float(payload)

    def _score(self, query, payload):
        return payload


class TestRerankColumns:
    @pytest.mark.parametrize("make,query,payloads", RERANK_CASES)
    def test_equals_the_body_it_replaced(self, make, query, payloads):
        ids = sorted(payloads, reverse=True)
        candidates = [SearchHit(1.0 / (n + 1), i, "coarse") for n, i in enumerate(ids)]
        for k in (1, 2, 3, len(ids), len(ids) + 4):
            expected = bits(
                parent_rerank(make(), query, candidates, payloads.__getitem__, k)
            )
            got = make().rerank(query, candidates, payloads.__getitem__, k)
            assert bits(got) == expected, k
            assert len(got) == min(k, len(ids))
        scores = [hit.score for hit in got]
        assert len(set(scores)) < len(scores)  # the twins tie: ids decide

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 0.5, -1.5, 2.0]), max_size=9
        ),
        k=st.integers(-1, 12),
        data=st.data(),
    )
    def test_ties_signed_zeros_and_every_k(self, scores, k, data):
        ids = data.draw(st.permutations(POOL))[:len(scores)]
        payloads = {i: repr(score) for i, score in zip(ids, scores)}
        candidates = [SearchHit(0.0, i, "coarse") for i in ids]
        expected = bits(parent_rerank(
            FixedScores(), "q", candidates, payloads.__getitem__, k
        ))
        got = FixedScores().rerank("q", candidates, payloads.__getitem__, k)
        assert bits(got) == expected
        assert all(isinstance(hit, SearchHit) for hit in got)

    def test_a_signed_zero_keeps_its_sign_and_ties_with_the_other(self):
        payloads = {"b": "0.0", "a": "-0.0", "c": "0.0"}
        candidates = [SearchHit(0.0, i, "coarse") for i in "bac"]
        got = FixedScores().rerank("q", candidates, payloads.__getitem__, 3)
        assert bits(got) == [
            ("a", 0.0, -1.0, "fixed"), ("b", 0.0, 1.0, "fixed"),
            ("c", 0.0, 1.0, "fixed"),
        ]

    @pytest.mark.parametrize("make,query,payloads", RERANK_CASES)
    @pytest.mark.parametrize("k,some", [(0, True), (-2, True), (3, False)])
    def test_nothing_to_return_reads_fetches_and_scores_nothing(
        self, make, query, payloads, k, some, monkeypatch
    ):
        """``k <= 0`` or no candidates: ``[]`` before the query is read
        (the parent fetched, read and scored all fifty, then sliced)."""
        reranker = make()
        read = []
        real = type(reranker)._read_query
        monkeypatch.setattr(
            type(reranker), "_read_query",
            lambda self, q: read.append(q) or real(self, q),
        )

        def fetch(instance_id):
            raise AssertionError("nothing to return, nothing to fetch")

        candidates = [SearchHit(1.0, i, "coarse") for i in payloads] if some else []
        assert reranker.rerank(query, candidates, fetch, k) == []
        assert read == [] and reranker._readings.cache_info().currsize == 0
        # and the spy does see a rerank that has something to return
        reranker.rerank(query, [SearchHit(1.0, i) for i in payloads],
                        payloads.__getitem__, 1)
        assert read == [query]


# ---------------------------------------------------------------------------
# the token embedder: same vectors, fewer LRU entries
# ---------------------------------------------------------------------------
class ParentEmbedder(TokenEmbedder):
    """``_compose`` and ``token_rows`` as they were: the whole-token
    feature goes through the n-gram LRU, every token is looked up one
    at a time."""

    def _compose(self, token):
        features = [f"<{token}>"]
        for n in range(self.min_n, self.max_n + 1):
            features.extend(sorted(ngrams(token, n)))
        acc = np.zeros(self.dim, dtype=np.float64)
        for feature in features:
            acc += self._feature_cache(feature)
        norm = np.linalg.norm(acc)
        if norm > 0:
            acc /= norm
        return acc

    def token_rows(self, tokens):
        rows = [self._row(token) for token in tokens]
        return np.array(rows, dtype=np.int32)


@pytest.fixture(scope="module")
def lake_texts(small_bundle):
    """The token list of every evidence text of a generated lake, in
    lake order — what a campaign's rerank reads."""
    from repro.datalake.serialize import serialize_instance
    from repro.datalake.types import Modality

    lake = small_bundle.lake
    return [
        analyze(serialize_instance(instance))
        for modality in (Modality.TEXT, Modality.TUPLE)
        for instance in lake.iter_instances(modality)
    ]


def feature_vectors_read(monkeypatch, make, texts):
    """An embedder from ``make()``, the rows it gives ``texts``, and
    every feature it computed a vector for, in order.  The spy is in
    place before construction: the n-gram memo wraps the function."""
    calls = []
    real = token_embed._feature_vector
    monkeypatch.setattr(
        token_embed, "_feature_vector",
        lambda feature, *args, **kwargs: (
            calls.append(feature) or real(feature, *args, **kwargs)
        ),
    )
    embedder = make()
    rows = [embedder.token_rows(tokens) for tokens in texts]
    monkeypatch.setattr(token_embed, "_feature_vector", real)
    return embedder, rows, calls


class TestTokenEmbedder:
    def test_same_bits_and_no_more_feature_vectors_over_a_lake(
        self, lake_texts, monkeypatch
    ):
        assert sum(map(len, lake_texts)) > 20_000
        # an LRU the lake overflows, so what is kept in it matters
        monkeypatch.setattr(token_embed, "FEATURES_SIZE", 512)
        monkeypatch.setattr(token_embed, "_INITIAL_ROWS", 64)  # regrows
        parent, parent_rows, parent_calls = feature_vectors_read(
            monkeypatch, ParentEmbedder, lake_texts
        )
        change, rows, calls = feature_vectors_read(
            monkeypatch, TokenEmbedder, lake_texts
        )
        assert all(map(np.array_equal, rows, parent_rows))
        assert change._vocabulary == parent._vocabulary
        assert len(change._vocabulary) > 500
        size = len(change._vocabulary)
        assert np.array_equal(change._table[:size], parent._table[:size])
        assert len(calls) <= len(parent_calls), (len(calls), len(parent_calls))
        # the whole-token feature is read once a token, beside the memo;
        # every other vector computed is an n-gram memo miss
        wholes = [f for f in calls if f.startswith("<")]
        assert len(wholes) == size
        memo = change._feature_cache.cache_info()
        assert memo.misses == len(calls) - size
        assert parent._feature_cache.cache_info().misses == len(parent_calls)

    def test_token_ids_follow_the_first_touch(self):
        embedder = TokenEmbedder()
        first = embedder.token_rows(["ohio", "senate", "ohio"])
        assert first.tolist() == [0, 1, 0] and first.dtype == np.int32
        again = embedder.token_rows(["senate", "ohio"])
        assert again.tolist() == [1, 0]
        assert embedder.token_rows([]).tolist() == []
        assert embedder.token_rows(["new", "ohio", "new"]).tolist() == [2, 0, 2]

