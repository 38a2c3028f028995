"""Differential proof of the BM25 kernel.

The contract under test (src/repro/index/inverted.py): scoring a whole
campaign of queries against a sealed index in one call
(``search_batch``) returns, query for query, the
bit-identical ``(instance_id, score)`` rankings of the per-query paths
— a batch of one AND the dict walk of
``tests/bm25_oracle.py``.  Equality
is exact float64 equality, never approx: both paths accumulate
contributions in the same canonical sorted-token order, so IEEE
addition order matches and the scores agree to the last bit.

The kernel scores a query a pass: its known tokens' blocks laid end to
end in sorted token order, one ``np.bincount`` into its score row.  The
parent's kernels — the tiled query-matrix kernel and the per-token one —
are kept here as oracles: wherever the parent cut a campaign into tiles
(``TestTiles``), on any corpus, at every k around the match counts and
after bursts of writes (``TestOneQueryAPass``) the rankings are theirs,
ids and score bits; they read the contribution table
``tests/bm25_oracle.py`` rebuilds from a seal's postings.
``TestSoloReadHammer`` and ``TestSpanHammer`` race first readers
deriving a fresh seal's spans and prove no span a write moved is read
from a superseded view.
"""

import random
import sys
import threading
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import sanitizer
from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.datalake.types import Modality
from repro.index.base import select_ranked
from repro.index.inverted import InvertedIndex
from repro.obs.metrics import get_registry
from tests.bm25_oracle import DictOracle, contrib_table
from tests.test_index_ranking import race

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
        payloads = dict(DOCS)
        index.remove("d1", index._analyze(payloads["d1"]))
        index.remove("d3", index._analyze(payloads["d3"]))
        index.add("d3", "sunny mornings in the green meadow")
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
# one of each: a query is a batch of one, and one kernel scores both
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

    def test_an_empty_index_answers_nothing(self):
        index = InvertedIndex(name="void")
        assert_one_answer(index, DictOracle(), ["kax", ""], [])
        assert index.search_batch([], 3) == []


# ---------------------------------------------------------------------------
# the parent's kernels, kept as oracles: the tiled query-matrix kernel, the
# per-token kernel it took for a plan of one query, and the 2-D selection
# both ended in — as they were before one kernel scored a query a pass
# ---------------------------------------------------------------------------
#: the most elements — postings in the stream plus cells in the score
#: matrix — one tile of the parent's kernel held
PARENT_TILE_BUDGET = 48_000


def parent_rank_matrix(sealed, scores, k):
    """Per-row top k of a score matrix, one ``partition`` for all rows."""
    num_queries, num_docs = scores.shape
    at = min(k, num_docs) - 1
    kth = (-np.partition(-scores, at, axis=1)[:, at]).tolist()
    ranked = []
    for qi in range(num_queries):
        row = scores[qi]
        if kth[qi] > 0.0:
            candidates = np.nonzero(row >= kth[qi])[0]
        else:
            candidates = np.nonzero(row > 0.0)[0]
        ranked.append(select_ranked(
            sealed.base.ordinal, sealed.base.by_ordinal, row[candidates],
            candidates, k,
        ))
    return ranked


def parent_score_tokens(index, sealed, terms):
    """One query's scores as a one-row matrix, a token's block at a
    time."""
    contrib_flat = contrib_table(index, sealed)
    tok_start, doc_idx = sealed.base.tok_start, sealed.base.doc_idx
    scores = np.zeros((1, sealed.size), dtype=np.float64)
    row = scores[0]
    for token, query_count in terms:
        i = sealed.tok_pos.get(token)
        if i is not None:
            start, end = int(tok_start[i]), int(tok_start[i + 1])
            row[doc_idx[start:end]] += contrib_flat[start:end] * query_count
    return scores


def parent_score_matrix(
    index, sealed, plan, k, budget=PARENT_TILE_BUDGET, cuts=None
):
    """The parent's ``_score_matrix``: a plan of one query through the
    per-token kernel, any other in tiles of consecutive queries cut at
    ``budget`` elements, each tile's postings one flat stream folded by
    one 2-D ``np.bincount``.  ``cuts``, when a list, receives each
    tile's ``(first, stop)`` query range."""
    if sealed is None or not sealed.size or k <= 0:
        return [([], []) for _ in plan.terms]
    if len(plan.terms) == 1:
        return parent_rank_matrix(
            sealed, parent_score_tokens(index, sealed, plan.terms[0]), k
        )
    num_docs = sealed.size
    base = sealed.base
    contrib_flat = contrib_table(index, sealed)
    pair_tok, pair_row, pair_qc, pair_end = [], [], [], []
    for row, terms in enumerate(plan.terms):
        for token, query_count in terms:
            position = sealed.tok_pos.get(token)
            if position is not None:
                pair_tok.append(position)
                pair_row.append(row)
                pair_qc.append(query_count)
        pair_end.append(len(pair_tok))
    tok_arr = np.asarray(pair_tok, dtype=np.int64)
    starts = base.tok_start[tok_arr]
    lengths = base.tok_start[tok_arr + 1] - starts
    rows = np.asarray(pair_row, dtype=np.int64)
    counts = np.asarray(pair_qc, dtype=np.float64)
    stream_end = np.concatenate(([0], np.cumsum(lengths)))[pair_end]
    cost = (
        stream_end + num_docs * np.arange(1, len(pair_end) + 1)
    ).tolist()
    ranked = []
    first = first_pair = spent = 0
    while first < len(cost):
        stop = max(first + 1, bisect_right(cost, spent + budget, first))
        pairs = slice(first_pair, pair_end[stop - 1])
        lens = lengths[pairs]
        total = int(lens.sum())
        gather = np.repeat(starts[pairs] - np.cumsum(lens) + lens, lens)
        gather += np.arange(total)
        values = contrib_flat[gather]
        values *= np.repeat(counts[pairs], lens)
        cells = base.doc_idx[gather]
        cells += np.repeat((rows[pairs] - first) * num_docs, lens)
        scores = np.bincount(
            cells, weights=values, minlength=(stop - first) * num_docs
        ).reshape(stop - first, num_docs)
        ranked.extend(parent_rank_matrix(sealed, scores, k))
        if cuts is not None:
            cuts.append((first, stop))
        first, first_pair, spent = stop, pairs.stop, cost[stop - 1]
    return ranked


def exact(rankings):
    """Rankings as ids with their scores' bits."""
    return [
        [(i, float(score).hex()) for i, score in zip(ids, scores)]
        for ids, scores in rankings
    ]


def assert_as_the_parent(index, queries, k, budget=PARENT_TILE_BUDGET):
    """The index ranks the plan, bit for bit, as the parent's tiled
    kernel at ``budget`` and its per-token kernel query by query did;
    returns the tiles the parent cut."""
    plan = index.plan_matrix(queries)
    cuts = []
    sealed = index._current_seal()
    got = exact(index.rank_planned(plan, k))
    assert got == exact(
        parent_score_matrix(index, sealed, plan, k, budget, cuts)
    ), k
    assert got == [
        exact(parent_score_matrix(index, sealed, one, k))[0]
        for one in (type(plan)([terms]) for terms in plan.terms)
    ], k
    return cuts


# ---------------------------------------------------------------------------
# the parent's tiles: wherever it cut a campaign, the rankings do not move
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
    """Records ``(stream, weights, minlength)`` of every ``np.bincount``
    pass the kernel makes."""

    def __init__(self, monkeypatch):
        self.calls = []
        self._bincount = np.bincount
        monkeypatch.setattr(np, "bincount", self)

    def __call__(self, cells, weights=None, minlength=0):
        self.calls.append((np.array(cells), np.array(weights), minlength))
        return self._bincount(cells, weights=weights, minlength=minlength)

    def shapes(self):
        """``(stream length, minlength)`` of every pass."""
        return [(len(cells), minlength) for cells, _, minlength in self.calls]


def query_stream(index, query):
    """The postings a query's pass folds: its known tokens' CSR blocks
    of ``doc_idx`` and of the contribution table (times the query
    count), in sorted token order."""
    sealed = index._current_seal()
    base = sealed.base
    contrib_flat = contrib_table(index, sealed)
    cells, weights = [], []
    for token, query_count in index.plan_matrix([query]).terms[0]:
        i = sealed.tok_pos.get(token)
        if i is not None:
            block = slice(*base.tok_start[i:i + 2].tolist())
            cells.extend(base.doc_idx[block].tolist())
            weights.extend((contrib_flat[block] * query_count).tolist())
    return cells, weights


#: over ``fill(docs=40)`` with the parent's budget forced to
#: ``EDGE_BUDGET``: a query that alone costs more than the budget, empty
#: and absent-token queries where its tiles began and ended, and one
#: query landing in two tiles
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
    """The parent scored a campaign in tiles of consecutive queries, cut
    at a budget of elements; the kernel now scores a query a pass.
    Wherever the parent's cuts fell — its own budget, forced edges, one
    query over the budget — every ranking is the parent's, bit for
    bit."""

    def test_a_multi_tile_campaign_equals_the_per_query_paths(self):
        index = fill(InvertedIndex(name="tiles"))
        oracle = fill(DictOracle(name="tiles"))
        queries = campaign()
        assert len(assert_as_the_parent(index, queries, 5)) >= 3
        expected = [pairs(oracle.search(q, 5)) for q in queries]
        got = [pairs(hits) for hits in index.search_batch(queries, 5)]
        assert got == expected
        assert got == [pairs(index.search(q, 5)) for q in queries]
        assert sum(map(bool, got)) > 50, "vacuous: most queries matched nothing"

    @pytest.mark.parametrize("k", [0, 1, 3, 1000])
    def test_cuts_on_every_edge_change_nothing(self, k):
        index = fill(InvertedIndex(name="tiles"), docs=40)
        cuts = assert_as_the_parent(index, EDGE_QUERIES, k, EDGE_BUDGET)
        if k:
            assert len(cuts) >= 3
        got = [pairs(hits) for hits in index.search_batch(EDGE_QUERIES, k)]
        assert got == [pairs(index.search(q, k)) for q in EDGE_QUERIES]
        assert got[4] == got[7]
        if k == 1000:  # k beyond the matches: every matched document
            assert 0 < len(got[5]) < 40

    def test_worker_arrays_are_tiled_the_same(self):
        index = fill(InvertedIndex(name="tiles"), docs=40)
        cuts = assert_as_the_parent(index, EDGE_QUERIES, 3, EDGE_BUDGET)
        assert len(cuts) >= 4
        ranked = index.rank_planned(index.plan_matrix(EDGE_QUERIES), 3)
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
        budget = PARENT_TILE_BUDGET
        # the parent cut this campaign, and no query alone was over
        assert max(streams) + docs < budget < sum(streams) + 50 * docs
        postings = counter("stream_postings")
        spy = BincountSpy(monkeypatch)
        index.search_batch(queries, 3)
        # a pass a query that matches: one query's stream and one row
        assert spy.shapes() == [
            (stream, docs) for stream in streams if stream
        ]
        assert counter("stream_postings") - postings == sum(streams)

    def test_an_oversize_query_is_a_tile_of_one(self, monkeypatch):
        index = fill(InvertedIndex(name="tiles"), docs=40).seal()
        cuts = assert_as_the_parent(index, EDGE_QUERIES, 3, EDGE_BUDGET)
        assert (1, 2) in cuts  # the parent scored it alone...
        spy = BincountSpy(monkeypatch)
        index.search_batch(EDGE_QUERIES, 3)
        longest = max(stream for stream, _ in spy.shapes())
        assert longest + 40 > EDGE_BUDGET  # ...being over the budget
        assert spy.shapes()[0] == (longest, 40)  # and so is it now


# ---------------------------------------------------------------------------
# the full indexer surface: every modality, every retrieval path
# ---------------------------------------------------------------------------
class TestIndexerBatch:
    def test_all_modalities_identical(self, small_bundle):
        indexer = IndexerModule(small_bundle.lake, VerifAIConfig()).build()
        for modality in MODALITIES:
            per_query = [
                pairs(indexer.search(q, modality, 10)) for q in QUERIES
            ]
            batched = [
                pairs(h)
                for h in indexer.search_batch(QUERIES, modality, 10)
            ]
            assert batched == per_query, modality.value
            assert any(per_query), (
                f"vacuous comparison: {modality.value} matched nothing"
            )

    def test_semantic_fusion_batch_identical(self, small_bundle):
        indexer = IndexerModule(
            small_bundle.lake,
            VerifAIConfig(use_semantic_index=True),
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
            VerifAIConfig(chunk_text=True, chunk_max_tokens=24),
        ).build()
        assert [
            pairs(h)
            for h in indexer.search_batch(QUERIES, Modality.TEXT, 10)
        ] == [pairs(indexer.search(q, Modality.TEXT, 10)) for q in QUERIES]

    def test_batch_after_live_mutation_identical(self, small_bundle):
        indexer = IndexerModule(small_bundle.lake, VerifAIConfig()).build()
        indexer.search_batch(QUERIES, Modality.TUPLE, 10)  # warm/seal
        victim = small_bundle.tables[0]
        indexer.remove_instance(victim)
        assert [
            pairs(h)
            for h in indexer.search_batch(QUERIES, Modality.TABLE, 10)
        ] == [pairs(indexer.search(q, Modality.TABLE, 10)) for q in QUERIES]


# ---------------------------------------------------------------------------
# solo readers racing to derive a fresh seal's spans
# ---------------------------------------------------------------------------
class TestSoloReadHammer:
    """``make sanitize`` runs this under the lockset sanitizer: four
    threads issue one-query reads on a freshly published seal, all of
    them first reading one token, race to derive its span through the
    double-checked seal lock, and each span is derived once."""

    def test_four_solo_readers_derive_each_span_once(self, monkeypatch):
        index = fill(InvertedIndex(name="hammer"), docs=300)
        oracle = fill(DictOracle(name="hammer"), docs=300)
        queries = ["kamex"] + campaign(4, seed=13)
        rng = random.Random(17)
        spy = SpanSpy(monkeypatch)
        for round_no in range(6):
            text = corpus_text(rng)
            replace(index, oracle, f"doc{round_no * 7:04d}", text)
            sealed = index.seal()._sealed  # published, no span yet
            assert sealed.spans == {}
            expected = [pairs(oracle.search(q, 7)) for q in queries]

            def read(number):
                # one token first on every thread, then each on another
                rest = queries[1:]
                order = queries[:1] + rest[number:] + rest[:number]
                got = {q: pairs(index.search(q, 7)) for q in order}
                return [got[q] for q in queries]

            assert race(4, read) == [expected] * 4
            assert index._sealed is sealed
            tokens = known_tokens(index, queries)
            assert "kamex" in tokens
            assert sorted(sealed.spans) == tokens
            assert spy.fills(sealed) == len(tokens)  # once a token


# ---------------------------------------------------------------------------
# one kernel, a query a pass: the parent's rankings, bit for bit
# ---------------------------------------------------------------------------
#: a few words over short documents with repeats: query counts above 1,
#: ties, and tokens no document carries
PASS_WORDS = TIE_WORDS + ["rud", "pel"]
pass_docs = st.lists(
    st.lists(
        st.sampled_from(PASS_WORDS), min_size=0, max_size=5
    ).map(" ".join),
    min_size=0, max_size=16,
)
pass_queries = st.lists(
    st.lists(
        st.sampled_from(PASS_WORDS + ["absent"]), min_size=0, max_size=5
    ).map(" ".join),
    min_size=1, max_size=5,
)
#: what the burst tests read after every burst: repeated tokens, an
#: empty query, an absent token, a duplicate query
BURST_QUERIES = [
    "kax tox", "mix mix mix rud", "", "absent", "pel kax pel", "kax tox",
]


def assert_one_pass(index, oracle, queries):
    """At k ∈ {0, 1, 3, every match count ± 1, corpus + 5}: the index
    ranks as the parent's kernels did — at the parent's budget and cut
    to a tile a query — and its rows are the reference scorer's."""
    size = len(oracle.lengths)
    matches = [len(oracle.search(q, size + 1)) for q in queries]
    for k in sorted({0, 1, 3, size + 5}.union(
        *({m - 1, m, m + 1} for m in matches)
    ) - {-1}):
        assert_as_the_parent(index, queries, k)
        assert_as_the_parent(index, queries, k, budget=1)
        assert [pairs(hits) for hits in index.search_batch(queries, k)] == [
            pairs(oracle.search(q, k)) for q in queries
        ], k


def member_rankings(index, queries, depths):
    """The index's rankings of the queries at each depth, by score
    bits."""
    plan = index.plan_matrix(queries)
    return [exact(index.rank_planned(plan, k)) for k in depths]


def replace(index, oracle, name, text):
    """Replace one document's payload in ``index`` and ``oracle``: the
    removal hands the index the terms the oracle analysed."""
    index.remove(name, oracle.tokens(name))
    index.add(name, text)
    oracle.update(name, text)


def write_burst(rng, index, oracle, live):
    """Up to five seeded writes — add, remove, update — applied to
    ``index`` and ``oracle`` and mirrored in ``live``."""
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(["add", "remove", "update"]) if live else "add"
        text = " ".join(rng.choices(PASS_WORDS, k=rng.randint(1, 5)))
        if kind == "add":
            name = f"w{rng.randrange(10**6):06d}"
            if name in live:
                continue
            live[name] = text
            index.add(name, text)
            oracle.add(name, text)
        elif kind == "remove":
            name = rng.choice(sorted(live))
            del live[name]
            index.remove(name, oracle.tokens(name))
            oracle.remove(name)
        else:
            name = rng.choice(sorted(live))
            live[name] = text
            replace(index, oracle, name, text)


class TestOneQueryAPass:
    @settings(max_examples=30, deadline=None)
    @given(docs=pass_docs, queries=pass_queries)
    def test_equals_the_parent_kernels_on_any_corpus(
        self, docs, queries
    ):
        oracle = tie_fill(DictOracle(name="pass"), docs)
        index = tie_fill(InvertedIndex(name="pass"), docs)
        assert_one_pass(index, oracle, queries)

    def test_equals_the_parent_after_bursts_of_writes(self):
        rng = random.Random(32)
        oracle = DictOracle(name="pass")
        index = InvertedIndex(name="pass")
        texts = [" ".join(rng.choices(PASS_WORDS, k=3)) for _ in range(10)]
        tie_fill(index, texts)
        tie_fill(oracle, texts)
        live = {f"doc{n:02d}": text for n, text in enumerate(texts)}
        for _ in range(12):
            write_burst(rng, index, oracle, live)
            # read through the burst's views, then compacted: the parent's
            # kernels read a seal's CSR arrays
            depths = range(len(live) + 6)
            through_views = member_rankings(index, BURST_QUERIES, depths)
            index.seal()
            assert_one_pass(index, oracle, BURST_QUERIES)
            assert member_rankings(
                index, BURST_QUERIES, depths
            ) == through_views
        assert len(live) > 3, "vacuous: the bursts emptied the index"

    @pytest.mark.parametrize(
        "depth", ["0", "1", "3", "m-1", "m", "m+1", "corpus+5"]
    )
    def test_k_around_the_match_count(self, depth):
        index = fill(InvertedIndex(name="pass"), docs=40)
        oracle = fill(DictOracle(name="pass"), docs=40)
        queries = campaign(12, seed=19)
        for query in queries:
            m = len(oracle.search(query, 41))
            k = {
                "0": 0, "1": 1, "3": 3, "m-1": m - 1, "m": m, "m+1": m + 1,
                "corpus+5": 45,
            }[depth]
            assert_as_the_parent(index, [query], k)
            assert_as_the_parent(index, queries, k)
            assert pairs(index.search(query, k)) == pairs(
                oracle.search(query, k)
            )

    def test_repeated_query_tokens_scale_their_block(self, monkeypatch):
        index = build_index().seal()
        sealed = index._sealed
        base = sealed.base
        contrib_flat = contrib_table(index, sealed)
        spy = BincountSpy(monkeypatch)
        ranked = index.rank_batch(["dog dog dog fox"], 5)
        (cells, weights, minlength), = spy.calls
        assert minlength == len(DOCS)
        blocks = []
        for token in ("dog", "fox"):  # sorted token order
            i = sealed.tok_pos[token]
            blocks.append(slice(base.tok_start[i], base.tok_start[i + 1]))
        dog, fox = blocks
        assert cells.tolist() == (
            base.doc_idx[dog].tolist() + base.doc_idx[fox].tolist()
        )
        # three times the dog block, the fox block as the table has it
        assert [w.hex() for w in weights.tolist()] == [
            w.hex() for w in (contrib_flat[dog] * 3).tolist()
            + contrib_flat[fox].tolist()
        ]
        assert exact(ranked) == exact(parent_score_matrix(
            index, sealed, index.plan_matrix(["dog dog dog fox"]), 5
        ))

    def test_empty_and_absent_queries_make_no_pass(
        self, monkeypatch
    ):
        index = fill(InvertedIndex(name="pass"), docs=40).seal()
        spy = BincountSpy(monkeypatch)
        nothing = ["", "absent tokens only", "the of and"]
        assert index.rank_batch(nothing, 3) == [([], [])] * 3
        assert spy.calls == []
        ranked = index.rank_batch(nothing + ["kamex"], 3)
        assert ranked[:3] == [([], [])] * 3 and ranked[3][0]
        assert index.local_df("kamex") >= 1
        assert len(spy.calls) == 1

    def test_one_pass_per_query_each_over_its_postings(
        self, monkeypatch
    ):
        index = fill(InvertedIndex(name="pass"), docs=40).seal()
        queries = campaign(12, seed=23) + EDGE_QUERIES
        expected = []
        for query in queries:
            cells, weights = query_stream(index, query)
            if cells:
                expected.append((cells, weights, len(index)))
        spy = BincountSpy(monkeypatch)
        index.rank_batch(queries, 3)
        assert [
            (cells.tolist(), weights.tolist(), minlength)
            for cells, weights, minlength in spy.calls
        ] == expected
        assert len(expected) > 12, "vacuous: few queries matched"

    def test_stream_postings_are_counted_once_per_call(self, monkeypatch):
        index = fill(InvertedIndex(name="pass"), docs=40).seal()
        queries = campaign(12, seed=29)
        amounts = []
        postings = get_registry().counter("index.matrix.stream_postings")
        real_inc = postings.inc
        monkeypatch.setattr(
            postings, "inc",
            lambda amount=1: (amounts.append(amount), real_inc(amount)),
        )
        index.rank_batch(queries, 3)
        assert amounts == [
            sum(len(query_stream(index, q)[0]) for q in queries)
        ]
        assert "index.matrix.tiles" not in get_registry().instruments()

    def test_a_span_is_derived_by_its_first_read(self, monkeypatch):
        index = fill(InvertedIndex(name="pass"), docs=40).seal()
        oracle = fill(DictOracle(name="pass"), docs=40)
        sealed = index._sealed
        base = sealed.base
        assert sealed.spans == {}
        spy = SpanSpy(monkeypatch)
        index.search("kamex kamex rotax absent", 3)
        assert sorted(sealed.spans) == ["kamex", "rotax"]  # not "absent"
        assert spy.seals == [[sealed, 2]]
        table = contrib_table(index, sealed)
        for token, ((cells,), values) in sealed.spans.items():
            i = sealed.tok_pos[token]
            block = slice(base.tok_start[i], base.tok_start[i + 1])
            assert np.shares_memory(cells, base.doc_idx)  # a view
            assert cells.tolist() == base.doc_idx[block].tolist()
            # the token's own contributions, as the oracle's table has them
            assert values.size == cells.size
            assert [v.hex() for v in values.tolist()] == [
                v.hex() for v in table[block].tolist()
            ]
        index.search_batch(["rotax kamex", "kamex"], 3)
        assert spy.seals == [[sealed, 2]]  # derived once a seal
        replace(index, oracle, "doc0003", "rotax merox")
        assert index.seal()._sealed.spans == {}  # a new seal, a new cache
        assert sorted(sealed.spans) == ["kamex", "rotax"]


# ---------------------------------------------------------------------------
# the span cache under racing first readers and between writes
# ---------------------------------------------------------------------------
class SpanSpy:
    """Counts, per seal, the span entries filled, at each fill's one
    ``note_write(seal, "spans")`` under the seal lock.

    Holds every seal it counts and tells them apart by identity, not by
    ``id()``: a seal collected in one round could hand its address to
    the next round's, and the two counts would add up."""

    def __init__(self, monkeypatch):
        self.seals = []  # [seal, fills] per seal, in first-fill order
        self._note_write = sanitizer.note_write
        monkeypatch.setattr(sanitizer, "note_write", self)

    def __call__(self, owner, field_name, lock=None):
        if field_name == "spans":
            for entry in self.seals:
                if entry[0] is owner:
                    entry[1] += 1
                    break
            else:
                self.seals.append([owner, 1])
        self._note_write(owner, field_name, lock=lock)

    def fills(self, seal):
        """Span entries filled on ``seal``."""
        return sum(count for owner, count in self.seals if owner is seal)


def known_tokens(index, queries):
    sealed = index._sealed
    return sorted({
        token for terms in index.plan_matrix(queries).terms
        for token, _ in terms if token in sealed.tok_pos
    })


class TestSpanHammer:
    """``make sanitize`` runs these under the lockset sanitizer."""

    def test_first_readers_of_a_fresh_seal_fill_each_span_once(
        self, monkeypatch
    ):
        index = fill(InvertedIndex(name="spans"), docs=300)
        oracle = fill(DictOracle(name="spans"), docs=300)
        queries = campaign(6, seed=37)
        rng = random.Random(41)
        spy = SpanSpy(monkeypatch)
        for round_no in range(6):
            text = corpus_text(rng)
            replace(index, oracle, f"doc{round_no * 11:04d}", text)
            sealed = index.seal()._sealed  # published, no span yet
            assert sealed.spans == {}
            expected = [pairs(oracle.search(q, 7)) for q in queries]

            def read(number):
                # each reader starts on another query, so first reads of
                # one token happen on several threads
                order = queries[number:] + queries[:number]
                got = dict(zip(order, index.search_batch(order, 7)))
                return [pairs(got[q]) for q in queries]

            assert race(4, read) == [expected] * 4
            assert index._sealed is sealed
            tokens = known_tokens(index, queries)
            assert sorted(sealed.spans) == tokens
            assert spy.fills(sealed) == len(tokens)  # once a token
            for (cells,), _ in sealed.spans.values():
                assert np.shares_memory(cells, sealed.base.doc_idx)

    def test_no_span_a_write_moved_is_read_from_a_superseded_view(self):
        """write -> read -> write -> read: after each write the next view
        is published, and every span of the superseded views that it
        does not share is poisoned with NaN, so a read of any of them
        could not equal the reference scorer.  Every other write keeps
        the document count and the total length, so the next view
        inherits what the write did not touch."""
        index = fill(InvertedIndex(name="stale"), docs=60)
        oracle = fill(DictOracle(name="stale"), docs=60)
        queries = campaign(8, seed=43) + ["kamex kamex rotax"]
        rng = random.Random(47)
        held = []  # every view published so far
        inherited = 0
        for step in range(8):
            if step % 2:  # a same-length update: the statistics stay
                name = sorted(oracle.lengths)[step]
                text = " ".join(
                    pseudo_word(rng.randrange(25))
                    for _ in range(oracle.lengths[name])
                )
                replace(index, oracle, name, text)
            elif step:
                write_burst(rng, index, oracle, {
                    name: "" for name in oracle.lengths
                })
            current = index._current_seal()
            shared = {id(values) for _, values in current.spans.values()}
            inherited += len(shared)
            for sealed in held:  # superseded: poison what it alone holds
                assert sealed is not current
                for _, values in sealed.spans.values():
                    if id(values) not in shared:
                        values[:] = np.nan
            held.append(current)
            assert [pairs(h) for h in index.search_batch(queries, 5)] == [
                pairs(oracle.search(q, 5)) for q in queries
            ], step
            assert [pairs(index.search(q, 5)) for q in queries] == [
                pairs(oracle.search(q, 5)) for q in queries
            ], step
        assert inherited, "vacuous: no view inherited a span"
