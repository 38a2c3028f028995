"""Differential proofs behind the read-once rerank and semantic-search path.

``Reranker.rerank`` reads its query once and each payload once (a
bounded per-reranker LRU keyed on the payload text), ``TokenEmbedder``
embeds each token once into a vocabulary matrix, ``FlatVectorIndex``
keeps its row norms beside its column-major table, every vector index
selects its top-k through one ``argpartition`` helper, the vectorizers
digest a token once, and ``levenshtein`` strips shared ends.  None of
that may move one hit or the last bit of one score: every test here
compares with an oracle that does the work the slow way — the per-pair
``score()`` bodies, the per-call token sums, the dict + ``top_k`` vector
search and the ``min()`` edit-distance table as they stood at 7d8a447,
kept below (the flat index's cosine as restated for ISSUE 23, with the
old expression beside it as a bound) — and with a digest of a whole
campaign's stage lists.
"""

import contextlib
import hashlib
import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.core.reranker import RerankerModule
from repro.datalake.lake import DataLake
from repro.datalake.serialize import parse_row, serialize_instance
from repro.datalake.types import Modality
from repro.embed import token_embed, vectorizers
from repro.embed.token_embed import TokenEmbedder, _feature_vector
from repro.embed.vectorizers import (
    HashingVectorizer,
    TfidfVectorizer,
    _hash_index_sign,
)
from repro.index.base import SearchHit, top_k
from repro.index.hnsw import HNSWIndex
from repro.index.ivf import IVFFlatIndex
from repro.index.shard import ShardedVectorIndex, merge_shard_hits
from repro.index.vector import FlatVectorIndex, top_hits
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.obs.metrics import get_registry
from repro.rerank import base as rerank_base
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.features import FeatureReranker
from repro.rerank.table import TableReranker
from repro.rerank.tuples import TupleReranker
from repro.text import analyze, normalize
from repro.text.numbers import numbers_in, parse_number, years_in
from repro.text.similarity import (
    jaccard,
    levenshtein,
    ngrams,
    trigram_similarity,
)
from repro.verify.objects import ClaimObject, TupleObject
from repro.workloads.claimwl import build_claim_workload
from repro.workloads.tuplecomp import build_tuple_workload

#: sha256 over the coarse + rerank stage lists (ids and ``float.hex``
#: scores) of ``run_campaign(small_bundle)``.  It moves only if the lake
#: or workload generators, an index, the Combiner or a reranker changes
#: a hit; regenerate with ``stage_digest(*run_campaign(small_bundle))``.
#: Recorded at 7d8a447 (the last commit that re-read the query per
#: candidate and re-ranked the whole vector index through a dict) as
#: ``1d072a85...``, which pinned the last bits of that host's
#: ``matrix @ vector`` kernel; re-pinned once, for ISSUE 23, when the
#: flat index's cosine became the fixed-order sum of
#: ``reference_scores``.  Measured scope of that move on this campaign's
#: 480 stage lists: semantic scores by <= 1e-15, so the coarse lists
#: change order inside groups of equal cosines on 104 of 240 and
#: membership across the cut on 8; all 240 rerank lists and all 100
#: verdicts are identical (on the bench: reranked top-3 on 0 of 200).
PARENT_DIGEST = (
    "bb2f0afef82bdbca0249d7ec2a073fef6b2b429bd571c468766a19db132389a7"
)


# ----------------------------------------------------------------------
# oracles: the scoring code as it stood at 7d8a447
# ----------------------------------------------------------------------
def reference_levenshtein(a, b):
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def reference_levenshtein_ratio(a, b):
    if not a and not b:
        return 1.0
    return 1.0 - reference_levenshtein(a, b) / max(len(a), len(b))


class ReferenceEmbedder:
    """``TokenEmbedder`` as it was: every call of ``embed_token`` sums
    the token's n-gram feature vectors again."""

    def __init__(self, dim=64, min_n=3, max_n=4, salt="tok"):
        self.dim, self.min_n, self.max_n, self.salt = dim, min_n, max_n, salt
        self._feature_cache = {}

    def _feature(self, feature):
        vec = self._feature_cache.get(feature)
        if vec is None:
            vec = _feature_vector(feature, self.dim, self.salt)
            self._feature_cache[feature] = vec
        return vec

    def embed_token(self, token):
        features = [f"<{token}>"]
        for n in range(self.min_n, self.max_n + 1):
            features.extend(sorted(ngrams(token, n)))
        acc = np.zeros(self.dim, dtype=np.float64)
        for feature in features:
            acc += self._feature(feature)
        norm = np.linalg.norm(acc)
        if norm > 0:
            acc /= norm
        return acc

    def embed_tokens(self, tokens):
        if not tokens:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.vstack([self.embed_token(token) for token in tokens])


def reference_colbert(embedder, token_weight=None, normalize_by_length=True):
    def score(query, payload):
        query_tokens = analyze(query)
        query_matrix = embedder.embed_tokens(query_tokens)
        doc_matrix = embedder.embed_tokens(analyze(payload))
        if query_matrix.shape[0] == 0 or doc_matrix.shape[0] == 0:
            return 0.0
        max_sims = (query_matrix @ doc_matrix.T).max(axis=1)
        if token_weight is not None:
            weights = np.array([token_weight(token) for token in query_tokens])
            total = float((max_sims * weights).sum())
            denom = float(weights.sum()) or 1.0
        else:
            total = float(max_sims.sum())
            denom = float(query_matrix.shape[0])
        return total / denom if normalize_by_length else total

    return score


def reference_value_similarity(a, b):
    num_a, num_b = parse_number(a), parse_number(b)
    if num_a is not None and num_b is not None:
        if num_a == num_b:
            return 1.0
        denom = max(abs(num_a), abs(num_b), 1.0)
        return max(0.0, 1.0 - abs(num_a - num_b) / denom)
    return reference_levenshtein_ratio(normalize(a), normalize(b))


def reference_tuple_pair(query, payload, aligned_weight=0.7, bag_weight=0.3):
    query_fields = parse_row(query)
    payload_fields = parse_row(payload)
    bag_score = jaccard(analyze(query), analyze(payload))
    if not query_fields or not payload_fields:
        return bag_score
    payload_by_norm = {
        normalize(column): value for column, value in payload_fields.items()
    }
    sims = []
    for column, value in query_fields.items():
        other = payload_by_norm.get(normalize(column))
        if other is None:
            continue
        sims.append(reference_value_similarity(value, other))
    aligned_score = sum(sims) / len(sims) if sims else 0.0
    return aligned_weight * aligned_score + bag_weight * bag_score


def reference_opentfv(query, payload):
    lines = payload.splitlines()
    if not lines:
        return 0.0
    caption = lines[0] if " | " not in lines[0] else ""
    header = ""
    body_lines = []
    for line in lines[1:] if caption else lines:
        if " | " in line and not header:
            header = line
        elif " | " in line:
            body_lines.append(line)
    claim_tokens = set(analyze(query))
    if not claim_tokens:
        return 0.0
    caption_tokens = set(analyze(caption))
    caption_score = (
        len(claim_tokens & caption_tokens) / len(caption_tokens)
        if caption_tokens else 0.0
    )
    header_tokens = set(analyze(header))
    schema_score = (
        len(claim_tokens & header_tokens) / len(header_tokens)
        if header_tokens else 0.0
    )
    cell_tokens = set(analyze(" ".join(body_lines)))
    grounding = (
        len(claim_tokens & (cell_tokens | caption_tokens | header_tokens))
        / len(claim_tokens)
    )
    score = 0.4 * caption_score + 0.2 * schema_score + 0.4 * grounding
    claim_years = years_in(query)
    caption_years = years_in(caption)
    if claim_years and caption_years and not claim_years & caption_years:
        score -= 0.5
    return score


def reference_features(query, payload):
    query_tokens = set(analyze(query))
    payload_tokens = set(analyze(payload))
    coverage = (
        len(query_tokens & payload_tokens) / len(query_tokens)
        if query_tokens else 0.0
    )
    query_numbers = set(numbers_in(query))
    payload_numbers = set(numbers_in(payload))
    number_overlap = (
        len(query_numbers & payload_numbers) / len(query_numbers)
        if query_numbers else 0.0
    )
    return (
        0.4 * jaccard(query_tokens, payload_tokens)
        + 0.4 * coverage
        + 0.1 * trigram_similarity(query[:200], payload[:200])
        + 0.1 * number_overlap
    )


def reference_rerank(score, name, query, candidates, fetch, k):
    """``Reranker.rerank`` as it was: one ``score(query, payload)`` call
    per candidate."""
    scored = [
        SearchHit(score(query, fetch(hit.instance_id)), hit.instance_id, name)
        for hit in candidates
    ]
    scored.sort(key=lambda hit: (-hit.score, hit.instance_id))
    return scored[: max(k, 0)]


def as_pairs(hits):
    """What must not move: ids, scores to the bit, and the index name."""
    return [(hit.instance_id, hit.score, hit.index_name) for hit in hits]


# ----------------------------------------------------------------------
# the rerankers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def texts(small_bundle):
    """A seeded pool of payloads of every shape a reranker is handed,
    and queries of both object types."""
    rng = random.Random(13)
    tables = small_bundle.tables[:12]
    rows = [
        table.row(rng.randrange(table.num_rows))
        for table in tables for _ in range(3)
    ]
    documents = sorted(small_bundle.lake.documents(), key=lambda d: d.doc_id)
    payloads = [serialize_instance(row) for row in rows]
    payloads += [serialize_instance(table) for table in tables[:8]]
    payloads += [serialize_instance(doc) for doc in documents[:16]]
    payloads += [
        "", "no separator here", "name: ada ; broken", "Name: Ada ; name: bob",
        "year: 1959 ; gold: 3", "a | b\n1 | 2", payloads[0], payloads[40],
    ]
    queries = [serialize_instance(row) for row in rows[::5]]
    queries += [
        serialize_instance(
            rows[1].replace_value(rows[1].columns[-1], "999,999")
        ),
        "name: Ada ; NAME: bob ; year: 1,959",
    ]
    queries += [
        task.claim.text
        for task in build_claim_workload(small_bundle, num_claims=6, seed=3)
    ]
    queries += ["", "the", "gold in 1959 was 3", tables[0].caption]
    return queries, payloads


def idf_like(token):
    return 1.0 + len(token) % 4


CASES = {
    "colbert": (
        LateInteractionReranker,
        lambda: reference_colbert(ReferenceEmbedder()),
    ),
    "colbert-weighted": (
        lambda: LateInteractionReranker(
            token_weight=idf_like, normalize_by_query_length=False
        ),
        lambda: reference_colbert(
            ReferenceEmbedder(), idf_like, normalize_by_length=False
        ),
    ),
    "tuple-pair": (TupleReranker, lambda: reference_tuple_pair),
    "opentfv": (TableReranker, lambda: reference_opentfv),
    "features": (FeatureReranker, lambda: reference_features),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, texts):
    """(make reranker, expected rerank of every query at three depths)."""
    make, make_reference = CASES[request.param]
    queries, payloads = texts
    reference = make_reference()
    hits = [
        SearchHit(1.0 / (1 + position), f"p{position:03d}")
        for position in range(len(payloads))
    ]
    fetch = {hit.instance_id: payloads[i] for i, hit in enumerate(hits)}
    name = make().name
    expected = {
        (query, k): as_pairs(
            reference_rerank(reference, name, query, hits, fetch.__getitem__, k)
        )
        for query in queries for k in (0, 5, len(hits) + 3)
    }
    return make, reference, hits, fetch.__getitem__, expected


def rerank_all(reranker, hits, fetch, expected):
    return {
        (query, k): as_pairs(reranker.rerank(query, hits, fetch, k))
        for query, k in expected
    }


class TestRerankEqualsThePerPairLoop:
    def test_cold_and_warm(self, case):
        make, _, hits, fetch, expected = case
        reranker = make()
        assert rerank_all(reranker, hits, fetch, expected) == expected
        assert 0 < len(reranker._readings) <= rerank_base.READINGS_SIZE
        assert rerank_all(reranker, hits, fetch, expected) == expected

    def test_after_eviction(self, case, monkeypatch):
        make, _, hits, fetch, expected = case
        monkeypatch.setattr(rerank_base, "READINGS_SIZE", 3)
        reranker = make()
        assert rerank_all(reranker, hits, fetch, expected) == expected
        assert len(reranker._readings) == 3
        # an evicted payload is read again, to the same reading
        assert rerank_all(reranker, hits, fetch, expected) == expected

    def test_score_is_the_one_candidate_case(self, case, texts):
        make, reference, hits, fetch, _ = case
        queries, _ = texts
        reranker = make()
        for query in queries:
            for hit in hits[::3]:
                payload = fetch(hit.instance_id)
                assert reranker.score(query, payload) == reference(
                    query, payload
                ), (query, payload)

    def test_the_expectations_discriminate(self, case):
        _, _, hits, _, expected = case
        scores = {
            score for (_, k), ranked in expected.items() if k > 5
            for _, score, _ in ranked
        }
        assert len(scores) > len(hits)

    def test_a_payload_is_read_once(self, case, texts):
        make, _, hits, fetch, expected = case
        reranker = make()
        read = []
        original = reranker._read_payload
        reranker._read_payload = lambda payload: (
            read.append(payload), original(payload)
        )[1]
        rerank_all(reranker, hits, fetch, expected)
        assert sorted(read) == sorted(set(texts[1]))

    def test_readings_are_per_reranker(self, case):
        make, _, hits, fetch, _ = case
        a, b = make(), make()
        a.rerank("ada", hits[:4], fetch, 2)
        assert a._readings and not b._readings

    def test_features_reads_through_the_same_code(self, texts):
        queries, payloads = texts
        reranker = FeatureReranker()
        values = reranker.features(queries[0], payloads[0])
        weights = reranker.weights
        assert reranker.score(queries[0], payloads[0]) == (
            weights.token_jaccard * values["token_jaccard"]
            + weights.query_coverage * values["query_coverage"]
            + weights.trigram * values["trigram"]
            + weights.number_overlap * values["number_overlap"]
        )


class TestTokenEmbedder:
    TOKENS = ["ohio", "elect", "election", "1,234", "1234", "a", "ohio", ""]

    def test_rows_equal_the_per_call_sum(self):
        reference = ReferenceEmbedder(dim=32)
        embedder = TokenEmbedder(dim=32)
        for _ in range(2):
            matrix = embedder.embed_tokens(self.TOKENS)
            assert matrix.tolist() == reference.embed_tokens(self.TOKENS).tolist()
        for token in self.TOKENS:
            assert (
                embedder.embed_token(token).tolist()
                == reference.embed_token(token).tolist()
            )

    def test_one_row_per_distinct_token(self):
        embedder = TokenEmbedder(dim=32)
        rows = embedder.token_rows(self.TOKENS)
        assert rows.dtype == np.int32
        assert rows[0] == rows[6]
        assert len(set(rows.tolist())) == len(set(self.TOKENS))
        assert embedder.token_rows(self.TOKENS).tolist() == rows.tolist()
        assert embedder.vectors(rows).shape == (len(self.TOKENS), 32)

    def test_nothing_is_allocated_until_a_token_arrives(self):
        embedder = TokenEmbedder(dim=32)
        assert embedder._table is None
        assert embedder.embed_tokens([]).shape == (0, 32)
        assert embedder._table is None

    def test_growth_keeps_every_row(self, monkeypatch):
        monkeypatch.setattr(token_embed, "_INITIAL_ROWS", 2)
        reference = ReferenceEmbedder(dim=16)
        embedder = TokenEmbedder(dim=16)
        tokens = [f"tok{i}" for i in range(23)]
        early = embedder.token_rows(tokens[:3])
        embedder.token_rows(tokens)
        assert embedder._table.shape[0] >= 23
        assert (
            embedder.vectors(early).tolist()
            == reference.embed_tokens(tokens[:3]).tolist()
        )
        assert (
            embedder.embed_tokens(tokens).tolist()
            == reference.embed_tokens(tokens).tolist()
        )

    def test_a_small_feature_cache_changes_no_vector(self, monkeypatch):
        monkeypatch.setattr(token_embed, "FEATURES_SIZE", 4)
        reference = ReferenceEmbedder(dim=16)
        embedder = TokenEmbedder(dim=16)
        tokens = ["election", "elections", "elected", "selection"]
        assert (
            embedder.embed_tokens(tokens).tolist()
            == reference.embed_tokens(tokens).tolist()
        )
        assert len(embedder._feature_cache) == 4

    def test_callers_cannot_write_to_the_vocabulary(self):
        embedder = TokenEmbedder(dim=8)
        embedder.embed_token("ohio")[:] = 0.0
        embedder.embed_tokens(["ohio"])[:] = 0.0
        assert np.linalg.norm(embedder.embed_token("ohio")) == pytest.approx(1.0)


class TestLevenshtein:
    def test_equals_the_full_table_on_seeded_pairs(self):
        rng = random.Random(4)
        alphabet = "abc -1"
        for _ in range(4000):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(12)))
            assert levenshtein(a, b) == reference_levenshtein(a, b), (a, b)

    @pytest.mark.parametrize("a,b", [
        ("", ""), ("", "abc"), ("abc", ""), ("abc", "abc"),
        ("lost re-electionx", "lost re-election"), ("xabc", "abc"),
        ("abcabc", "abc"), ("aaaa", "aa"), ("abXcd", "abYYcd"), ("ab", "ba"),
        ("prefix-only-a", "prefix-only-b"), ("a-shared-end", "b-shared-end"),
    ])
    def test_shared_ends(self, a, b):
        assert levenshtein(a, b) == reference_levenshtein(a, b)
        assert levenshtein(b, a) == reference_levenshtein(b, a)


class TestVectorizerMemo:
    TEXTS = [
        "tom jenkins was re-elected in ohio in 1950",
        "ohio ohio ohio votes votes 102,000",
        "", "the of and",
        "an unrelated sentence about basketball rebounds in chicago",
    ]

    @staticmethod
    def reference_vector(tokens, dim, salt, weight):
        vec = np.zeros(dim, dtype=np.float64)
        for token, count in Counter(tokens).items():
            index, sign = _hash_index_sign(token, dim, salt)
            vec[index] += sign * weight(token, count)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    @pytest.mark.parametrize("memo_size", [65536, 2, 0])
    def test_same_vectors_bit_for_bit(self, memo_size, monkeypatch):
        monkeypatch.setattr(vectorizers, "HASH_MEMO_SIZE", memo_size)
        hashing = HashingVectorizer(dim=16)
        tfidf = TfidfVectorizer(dim=16).fit(self.TEXTS)
        for _ in range(2):
            for text in self.TEXTS:
                tokens = analyze(text)
                assert hashing.transform(text).tolist() == self.reference_vector(
                    tokens, 16, "hv", lambda _, n: 1.0 + math.log(n)
                ).tolist()
                assert tfidf.transform(text).tolist() == self.reference_vector(
                    tokens, 16, "tfidf",
                    lambda t, n: (1.0 + math.log(n)) * tfidf.idf(t),
                ).tolist()
        assert len(hashing._slots) <= memo_size
        assert len(tfidf._slots) <= memo_size

    def test_one_digest_per_distinct_token(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            vectorizers, "_hash_index_sign",
            lambda *args: (calls.append(args), _hash_index_sign(*args))[1],
        )
        vectorizer = HashingVectorizer(dim=16)
        for text in self.TEXTS * 3:
            vectorizer.transform(text)
        distinct = {token for text in self.TEXTS for token in analyze(text)}
        assert len(calls) == len(distinct)


# ----------------------------------------------------------------------
# the vector indexes
# ----------------------------------------------------------------------
#: how far a cosine may sit from the ``matrix @ vector`` it used to be
GEMV_BOUND = 1e-15


def cosine_norms(matrix, vector):
    norms = np.linalg.norm(matrix, axis=1) * (np.linalg.norm(vector) or 1.0)
    norms[norms == 0] = 1.0
    return norms


def helper_scores(metric, matrix, vector):
    """``VectorIndex._scores_against`` as it was: row norms recomputed
    for every query.  The IVF index's oracle; for the flat index's
    cosine, a bound (``assert_within_the_gemv_bound``)."""
    if metric == "cosine":
        return (matrix @ vector) / cosine_norms(matrix, vector)
    diff = matrix - vector
    return -np.sqrt(np.einsum("ij,ij->i", diff, diff))


def reference_scores(metric, matrix, vector):
    """What a row of the row-major ``matrix`` scores in the flat index.
    Cosine, since ISSUE 23: the pure-Python sum ``((q[b0]*m[b0]) +
    q[b1]*m[b1]) + ...`` over the query's non-zero buckets in ascending
    order, over the norm expression the index always used — a function
    of one row and the query, so no BLAS build, batch or shard can move
    a bit of it.  L2: the helper, as ever."""
    if metric == "cosine":
        weights = vector.tolist()
        buckets = [bucket for bucket, weight in enumerate(weights) if weight]
        columns = {bucket: matrix[:, bucket].tolist() for bucket in buckets}
        dots = []
        for row in range(matrix.shape[0]):
            total = 0.0
            for bucket in buckets:
                total = total + weights[bucket] * columns[bucket][row]
            dots.append(total)
        return np.array(dots) / cosine_norms(matrix, vector)
    return helper_scores(metric, matrix, vector)


def assert_within_the_gemv_bound(ids, matrix, vector, scores):
    """The cosine as it was until ISSUE 23 — ``matrix @ vector``, whose
    last bits are the BLAS kernel's — kept as a *bound*: every score
    within ``GEMV_BOUND`` of it, and the full ranking the same ids up to
    permutation inside runs of scores that agree to that tolerance."""
    gemv = helper_scores("cosine", matrix, vector)
    assert np.abs(scores - gemv).max() <= GEMV_BOUND
    ranked = sorted(zip((-scores).tolist(), ids))
    was = sorted(zip((-gemv).tolist(), ids))
    start = 0
    for end in range(1, len(was) + 1):
        if end == len(was) or was[end][0] - was[end - 1][0] > GEMV_BOUND:
            assert {i for _, i in ranked[start:end]} == {
                i for _, i in was[start:end]
            }
            start = end


def reference_flat(index, vector, k):
    """``FlatVectorIndex.search_vector`` the slow way: an id -> score
    dict over the whole index as a row-major matrix, then ``top_k``."""
    vector = index._check_vector(vector)
    matrix = np.ascontiguousarray(index._get_matrix())
    if matrix.shape[0] == 0 or k <= 0:
        return []
    scores = reference_scores(index.metric, matrix, vector)
    if index.metric == "cosine":
        assert_within_the_gemv_bound(index._ids, matrix, vector, scores)
    score_map = {
        index._ids[i]: float(scores[i]) for i in range(len(index._ids))
    }
    return top_k(score_map, k, index.name)


def reference_ivf(index, vector, k):
    vector = index._check_vector(vector)
    if not index._rows or k <= 0:
        return []
    if not index.is_trained:
        index.train()
    centroid_dist = np.linalg.norm(index._centroids - vector, axis=1)
    candidate_rows = []
    for cell in np.argsort(centroid_dist)[: index.nprobe]:
        candidate_rows.extend(index._cells.get(int(cell), ()))
    if not candidate_rows:
        return []
    matrix = np.vstack([index._rows[i] for i in candidate_rows])
    scores = helper_scores(index.metric, matrix, vector)
    score_map = {
        index._ids[row]: float(scores[pos])
        for pos, row in enumerate(candidate_rows)
    }
    return top_k(score_map, k, index.name)


def reference_hnsw(index, vector, k):
    vector = index._check_vector(vector)
    if index._entry_point is None or k <= 0:
        return []
    entry = index._entry_point
    for layer in range(index._node_level[entry], 0, -1):
        entry = index._greedy_search(vector, entry, layer)
    found = index._search_layer(vector, entry, 0, max(index.ef_search, k))
    score_map = {}
    for dist, node in found:
        if index.metric == "cosine":
            score_map[index._ids[node]] = 1.0 - dist
        else:
            score_map[index._ids[node]] = -dist
    return top_k(score_map, k, index.name)


def seeded_vectors(dim=12, count=90, seed=8):
    """Vectors with what breaks a careless top-k: runs of identical rows
    (equal scores, so the id order decides), an all-zero row, and ids
    inserted out of order."""
    rng = np.random.default_rng(seed)
    vectors = []
    for position in range(count):
        if position % 9 == 4:
            vector = vectors[position - 3][1]  # a duplicate payload
        elif position == 30:
            vector = np.zeros(dim)
        else:
            vector = rng.standard_normal(dim)
        vectors.append((f"v{(position * 37) % count:03d}", vector))
    queries = [rng.standard_normal(dim) for _ in range(6)]
    queries += [np.zeros(dim), vectors[1][1], vectors[4][1] * 3.0]
    return vectors, queries


def filled(index, vectors):
    for instance_id, vector in vectors:
        index.add_vector(instance_id, vector)
    return index


DEPTHS = (0, 1, 2, 3, 7, 10, 89, 90, 95)


@pytest.mark.parametrize("metric", ["cosine", "l2"])
class TestVectorSearchEqualsTheDictAndHeap:
    def test_flat(self, metric):
        vectors, queries = seeded_vectors()
        index = filled(FlatVectorIndex(dim=12, metric=metric), vectors)
        for query in queries:
            for k in DEPTHS:
                assert as_pairs(index.search_vector(query, k)) == as_pairs(
                    reference_flat(index, query, k)
                ), k

    def test_ivf(self, metric):
        vectors, queries = seeded_vectors()
        index = filled(
            IVFFlatIndex(dim=12, nlist=6, nprobe=3, metric=metric), vectors
        )
        for query in queries:
            for k in DEPTHS:
                assert as_pairs(index.search_vector(query, k)) == as_pairs(
                    reference_ivf(index, query, k)
                ), k

    def test_hnsw(self, metric):
        vectors, queries = seeded_vectors()
        index = filled(HNSWIndex(dim=12, m=4, metric=metric), vectors)
        for query in queries:
            for k in DEPTHS:
                assert as_pairs(index.search_vector(query, k)) == as_pairs(
                    reference_hnsw(index, query, k)
                ), k

    def test_sharded(self, metric):
        """Every shard against its own oracle, gathered the way
        ``ShardedVectorIndex`` gathers — and, a row's score being a
        function of that row and the query alone, against the oracle of
        one monolithic index."""
        vectors, queries = seeded_vectors()
        by_text = {f"q{i}": query for i, query in enumerate(queries)}
        sharded = ShardedVectorIndex(
            3, dim=12, encoder=by_text.__getitem__, metric=metric, name="vec"
        )
        for instance_id, vector in vectors:
            sharded.shard_for(instance_id).add_vector(instance_id, vector)
        whole = filled(
            FlatVectorIndex(dim=12, metric=metric, name="vec"), vectors
        )
        for k in DEPTHS:
            batch = sharded.search_batch(list(by_text), k)
            for text, hits in zip(by_text, batch):
                expected = merge_shard_hits(
                    [
                        reference_flat(shard, by_text[text], k)
                        for shard in sharded.shards
                    ],
                    k, "vec",
                )
                assert as_pairs(hits) == as_pairs(expected), k
                assert as_pairs(hits) == as_pairs(
                    reference_flat(whole, by_text[text], k)
                ), k
                assert as_pairs(sharded.search(text, k)) == as_pairs(hits)

    def test_norms_follow_the_matrix(self, metric):
        vectors, queries = seeded_vectors()
        index = filled(FlatVectorIndex(dim=12, metric=metric), vectors[:40])
        rng = random.Random(2)
        live = [instance_id for instance_id, _ in vectors[:40]]
        spare = list(vectors[40:])
        for step in range(30):
            if step % 3 == 2 and spare:
                instance_id, vector = spare.pop()
                index.add_vector(instance_id, vector)
                live.append(instance_id)
            else:
                index.remove_vector(live.pop(rng.randrange(len(live))))
            query = queries[step % len(queries)]
            assert as_pairs(index.search_vector(query, 7)) == as_pairs(
                reference_flat(index, query, 7)
            )
            assert len(index._get_matrix()) == len(live)


class TestVectorEdges:
    def test_empty_index(self):
        index = FlatVectorIndex(dim=4, encoder=lambda text: np.ones(4))
        assert index.search_vector(np.ones(4), 5) == []
        assert index.search("q", 5) == []
        assert index.search_batch(["a", "b"], 5) == [[], []]
        assert index.search_batch([], 5) == []

    def test_a_tie_across_the_kth_place_goes_to_the_smaller_id(self):
        index = FlatVectorIndex(dim=2)
        for instance_id in ("d", "b", "e", "a", "c"):
            index.add_vector(instance_id, np.array([1.0, 0.0]))
        index.add_vector("z-best", np.array([2.0, 0.1]))
        index.add_vector("y-worst", np.array([-1.0, 0.0]))
        query = np.array([1.0, 0.05])
        ranked = [hit.instance_id for hit in index.search_vector(query, 7)]
        assert ranked == ["z-best", "a", "b", "c", "d", "e", "y-worst"]
        for k in range(8):
            assert [
                hit.instance_id for hit in index.search_vector(query, k)
            ] == ranked[:k]

    def test_top_hits_over_a_subset_names_the_right_rows(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1])
        ids = ["a", "b", "c", "d", "e", "f"]
        hits = top_hits(scores, ids, 3, "sub", rows=[5, 0, 2, 1])
        assert as_pairs(hits) == [
            ("a", 0.9, "sub"), ("c", 0.5, "sub"), ("f", 0.5, "sub"),
        ]
        assert top_hits(scores, ids, 0, "sub") == []
        assert top_hits(np.array([]), [], 3, "sub") == []

    def test_search_batch_is_the_per_query_loop(self, small_bundle):
        vectorizer = HashingVectorizer(dim=64)
        rows = [
            serialize_instance(row)
            for table in small_bundle.tables[:6] for row in table.iter_rows()
        ]
        index = FlatVectorIndex(dim=64, encoder=vectorizer.transform)
        for position, payload in enumerate(rows):
            index.add(f"r{position:03d}", payload)
        queries = rows[::7] + ["", "nothing in common", rows[0]]
        for k in (0, 3, len(rows) + 1):
            assert [as_pairs(h) for h in index.search_batch(queries, k)] == [
                as_pairs(index.search(query, k)) for query in queries
            ]
        assert [as_pairs(h) for h in index.search_batch(queries, 5)] == [
            as_pairs(reference_flat(index, index.encode(query), 5))
            for query in queries
        ]


# ----------------------------------------------------------------------
# the whole pipeline
# ----------------------------------------------------------------------
def full_system(lake):
    return VerifAI(
        lake,
        llm=SimulatedLLM(knowledge=None, seed=7),
        config=VerifAIConfig(use_semantic_index=True, use_reranker=True),
    ).build_indexes()


def campaign_objects(bundle):
    """60 tuples (true and corrupted cells) and 40 claims."""
    tuples = []
    tasks = build_tuple_workload(bundle, num_tasks=60, seed=5)
    for position, task in enumerate(tasks):
        value = task.true_value if position % 2 else f"{task.true_value} 7"
        tuples.append(
            TupleObject(
                task.task_id, task.completed_row(value), attribute=task.column
            )
        )
    claims = [
        ClaimObject(
            f"cl-{position:04d}", task.claim.text, context=task.claim.context
        )
        for position, task in enumerate(
            build_claim_workload(bundle, num_claims=40, seed=6)
        )
    ]
    return tuples, claims


#: claims over all three modalities reach the OpenTFV scorer (TABLE),
#: ColBERT (TEXT) and the fallback mixture (TUPLE)
CLAIM_MODALITIES = (Modality.TABLE, Modality.TEXT, Modality.TUPLE)


def run_campaign(bundle):
    system = full_system(bundle.lake)
    tuples, claims = campaign_objects(bundle)
    reports = list(system.verify_batch(tuples, max_workers=1))
    reports += list(
        system.verify_batch(claims, modalities=CLAIM_MODALITIES, max_workers=1)
    )
    return system, reports


def stage_digest(system, reports):
    digest = hashlib.sha256()
    for report in reports:
        for step in system.provenance.get(report.record_id).retrieval:
            digest.update(step.stage.encode())
            for instance_id, score in step.hits:
                digest.update(
                    f"\x1f{instance_id}\x1f{float(score).hex()}".encode()
                )
            digest.update(b"\x1e")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def campaign(small_bundle):
    return run_campaign(small_bundle)


class TestFullPipeline:
    def test_same_stage_lists_as_before(self, campaign):
        system, reports = campaign
        assert len(reports) == 100
        stages = {
            step.stage for report in reports
            for step in system.provenance.get(report.record_id).retrieval
        }
        assert stages == {
            "coarse:tuple", "rerank:tuple", "coarse:text", "rerank:text",
            "coarse:table", "rerank:table",
        }
        assert stage_digest(system, reports) == PARENT_DIGEST

    def test_the_digest_sees_the_last_bit(self, campaign):
        system, reports = campaign
        step = system.provenance.get(reports[0].record_id).retrieval[1]
        instance_id, score = step.hits[0]
        original = step.hits
        try:
            object.__setattr__(
                step, "hits",
                ((instance_id, math.nextafter(score, 2.0)),) + original[1:],
            )
            assert stage_digest(system, reports) != PARENT_DIGEST
        finally:
            object.__setattr__(step, "hits", original)
        assert stage_digest(system, reports) == PARENT_DIGEST

    def test_semantic_search_batch_is_the_per_query_loop(self, campaign, small_bundle):
        system, _ = campaign
        tuples, claims = campaign_objects(small_bundle)
        for modality, objs in (
            (Modality.TUPLE, tuples[:12]), (Modality.TEXT, tuples[:12]),
            (Modality.TABLE, claims[:12]),
        ):
            queries = [obj.query_text() for obj in objs]
            semantic = system.indexer.semantic_index(modality)
            assert [as_pairs(h) for h in semantic.search_batch(queries, 20)] == [
                as_pairs(reference_flat(semantic, semantic.encode(query), 20))
                for query in queries
            ]
            assert [
                as_pairs(h)
                for h in system.indexer.search_batch(queries, modality)
            ] == [
                as_pairs(system.indexer.search(query, modality))
                for query in queries
            ]

    def test_update_instance_between_searches(self, small_bundle):
        lake = DataLake(name="churned")
        for table in small_bundle.tables[:8]:
            lake.add_table(table)
        system = full_system(lake)
        table = small_bundle.tables[2]
        row = table.row(0)
        query = serialize_instance(row)
        semantic = system.indexer.semantic_index(Modality.TUPLE)
        before = as_pairs(semantic.search(query, 5))
        assert before == as_pairs(
            reference_flat(semantic, semantic.encode(query), 5)
        )
        rows = [tuple(f"{cell} changed" for cell in table.rows[0])]
        rows += list(table.rows[1:])
        system.update_instance(
            type(table)(
                table_id=table.table_id, caption=table.caption,
                columns=table.columns, rows=rows, source=table.source,
                entity_columns=table.entity_columns,
                key_column=table.key_column, metadata=dict(table.metadata),
            )
        )
        after = as_pairs(semantic.search(query, 5))
        assert after == as_pairs(
            reference_flat(semantic, semantic.encode(query), 5)
        )
        assert after != before

    def test_default_config_allocates_nothing(self, small_bundle):
        system = VerifAI(
            small_bundle.lake, llm=SimulatedLLM(knowledge=None, seed=7)
        ).build_indexes()
        tuples, _ = campaign_objects(small_bundle)
        system.verify_batch(tuples[:5], max_workers=1)
        module = system.reranker
        assert module.text_text.embedder._table is None
        assert not module.text_text.embedder._feature_cache
        for reranker in (
            module.text_text, module.text_table, module.tuple_tuple,
            module.fallback,
        ):
            assert not reranker._readings
        assert system.indexer.semantic_index(Modality.TUPLE) is None

    def test_rerank_time_lands_in_a_named_histogram(self, campaign):
        system, _ = campaign
        module = RerankerModule(clock=TickClock(step=0.25))
        histogram = get_registry().histogram("reranker.seconds.tuple-pair")
        count, total = histogram.count, histogram.sum
        obj = TupleObject(
            "h1", next(iter(system.lake.tables())).row(0), attribute=None
        )
        coarse = system.indexer.search(obj.query_text(), Modality.TUPLE)
        module.rerank(
            obj, Modality.TUPLE, coarse, system.indexer.fetch_payload, 3
        )
        assert histogram.count == count + 1
        assert histogram.sum == pytest.approx(total + 0.25)


# ----------------------------------------------------------------------
# concurrency
# ----------------------------------------------------------------------
def rerank_tasks(system, bundle):
    tuples, claims = campaign_objects(bundle)
    tasks = []
    for obj in tuples[:8]:
        for modality in (Modality.TUPLE, Modality.TEXT):
            tasks.append((obj, modality))
    for obj in claims[:4]:
        for modality in CLAIM_MODALITIES:
            tasks.append((obj, modality))
    return [
        (obj, modality, system.indexer.search(obj.query_text(), modality, 20))
        for obj, modality in tasks
    ]


class TestThreadHammer:
    """One ``RerankerModule`` is shared by ``verify_batch`` workers and
    ``serve``'s four; ``make sanitize`` runs this file under the lockset
    sanitizer."""

    def test_concurrent_reranks_with_evictions_and_growth(
        self, campaign, small_bundle, monkeypatch
    ):
        system, _ = campaign
        tasks = rerank_tasks(system, small_bundle)
        fetch = system.indexer.fetch_payload
        reference = RerankerModule()
        expected = [
            as_pairs(reference.rerank(obj, modality, coarse, fetch, 5))
            for obj, modality, coarse in tasks
        ]
        monkeypatch.setattr(rerank_base, "READINGS_SIZE", 8)
        monkeypatch.setattr(token_embed, "FEATURES_SIZE", 32)
        monkeypatch.setattr(token_embed, "_INITIAL_ROWS", 4)
        module = RerankerModule()
        results = {}
        errors = []

        def worker(worker_id):
            order = list(range(len(tasks)))
            random.Random(worker_id).shuffle(order)
            try:
                results[worker_id] = {
                    position: as_pairs(
                        module.rerank(*tasks[position], fetch, 5)
                    )
                    for position in order
                }
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(
            results[i] == dict(enumerate(expected)) for i in range(8)
        )
        for reranker in (
            module.text_text, module.text_table, module.tuple_tuple,
            module.fallback,
        ):
            assert 0 < len(reranker._readings) <= 8
        embedder = module.text_text.embedder
        assert len(embedder._feature_cache) <= 32
        assert sorted(embedder._vocabulary.values()) == list(
            range(len(embedder._vocabulary))
        )

    def test_concurrent_first_searches_after_a_write(self):
        """Every write leaves staged rows for the first reader to move
        under ``_matrix_lock``; eight first readers at once get one flush
        and the oracle's bits."""
        vectors, queries = seeded_vectors(count=700, seed=4)
        index = FlatVectorIndex(dim=12)
        oracle = FlatVectorIndex(dim=12)
        barrier = threading.Barrier(8)
        errors = []

        def first_search(target, expected):
            try:
                barrier.wait(timeout=30)
                for position, query in enumerate(queries):
                    assert as_pairs(
                        target.search_vector(query, 9)
                    ) == expected[position]
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        def hammer(target):
            expected = [as_pairs(oracle.search_vector(q, 9)) for q in queries]
            threads = [
                threading.Thread(target=first_search, args=(target, expected))
                for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # rounds end inside the stage, on its edge (256, 512) and
            # past a doubling of the table
            added = 0
            for size in (100, 256, 300, 512, 513, 700):
                for instance_id, vector in vectors[added:size]:
                    index.add_vector(instance_id, vector)
                    oracle.add_vector(instance_id, vector)
                added = size
                if size == 300:
                    index.remove_vector(vectors[7][0])
                    oracle.remove_vector(vectors[7][0])
                hammer(index)
                assert index._staged == 0 and len(index._get_matrix()) == len(oracle)
        finally:
            sys.setswitchinterval(previous)

    @pytest.mark.parametrize("mutant", [False, True])
    def test_dropping_a_lock_is_what_the_sanitizer_flags(self, mutant):
        if sanitizer.is_enabled():
            pytest.skip("a deliberate race would fail the sanitized run")
        with sanitizer.sanitized() as found:
            reranker = LateInteractionReranker()
            vectorizer = HashingVectorizer(dim=8)
            flat = FlatVectorIndex(dim=8, encoder=vectorizer.transform)
            if mutant:
                reranker._readings_lock = contextlib.nullcontext()
                reranker.embedder._lock = contextlib.nullcontext()
                vectorizer._slots_lock = contextlib.nullcontext()
                flat._matrix_lock = contextlib.nullcontext()

            def work(text):
                reranker.score("ohio election", text)
                vectorizer.transform(text)
                flat.add(text, text)
                flat.search(text, 1)

            first_done = threading.Event()
            second_done = threading.Event()

            def first():
                work("tom jenkins of ohio")
                first_done.set()
                second_done.wait(5)

            def second():
                first_done.wait(5)
                work("bill hess of kentucky")
                second_done.set()

            threads = [
                threading.Thread(target=first), threading.Thread(target=second)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(5)
        flagged = {(race.type_name, race.field_name) for race in found}
        if mutant:
            assert flagged == {
                ("LateInteractionReranker", "_readings"),
                ("TokenEmbedder", "_vocabulary"),
                ("HashingVectorizer", "_slots"),
                ("FlatVectorIndex", "_staged"),
            }
        else:
            assert not flagged
