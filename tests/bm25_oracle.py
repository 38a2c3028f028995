"""The reference BM25 scorer every index scoring path is compared with.

``DictOracle`` holds its own token -> ``{instance_id: tf}`` postings,
built from the documents' payloads with the index's analyzer, and
scores a query the way Elasticsearch's BM25 does, token by token in
sorted token order: the canonical accumulation order the sealed
per-token kernel and the tiled matrix kernel share, so all three
produce the same float64 sums bit for bit.  It shares no state with
the index it checks: the test feeds it the same payloads.

``seal_idf`` and ``contrib_table`` rebuild, from a seal's integer
postings, the per-token idf and the per-posting contribution table the
index no longer keeps, in the oracle's own arithmetic: the parent
kernels kept as oracles read them.
"""

import math
from collections import Counter, defaultdict

import numpy as np

from repro.index.base import SearchHit


def bm25_idf(num_docs, df):
    """BM25+ idf of a token in ``df`` of ``num_docs`` documents, floored
    at 1e-6."""
    if num_docs == 0:
        return 0.0
    return max(math.log((num_docs - df + 0.5) / (df + 0.5) + 1.0), 1e-6)


def seal_idf(seal):
    """Per-token idf of a seal (a view with no writes) in its token
    order: a token's document frequency is its row length."""
    assert seal.delta_start is None, "a view with writes"
    df = np.diff(seal.base.tok_start).tolist()
    return np.array([bm25_idf(seal.doc_count, n) for n in df], dtype=float)


def contrib_table(index, seal):
    """Every posting's BM25 contribution at query count 1 over a seal's
    CSR arrays, elementwise as :meth:`DictOracle.search` adds it."""
    base, k1, b = seal.base, index.k1, index.b
    idf = np.repeat(seal_idf(seal), np.diff(base.tok_start))
    tf, lengths = base.tf_flat, base.lengths[base.doc_idx]
    if seal.avg_len:
        denom = tf + k1 * (1 - b + b * lengths / seal.avg_len)
    else:
        denom = tf + k1 * 1.0
    return idf * (tf * (k1 + 1)) / denom
from repro.text import analyze


class DictOracle:
    """BM25 over dict postings, fed the payloads a test indexed."""

    def __init__(
        self, documents=(), name="bm25", k1=1.2, b=0.75,
        remove_stopwords=True, stemming=True,
    ):
        self.name = name
        self.k1 = k1
        self.b = b
        self.remove_stopwords = remove_stopwords
        self.stemming = stemming
        self.postings = defaultdict(dict)
        self.lengths = {}
        for instance_id, payload in documents:
            self.add(instance_id, payload)

    @classmethod
    def like(cls, index, documents=()):
        """An oracle with ``index``'s name and scoring settings."""
        return cls(
            documents, name=index.name, k1=index.k1, b=index.b,
            remove_stopwords=index.remove_stopwords, stemming=index.stemming,
        )

    def _analyze(self, text):
        return analyze(
            text,
            remove_stopwords=self.remove_stopwords,
            stemming=self.stemming,
        )

    def add(self, instance_id, payload):
        assert instance_id not in self.lengths, instance_id
        tokens = self._analyze(payload)
        self.lengths[instance_id] = len(tokens)
        for token, count in Counter(tokens).items():
            self.postings[token][instance_id] = count

    def remove(self, instance_id):
        del self.lengths[instance_id]
        for token in [
            token for token, row in self.postings.items() if instance_id in row
        ]:
            del self.postings[token][instance_id]
            if not self.postings[token]:
                del self.postings[token]

    def update(self, instance_id, payload):
        self.remove(instance_id)
        self.add(instance_id, payload)

    def tokens(self, instance_id):
        """The analysed tokens of one document it holds, by token:
        what ``InvertedIndex.remove`` takes for that document."""
        return [
            token for token, row in sorted(self.postings.items())
            for _ in range(row.get(instance_id, 0))
        ]

    def df(self, token):
        return len(self.postings.get(token, ()))

    @property
    def avg_doc_length(self):
        if not self.lengths:
            return 0.0
        return sum(self.lengths.values()) / len(self.lengths)

    def idf(self, token):
        """BM25+ idf over this corpus, floored at 1e-6."""
        return bm25_idf(len(self.lengths), self.df(token))

    def search(self, query, k=10):
        """Top-k hits under the ``(-score, id)`` order."""
        tokens = self._analyze(query)
        if not tokens or not self.lengths or k <= 0:
            return []
        avg_len = self.avg_doc_length
        scores = defaultdict(float)
        for token, query_count in sorted(Counter(tokens).items()):
            postings = self.postings.get(token)
            if not postings:
                continue
            idf = self.idf(token)
            for instance_id, tf in postings.items():
                doc_len = self.lengths[instance_id]
                denom = tf + self.k1 * (
                    1 - self.b + self.b * doc_len / avg_len if avg_len else 1.0
                )
                scores[instance_id] += (
                    idf * (tf * (self.k1 + 1)) / denom * query_count
                )
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        return [
            SearchHit(score, instance_id, self.name)
            for instance_id, score in ranked[:k]
        ]
