"""Dense vectorizers built on signed feature hashing.

Feature hashing maps an unbounded vocabulary into a fixed-dimension dense
vector without a fitting pass; the signed variant keeps expected inner
products unbiased.  Token seeds are derived with BLAKE2 so embeddings are
stable across processes (Python's builtin ``hash`` is salted).
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from itertools import chain, compress, repeat
from operator import is_
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.text import analyze

#: tokens whose (bucket, sign) a vectorizer keeps (~150 B each); a token
#: that arrives once the memo is full is hashed again in every call
HASH_MEMO_SIZE = 65536

#: the sign bit of an ``int64`` slot code
_SIGN_BIT = 2**63


def _token_digest(token: str, salt: str = "") -> int:
    """Deterministic 64-bit digest of a token."""
    digest = hashlib.blake2b(
        (salt + token).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _hash_index_sign(token: str, dim: int, salt: str = "") -> Tuple[int, float]:
    """(bucket index, +/-1 sign) for a token under signed hashing."""
    value = _token_digest(token, salt)
    index = value % dim
    sign = 1.0 if (value >> 63) & 1 else -1.0
    return index, sign


class _SignedHashing:
    """The projection both vectorizers share: ``dim`` buckets, a salt,
    and each token's (bucket, sign) digested once — a corpus holds two
    orders of magnitude more token occurrences than distinct tokens.

    One kernel embeds every row, a block of term counts at a time:
    row ``r`` is ``sum sign(t) * (1 + log count) [* idf(t)]`` over its
    terms ``t`` in their order, added from 0.0 into ``t``'s bucket, then
    divided by its L2 norm (an all-zero row stays zero).
    """

    def __init__(self, dim: int, salt: str) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.salt = salt
        #: token -> its bucket, less ``2**63`` when its sign is -1: an
        #: ``int64`` whose sign bit is the token's sign
        self._slots: Dict[str, int] = {}
        #: ``_tf_weight[n]`` = ``1 + math.log(n)`` (``[0]`` unused),
        #: grown to the largest count seen
        self._tf_weight = np.zeros(1)

    def _codes(self, tokens: List[str]) -> np.ndarray:
        """The memo's code of every token; a miss is digested once per
        call, and kept while the memo has room."""
        slots = self._slots
        codes = list(map(slots.get, tokens))
        if None in codes:
            missed: Dict[str, int] = {}
            misses = map(is_, codes, repeat(None))
            for at in compress(range(len(codes)), misses):
                token = tokens[at]
                code = missed.get(token)
                if code is None:
                    index, sign = _hash_index_sign(token, self.dim, self.salt)
                    code = missed[token] = index - (sign < 0) * _SIGN_BIT
                    if len(slots) < HASH_MEMO_SIZE:
                        slots[token] = code
                codes[at] = code
        return np.array(codes, dtype=np.int64)

    def _tf_weights(self, counts: np.ndarray) -> np.ndarray:
        """``1 + math.log(n)`` of every count (``math.log``, whose bits
        ``np.log`` does not promise)."""
        try:
            return self._tf_weight[counts]
        except IndexError:
            self._tf_weight = np.array(
                [0.0] + [1.0 + math.log(n) for n in range(1, counts.max() + 1)]
            )
            return self._tf_weight[counts]

    def _idf(self, tokens: List[str]) -> Optional[np.ndarray]:
        """A factor per token beside its term-frequency weight; ``None``
        weighs every token alike."""
        return None

    def transform_counts(self, counts: Sequence[Dict[str, int]]) -> np.ndarray:
        """Embed a block of documents, each the counts of its analysed
        tokens in first-occurrence order (a ``Counter`` of them), into
        a ``(len(counts), dim)`` matrix."""
        size = len(counts) * self.dim
        tokens = list(chain.from_iterable(counts))
        if not tokens:
            return np.zeros((len(counts), self.dim))
        codes = self._codes(tokens)
        weights = self._tf_weights(np.fromiter(
            chain.from_iterable(map(dict.values, counts)),
            dtype=np.intp, count=len(tokens),
        ))
        idf = self._idf(tokens)
        if idf is not None:
            weights *= idf
        cells = codes & (_SIGN_BIT - 1)
        if len(counts) > 1:
            cells += np.repeat(
                np.arange(0, size, self.dim), list(map(len, counts))
            )
        # bincount adds in index order: each row is summed from 0.0 in
        # its tokens' order, as a loop of ``vec[b] += sign * w`` would
        block = np.bincount(
            cells, weights=np.copysign(weights, codes), minlength=size
        ).reshape(len(counts), self.dim)
        # ``sqrt(row . row)`` is np.linalg.norm's own reading of a row
        for row in block:
            norm = math.sqrt(row.dot(row))
            if norm > 0:
                row /= norm
        return block

    def transform_many(self, texts: Iterable[str]) -> np.ndarray:
        """Embed a batch of texts into a (n, dim) matrix."""
        return self.transform_counts([Counter(analyze(text)) for text in texts])


class HashingVectorizer(_SignedHashing):
    """Fit-free signed-feature-hashing vectorizer.

    Produces L2-normalized vectors; tokens are weighted by sublinear term
    frequency (1 + log tf).
    """

    def __init__(self, dim: int = 256, salt: str = "hv") -> None:
        super().__init__(dim, salt)

    def transform_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Embed a pre-tokenized sequence."""
        return self.transform_counts([Counter(tokens)])[0]

    def transform(self, text: str) -> np.ndarray:
        """Embed raw text via the standard analysis chain."""
        return self.transform_tokens(analyze(text))


class TfidfVectorizer(_SignedHashing):
    """Corpus-fit TF-IDF weighting, projected into a dense space by hashing.

    Fitting records document frequencies; transforming weights each token
    by ``(1 + log tf) * idf`` before signed hashing.  Unknown tokens get
    the maximum idf (they are maximally discriminative).
    """

    def __init__(self, dim: int = 256, salt: str = "tfidf") -> None:
        super().__init__(dim, salt)
        self._doc_freq: Dict[str, int] = {}
        self._num_docs = 0

    @property
    def is_fitted(self) -> bool:
        return self._num_docs > 0

    def fit(self, texts: Iterable[str]) -> "TfidfVectorizer":
        """Record document frequencies over ``texts``."""
        for text in texts:
            self._num_docs += 1
            for token in sorted(set(analyze(text))):
                self._doc_freq[token] = self._doc_freq.get(token, 0) + 1
        return self

    def idf(self, token: str) -> float:
        """Smoothed inverse document frequency of ``token``."""
        df = self._doc_freq.get(token, 0)
        return math.log((1 + self._num_docs) / (1 + df)) + 1.0

    def _idf(self, tokens: List[str]) -> Optional[np.ndarray]:
        return np.array([self.idf(token) for token in tokens])

    def transform(self, text: str) -> np.ndarray:
        """Embed raw text; requires :meth:`fit` to have been called."""
        return self.transform_many([text])[0]

    def transform_many(self, texts: Iterable[str]) -> np.ndarray:
        """Embed a batch of texts into a (n, dim) matrix; requires
        :meth:`fit` to have been called."""
        if not self.is_fitted:
            raise RuntimeError("TfidfVectorizer.transform called before fit")
        return super().transform_many(texts)
