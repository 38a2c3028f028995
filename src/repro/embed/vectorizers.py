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
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.text import analyze

#: tokens whose (bucket, sign) a vectorizer keeps (~150 B each); a token
#: that arrives once the memo is full is hashed on every occurrence
HASH_MEMO_SIZE = 65536


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
    orders of magnitude more token occurrences than distinct tokens."""

    def __init__(self, dim: int, salt: str) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.salt = salt
        self._slots: Dict[str, Tuple[int, float]] = {}

    def _slot(self, token: str) -> Tuple[int, float]:
        slot = self._slots.get(token)
        if slot is None:
            slot = _hash_index_sign(token, self.dim, self.salt)
            if len(self._slots) < HASH_MEMO_SIZE:
                self._slots[token] = slot
        return slot


class HashingVectorizer(_SignedHashing):
    """Fit-free signed-feature-hashing vectorizer.

    Produces L2-normalized vectors; tokens are weighted by sublinear term
    frequency (1 + log tf).
    """

    def __init__(self, dim: int = 256, salt: str = "hv") -> None:
        super().__init__(dim, salt)

    def transform_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Embed a pre-tokenized sequence."""
        vec = np.zeros(self.dim, dtype=np.float64)
        if not tokens:
            return vec
        for token, count in Counter(tokens).items():
            index, sign = self._slot(token)
            vec[index] += sign * (1.0 + math.log(count))
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def transform(self, text: str) -> np.ndarray:
        """Embed raw text via the standard analysis chain."""
        return self.transform_tokens(analyze(text))

    def transform_many(self, texts: Iterable[str]) -> np.ndarray:
        """Embed a batch of texts into a (n, dim) matrix."""
        rows = [self.transform(text) for text in texts]
        if not rows:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.vstack(rows)


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

    def transform(self, text: str) -> np.ndarray:
        """Embed raw text; requires :meth:`fit` to have been called."""
        if not self.is_fitted:
            raise RuntimeError("TfidfVectorizer.transform called before fit")
        vec = np.zeros(self.dim, dtype=np.float64)
        tokens = analyze(text)
        if not tokens:
            return vec
        for token, count in Counter(tokens).items():
            weight = (1.0 + math.log(count)) * self.idf(token)
            index, sign = self._slot(token)
            vec[index] += sign * weight
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec /= norm
        return vec

    def transform_many(self, texts: Iterable[str]) -> np.ndarray:
        """Embed a batch of texts into a (n, dim) matrix."""
        rows = [self.transform(text) for text in texts]
        if not rows:
            return np.zeros((0, self.dim), dtype=np.float64)
        return np.vstack(rows)
