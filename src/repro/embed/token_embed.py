"""Per-token embeddings for late-interaction (ColBERT-style) scoring.

ColBERT compares *each token* of the query to *each token* of a document.
Its power as a reranker comes from that interaction structure, not from
any one encoder — so we embed each token from its character n-grams
(fastText-style), which makes morphologically close tokens ("elections" /
"election", "1,234" / "1234") near-neighbours while unrelated tokens stay
near-orthogonal in a high-dimensional hashed space.

A token's vector is a pure function of the token, so the embedder
computes it once: every distinct token gets one row of a growing
vocabulary matrix, and a text is the ``int32`` array of its tokens' row
ids (:meth:`TokenEmbedder.token_rows`) — about a hundredth of the size
of its float matrix, which :meth:`TokenEmbedder.vectors` gathers back
on demand.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Dict, Optional, Sequence

import numpy as np

from repro.text.similarity import ngrams

#: n-gram feature vectors kept per embedder (LRU, ~0.7 KB each at the
#: default dim, ~5.5 MB full).  Only a token new to the vocabulary reads
#: them, when the first rerank that meets it embeds it.  On a 2-core
#: host the 1,200-table lake's 5,053 TEXT tokens (12,602 distinct
#: n-grams), touched in lake order, take 0.47 s at this bound, 0.45 s at
#: twice it, 0.60 s at half of it and 1.6 s with none.
FEATURES_SIZE = 8192

#: rows the vocabulary matrix starts with; it doubles when full
_INITIAL_ROWS = 1024


def _feature_vector(feature: str, dim: int, salt: str) -> np.ndarray:
    """Deterministic dense unit vector for one n-gram feature."""
    digest = hashlib.blake2b((salt + feature).encode("utf-8"), digest_size=8).digest()
    seed = int.from_bytes(digest, "little")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


class TokenEmbedder:
    """Character n-gram token embedder over a per-embedder vocabulary.

    The n-gram feature vectors are kept in a per-embedder
    ``functools.lru_cache`` of ``FEATURES_SIZE`` entries.  The
    vocabulary grows with the distinct tokens embedded and is never
    evicted (cached row ids point into it); the matrix is allocated on
    first use.
    """

    def __init__(self, dim: int = 64, min_n: int = 3, max_n: int = 4, salt: str = "tok") -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if min_n < 1:
            raise ValueError(f"min_n must be positive, got {min_n}")
        if min_n > max_n:
            raise ValueError(f"min_n ({min_n}) must be <= max_n ({max_n})")
        self.dim = dim
        self.min_n = min_n
        self.max_n = max_n
        self.salt = salt
        #: one n-gram's vector, through the LRU
        self._feature_cache = functools.lru_cache(maxsize=FEATURES_SIZE)(
            functools.partial(_feature_vector, dim=dim, salt=salt)
        )
        self._vocabulary: Dict[str, int] = {}
        #: row ``i`` is the vector of the token with id ``i``; rows at
        #: and past ``len(self._vocabulary)`` are unwritten capacity
        self._table: Optional[np.ndarray] = None

    def _compose(self, token: str) -> np.ndarray:
        """Unit vector for one token: mean of its n-gram feature vectors
        plus a whole-token feature (so exact matches dominate).  The
        whole-token feature is read this once — a token is composed
        once — so it stays out of the LRU the n-grams share."""
        acc = np.zeros(self.dim, dtype=np.float64)
        acc += _feature_vector(f"<{token}>", self.dim, self.salt)
        for n in range(self.min_n, self.max_n + 1):
            for feature in sorted(ngrams(token, n)):
                acc += self._feature_cache(feature)
        norm = np.linalg.norm(acc)
        if norm > 0:
            acc /= norm
        return acc

    def _row(self, token: str) -> int:
        """Row id of ``token``, embedding it first if it is new."""
        row = self._vocabulary.get(token)
        if row is not None:
            return row
        row = len(self._vocabulary)
        table = self._table
        if table is None or row == table.shape[0]:
            grown = np.empty(
                (max(_INITIAL_ROWS, 2 * row), self.dim), dtype=np.float64
            )
            if table is not None:
                grown[:row] = table
            self._table = table = grown
        table[row] = self._compose(token)
        self._vocabulary[token] = row
        return row

    def token_rows(self, tokens: Sequence[str]) -> np.ndarray:
        """``int32`` vocabulary row ids of ``tokens``, in order; a new
        token is embedded first (:meth:`_row`)."""
        rows = list(map(self._vocabulary.get, tokens))
        if None in rows:
            rows = [
                self._row(token) if row is None else row
                for token, row in zip(tokens, rows)
            ]
        return np.array(rows, dtype=np.int32)

    def vectors(self, rows: np.ndarray) -> np.ndarray:
        """(len(rows), dim) matrix gathered from :meth:`token_rows` ids."""
        table = self._table
        if table is None:  # nothing embedded yet, so ``rows`` is empty
            return np.zeros((0, self.dim), dtype=np.float64)
        return table[rows]

    def embed_token(self, token: str) -> np.ndarray:
        """Unit vector for one token."""
        return self.embed_tokens([token])[0]

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """(len(tokens), dim) matrix of token embeddings."""
        return self.vectors(self.token_rows(tokens))
