"""ColBERT-style late-interaction reranking for (text, text) pairs.

Scoring is exactly ColBERT's MaxSim: embed every query token and every
document token, then sum over query tokens the maximum cosine similarity
against any document token.  Token embeddings come from the character
n-gram :class:`~repro.embed.token_embed.TokenEmbedder`, so near-identical
surface forms interact strongly while unrelated tokens stay near zero.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.embed.token_embed import TokenEmbedder
from repro.rerank.base import Reranker
from repro.text import analyze

#: a read query: its token matrix and, under ``token_weight``, the
#: weight of each token
_Query = Tuple[np.ndarray, Optional[np.ndarray]]


class LateInteractionReranker(Reranker):
    """Sum-of-MaxSim late interaction scorer.

    ``token_weight`` optionally weights each query token's MaxSim
    contribution (e.g. by BM25 idf, so rare entity tokens dominate) —
    the analogue of ColBERT learning to down-weight stopword-like
    tokens.

    A payload is read into the embedder's vocabulary row ids of its
    tokens; its matrix is gathered from them when it is scored.
    """

    name = "colbert"

    def __init__(
        self,
        embedder: Optional[TokenEmbedder] = None,
        normalize_by_query_length: bool = True,
        token_weight: Optional[Callable[[str], float]] = None,
    ) -> None:
        super().__init__()
        self.embedder = embedder or TokenEmbedder(dim=64)
        self.normalize_by_query_length = normalize_by_query_length
        self.token_weight = token_weight

    def _read_query(self, query: str) -> _Query:
        tokens = analyze(query)
        weights = None
        if self.token_weight is not None:
            weights = np.array([self.token_weight(token) for token in tokens])
        return self.embedder.embed_tokens(tokens), weights

    def _read_payload(self, payload: str) -> np.ndarray:
        return self.embedder.token_rows(analyze(payload))

    def _score(self, query: _Query, payload: np.ndarray) -> float:
        """MaxSim score of a payload's token rows for a read query."""
        query_matrix, weights = query
        if query_matrix.shape[0] == 0 or payload.shape[0] == 0:
            return 0.0
        # (num_query_tokens, num_doc_tokens) cosine table; embeddings are
        # unit vectors so the inner product is the cosine
        interactions = query_matrix @ self.embedder.vectors(payload).T
        max_sims = interactions.max(axis=1)
        if weights is not None:
            total = float((max_sims * weights).sum())
            denom = float(weights.sum()) or 1.0
        else:
            total = float(max_sims.sum())
            denom = float(query_matrix.shape[0])
        if self.normalize_by_query_length:
            return total / denom
        return total
