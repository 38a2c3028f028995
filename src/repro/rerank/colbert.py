"""ColBERT-style late-interaction reranking for (text, text) pairs.

Scoring is exactly ColBERT's MaxSim: embed every query token and every
document token, then sum over query tokens the maximum cosine similarity
against any document token.  Token embeddings come from the character
n-gram :class:`~repro.embed.token_embed.TokenEmbedder`, so near-identical
surface forms interact strongly while unrelated tokens stay near zero.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.embed.token_embed import TokenEmbedder
from repro.rerank.base import Reranker
from repro.text import analyze


class LateInteractionReranker(Reranker):
    """Sum-of-MaxSim late interaction scorer, normalized by the query's
    token count.

    A query is read into its token matrix.  A payload is read into the
    embedder's vocabulary row ids of its tokens; its matrix is gathered
    from them when it is scored.
    """

    name = "colbert"

    def __init__(self, embedder: Optional[TokenEmbedder] = None) -> None:
        super().__init__()
        self.embedder = embedder or TokenEmbedder(dim=64)

    def _read_query(self, query: str) -> np.ndarray:
        return self.embedder.embed_tokens(analyze(query))

    def _read_payload(self, payload: str) -> np.ndarray:
        return self.embedder.token_rows(analyze(payload))

    def _score(self, query: np.ndarray, payload: np.ndarray) -> float:
        """MaxSim score of a payload's token rows for a read query."""
        if query.shape[0] == 0 or payload.shape[0] == 0:
            return 0.0
        # (num_query_tokens, num_doc_tokens) cosine table; embeddings are
        # unit vectors so the inner product is the cosine
        interactions = query @ self.embedder.vectors(payload).T
        return float(interactions.max(axis=1).sum()) / query.shape[0]
