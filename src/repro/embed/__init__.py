"""Embedding substrate for the semantic index and rerankers.

The paper converts tuples and chunked text to vectors with tuple2vec /
BERT and indexes them with Faiss.  Offline, we substitute deterministic
embedders with the same contract: a text (or tuple) in, a dense unit
vector out, where cosine similarity tracks lexical-semantic overlap.

* :class:`HashingVectorizer` — sparse-to-dense feature hashing (signed).
* :class:`TfidfVectorizer`   — corpus-fit TF-IDF projected by hashing.
* :class:`TokenEmbedder`     — per-token vectors from character n-grams,
  used by the ColBERT-style late-interaction reranker.
"""

from repro.embed.token_embed import TokenEmbedder
from repro.embed.vectorizers import HashingVectorizer, TfidfVectorizer

__all__ = [
    "HashingVectorizer",
    "TfidfVectorizer",
    "TokenEmbedder",
]
