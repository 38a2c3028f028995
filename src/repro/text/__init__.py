"""Text processing substrate: tokenization, stemming, and string similarity.

Every retrieval and verification component in :mod:`repro` builds on the
small, deterministic text toolkit in this package.  It replaces the
off-the-shelf analyzers that the VerifAI paper delegates to Elasticsearch
and BERT tokenizers.
"""

from repro.text.numbers import parse_number, numbers_in
from repro.text.similarity import (
    jaccard,
    levenshtein,
    levenshtein_ratio,
    ngrams,
    trigram_similarity,
)
from repro.text.stem import stem
from repro.text.stopwords import STOPWORDS, is_stopword
from repro.text.tokenize import (
    analyze,
    analyze_cache_clear,
    analyze_cache_info,
    normalize,
    sentences,
    tokenize,
)

__all__ = [
    "STOPWORDS",
    "analyze",
    "analyze_cache_clear",
    "analyze_cache_info",
    "is_stopword",
    "jaccard",
    "levenshtein",
    "levenshtein_ratio",
    "ngrams",
    "normalize",
    "numbers_in",
    "parse_number",
    "sentences",
    "stem",
    "tokenize",
    "trigram_similarity",
]
