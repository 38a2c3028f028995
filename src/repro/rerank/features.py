"""Generic feature-mixture reranker.

A lightweight cross-scorer usable for any (text, anything-serialized)
pair when no task-specific reranker applies — the extensibility point
the paper's remark ("we are currently working on expanding our support
for different types of fine-grained Rerankers") calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, NamedTuple

from repro.rerank.base import Reranker
from repro.text import analyze
from repro.text.numbers import numbers_in
from repro.text.similarity import jaccard, ngrams


@dataclass
class FeatureWeights:
    """Weights of the feature mixture (default roughly equal)."""

    token_jaccard: float = 0.4
    query_coverage: float = 0.4
    trigram: float = 0.1
    number_overlap: float = 0.1


class _Text(NamedTuple):
    """What the features read in one text, query or payload."""

    tokens: FrozenSet[str]
    numbers: FrozenSet[float]
    #: character trigrams of the first 200 characters
    trigrams: FrozenSet[str]


def _read_text(text: str) -> _Text:
    return _Text(
        frozenset(analyze(text)),
        frozenset(numbers_in(text)),
        frozenset(ngrams(text[:200], 3)),
    )


class FeatureReranker(Reranker):
    """Mixture of cheap lexical features."""

    name = "features"

    def __init__(self, weights: FeatureWeights = FeatureWeights()) -> None:
        super().__init__()
        self.weights = weights

    def _read_query(self, query: str) -> _Text:
        return _read_text(query)

    def _read_payload(self, payload: str) -> _Text:
        return _read_text(payload)

    def features(self, query: str, payload: str) -> Dict[str, float]:
        """The raw feature values for a pair (useful for inspection)."""
        return self._features(self._read_query(query), self._readings(payload))

    def _features(self, query: _Text, payload: _Text) -> Dict[str, float]:
        coverage = (
            len(query.tokens & payload.tokens) / len(query.tokens)
            if query.tokens
            else 0.0
        )
        number_overlap = (
            len(query.numbers & payload.numbers) / len(query.numbers)
            if query.numbers
            else 0.0
        )
        return {
            "token_jaccard": jaccard(query.tokens, payload.tokens),
            "query_coverage": coverage,
            "trigram": jaccard(query.trigrams, payload.trigrams),
            "number_overlap": number_overlap,
        }

    def _score(self, query: _Text, payload: _Text) -> float:
        values = self._features(query, payload)
        weights = self.weights
        return (
            weights.token_jaccard * values["token_jaccard"]
            + weights.query_coverage * values["query_coverage"]
            + weights.trigram * values["trigram"]
            + weights.number_overlap * values["number_overlap"]
        )
