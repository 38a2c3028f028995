"""(tuple, tuple) reranking — the RetClean case.

Serialized tuples ('col: v ; col: v') are compared by schema-aligned
value agreement: matching column names pair up their values, which are
compared numeric-aware; unaligned content falls back to bag-of-token
overlap.  This is the fine-grained signal a fine-tuned pair encoder
learns for retrieval-based data cleaning.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Optional, Tuple

from repro.datalake.serialize import parse_row
from repro.rerank.base import Reranker
from repro.text import analyze, normalize
from repro.text.numbers import parse_number
from repro.text.similarity import jaccard, levenshtein_ratio


#: a cell as it is compared: its number, if it is one, and its
#: normalised text
_Value = Tuple[Optional[float], str]


class _Tuple(NamedTuple):
    """What the scorer reads in one serialized tuple, query or payload."""

    tokens: FrozenSet[str]
    #: (normalised column, value) per field, in order; empty when the
    #: text is not a serialized tuple
    fields: Tuple[Tuple[str, _Value], ...]
    #: the same by normalised column, the last of a repeated column
    by_column: Dict[str, _Value]


def _read_tuple(text: str) -> _Tuple:
    fields = tuple(
        (normalize(column), (parse_number(value), normalize(value)))
        for column, value in (parse_row(text) or {}).items()
    )
    return _Tuple(frozenset(analyze(text)), fields, dict(fields))


#: a read query: the tuple, and the edit similarity of every pair of
#: texts compared for it so far — the candidates of one rerank call
#: repeat their tables' categorical cells
_Query = Tuple[_Tuple, Dict[Tuple[str, str], float]]


def _value_similarity(
    a: _Value, b: _Value, ratios: Dict[Tuple[str, str], float]
) -> float:
    num_a, num_b = a[0], b[0]
    if num_a is not None and num_b is not None:
        if num_a == num_b:
            return 1.0
        denom = max(abs(num_a), abs(num_b), 1.0)
        return max(0.0, 1.0 - abs(num_a - num_b) / denom)
    texts = (a[1], b[1])
    ratio = ratios.get(texts)
    if ratio is None:
        ratio = ratios[texts] = levenshtein_ratio(*texts)
    return ratio


class TupleReranker(Reranker):
    """Schema-aligned tuple pair scorer."""

    name = "tuple-pair"

    def __init__(self, aligned_weight: float = 0.7, bag_weight: float = 0.3) -> None:
        super().__init__()
        self.aligned_weight = aligned_weight
        self.bag_weight = bag_weight

    def _read_query(self, query: str) -> _Query:
        return _read_tuple(query), {}

    def _read_payload(self, payload: str) -> _Tuple:
        return _read_tuple(payload)

    def _score(self, query: _Query, payload: _Tuple) -> float:
        read, ratios = query
        bag_score = jaccard(read.tokens, payload.tokens)
        if not read.fields or not payload.fields:
            return bag_score
        sims = [
            _value_similarity(value, payload.by_column[column], ratios)
            for column, value in read.fields
            if column in payload.by_column
        ]
        aligned_score = sum(sims) / len(sims) if sims else 0.0
        return self.aligned_weight * aligned_score + self.bag_weight * bag_score
