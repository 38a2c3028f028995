"""Retrieval and verification metrics.

The paper evaluates retrieval with recall (each query has a small known
relevant set) and verification with ternary accuracy under its three
correctness rules (Section 4); these helpers implement both.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence, Tuple


def recall_at_k(retrieved: Sequence[str], relevant: Iterable[str], k: int) -> float:
    """Fraction of the relevant set found in the top-k retrieved ids."""
    relevant_set = set(relevant)
    if not relevant_set:
        return 1.0
    top = set(retrieved[:k])
    return len(top & relevant_set) / len(relevant_set)


def macro_recall_at_k(
    runs: Sequence[Tuple[Sequence[str], Iterable[str]]], k: int
) -> float:
    """Mean per-query recall@k over (retrieved, relevant) runs."""
    if not runs:
        return 0.0
    return sum(recall_at_k(retrieved, relevant, k) for retrieved, relevant in runs) / len(runs)


def accuracy(predictions: Sequence[Hashable], gold: Sequence[Hashable]) -> float:
    """Fraction of predictions equal to gold labels."""
    if len(predictions) != len(gold):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold"
        )
    if not gold:
        return 0.0
    return sum(1 for p, g in zip(predictions, gold) if p == g) / len(gold)
