"""Retrieval and verification metrics.

The paper evaluates retrieval with recall (each query has a small known
relevant set) and verification with ternary accuracy under its three
correctness rules (Section 4); these helpers implement both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Hashable, Iterable, List, Sequence, Set, Tuple


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


def mean_reciprocal_rank(
    runs: Sequence[Tuple[Sequence[str], Iterable[str]]]
) -> float:
    """MRR of the first relevant hit over runs."""
    if not runs:
        return 0.0
    total = 0.0
    for retrieved, relevant in runs:
        relevant_set = set(relevant)
        for rank, instance_id in enumerate(retrieved, start=1):
            if instance_id in relevant_set:
                total += 1.0 / rank
                break
    return total / len(runs)


def accuracy(predictions: Sequence[Hashable], gold: Sequence[Hashable]) -> float:
    """Fraction of predictions equal to gold labels."""
    if len(predictions) != len(gold):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(gold)} gold"
        )
    if not gold:
        return 0.0
    return sum(1 for p, g in zip(predictions, gold) if p == g) / len(gold)


def precision_recall_f1(
    predictions: Sequence[Hashable],
    gold: Sequence[Hashable],
    positive: Hashable,
) -> Tuple[float, float, float]:
    """Precision/recall/F1 of one class."""
    if len(predictions) != len(gold):
        raise ValueError("length mismatch between predictions and gold")
    tp = sum(1 for p, g in zip(predictions, gold) if p == positive and g == positive)
    fp = sum(1 for p, g in zip(predictions, gold) if p == positive and g != positive)
    fn = sum(1 for p, g in zip(predictions, gold) if p != positive and g == positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


@dataclass
class ConfusionMatrix:
    """Label-agnostic confusion counts with pretty printing."""

    counts: Counter = field(default_factory=Counter)

    def add(self, gold: Hashable, predicted: Hashable) -> None:
        self.counts[(gold, predicted)] += 1

    def labels(self) -> List[Hashable]:
        seen: Set[Hashable] = set()
        for gold, predicted in self.counts:
            seen.add(gold)
            seen.add(predicted)
        return sorted(seen, key=str)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        correct = sum(
            count for (gold, predicted), count in self.counts.items()
            if gold == predicted
        )
        return correct / self.total

    def render(self) -> str:
        labels = self.labels()
        header = ["gold\\pred"] + [str(label) for label in labels]
        rows = [header]
        for gold in labels:
            rows.append(
                [str(gold)] + [str(self.counts.get((gold, p), 0)) for p in labels]
            )
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
        return "\n".join(lines)
