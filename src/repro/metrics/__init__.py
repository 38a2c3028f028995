"""Evaluation metrics and experiment harness utilities."""

from repro.metrics.evaluation import (
    accuracy,
    macro_recall_at_k,
    recall_at_k,
)
from repro.metrics.tables import format_table

__all__ = [
    "accuracy",
    "format_table",
    "macro_recall_at_k",
    "recall_at_k",
]
