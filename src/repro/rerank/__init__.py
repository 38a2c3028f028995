"""Task-specific rerankers (the paper's Reranker module, Section 3.2).

The Indexer's coarse top-k (k = 100..1000) is reranked down to a small
k' (e.g. 5) by a task-aware scorer:

* :class:`LateInteractionReranker` — ColBERT-style (text, text) MaxSim
  over per-token embeddings;
* :class:`TableReranker` — OpenTFV-style (text, table) scoring that
  weighs caption match, schema match, and cell-grounding of the claim's
  entities and values;
* :class:`TupleReranker` — (tuple, tuple) scoring by schema-aligned
  value agreement (the RetClean case);
* :class:`FeatureReranker` — a generic feature-mixture cross-scorer.
"""

from repro.rerank.base import Reranker
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.features import FeatureReranker
from repro.rerank.table import TableReranker
from repro.rerank.tuples import TupleReranker

__all__ = [
    "FeatureReranker",
    "LateInteractionReranker",
    "Reranker",
    "TableReranker",
    "TupleReranker",
]
