"""VerifAI — the paper's primary contribution, assembled.

:class:`VerifAI` wires the three modules of Figure 2/3 over a
multi-modal data lake:

* :class:`IndexerModule` — task-agnostic content (BM25) and semantic
  (vector) indexes per modality, merged by the Combiner;
* :class:`RerankerModule` — task-specific rerankers routed by
  (object type, evidence modality);
* :class:`VerifierModule` — an Agent-dispatched verifier pool with
  trust-weighted evidence pooling;

plus cross-cutting provenance (every verification leaves a full lineage
record) and generation logging.
"""

from repro.core.batch import BatchStats
from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.pipeline import BatchReport, VerifAI, VerificationReport
from repro.core.reranker import RerankerModule
from repro.core.verifier import VerifierModule

__all__ = [
    "BatchReport",
    "BatchStats",
    "IndexerModule",
    "RerankerModule",
    "VerifAI",
    "VerifAIConfig",
    "VerificationReport",
    "VerifierModule",
]
