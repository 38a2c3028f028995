"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.datalake.types import Modality
from repro.index.combiner import FusionMethod

#: the paper's Section 4 retrieval depths: top-3 tuples, top-3 text
#: files, top-5 tables
PAPER_FINE_K = {
    Modality.TUPLE: 3,
    Modality.TEXT: 3,
    Modality.TABLE: 5,
}


@dataclass
class VerifAIConfig:
    """Knobs of the end-to-end pipeline.

    * ``k_coarse`` — task-agnostic retrieval depth (the paper notes k is
      "typically set to a large number (e.g., 100 to 1000)");
    * ``k_fine`` — per-modality shortlist after reranking (defaults to
      the paper's 3/3/5);
    * ``use_semantic_index`` — add the vector index alongside BM25 and
      fuse with the Combiner;
    * ``use_reranker`` — apply the task-specific reranker (off = the
      paper's Section 4 setting, which evaluates raw index retrieval);
    * ``prefer_local`` — Agent policy: route to local verifiers when one
      supports the pair, else the LLM;
    * ``batch_max_workers`` — default worker-thread count for
      :meth:`VerifAI.verify_batch` (1 = serial);
    * ``batch_max_retries`` — extra attempts the per-object error
      boundary grants an object whose retrieve/rerank/verify raised
      (0 = fail on the first error).  One boundary serves
      :meth:`VerifAI.verify_batch` and :meth:`VerifAI.verify` (the
      campaign of one), so both honour it.
      Retries are immediate and deterministic — no sleeps or jitter —
      so serial and parallel runs stay report-for-report identical;
    * ``num_shards`` — partition every modality's content + semantic
      index into this many shards by stable hash of the instance id's
      root (1 = the monolithic index).  Scatter-gather search is
      proven hit-for-hit identical to the unsharded build
      (tests/test_index_sharding.py), so this is purely a scale knob.
    """

    k_coarse: int = 50
    k_fine: Dict[Modality, int] = field(
        default_factory=lambda: dict(PAPER_FINE_K)
    )
    use_semantic_index: bool = False
    use_reranker: bool = False
    fusion: FusionMethod = FusionMethod.RRF
    embedding_dim: int = 256
    prefer_local: bool = False
    chunk_text: bool = False
    chunk_max_tokens: int = 64
    batch_max_workers: int = 1
    batch_max_retries: int = 0
    num_shards: int = 1

    def fine_k(self, modality: Modality) -> int:
        """Shortlist size for one modality."""
        return self.k_fine.get(modality, 5)
