"""Pipeline configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict

from repro.datalake.types import Modality
from repro.index.combiner import FusionMethod

#: the paper's Section 4 retrieval depths: top-3 tuples, top-3 text
#: files, top-5 tables
PAPER_FINE_K = {
    Modality.TUPLE: 3,
    Modality.TEXT: 3,
    Modality.TABLE: 5,
}

#: width of the hashing embedder behind the semantic index
EMBEDDING_DIM = 256


def require_at_least(name: str, value: int, floor: int) -> None:
    """Refuse ``value`` below ``floor``, naming the field."""
    if value < floor:
        raise ValueError(f"{name} must be >= {floor}, got {value}")


@dataclass
class VerifAIConfig:
    """Knobs of the end-to-end pipeline.

    * ``k_coarse`` — task-agnostic retrieval depth (the paper notes k is
      "typically set to a large number (e.g., 100 to 1000)");
    * ``k_fine`` — per-modality shortlist after reranking (defaults to
      the paper's 3/3/5);
    * ``use_semantic_index`` — add the vector index alongside BM25 and
      fuse with the Combiner, by ``fusion`` (RRF; a constant, read by
      the indexer and ``bench/replay.py``);
    * ``use_reranker`` — apply the task-specific reranker (off = the
      paper's Section 4 setting, which evaluates raw index retrieval);
    * ``prefer_local`` — Agent policy: route to local verifiers when one
      supports the pair, else the LLM.

    A depth below its floor (1) is refused at construction with a
    ``ValueError`` naming the field.
    """

    k_coarse: int = 50
    k_fine: Dict[Modality, int] = field(
        default_factory=lambda: dict(PAPER_FINE_K)
    )
    use_semantic_index: bool = False
    use_reranker: bool = False
    prefer_local: bool = False

    fusion: ClassVar[FusionMethod] = FusionMethod.RRF

    def __post_init__(self) -> None:
        require_at_least("k_coarse", self.k_coarse, 1)
        for modality, depth in self.k_fine.items():
            require_at_least(f"k_fine[{modality.value}]", depth, 1)

    def fine_k(self, modality: Modality) -> int:
        """Shortlist size for one modality."""
        return self.k_fine.get(modality, 5)
