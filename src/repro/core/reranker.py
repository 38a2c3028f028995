"""The Reranker module: task-specific rerouting of coarse hits.

Routing follows Section 3.2: (text, text) pairs go to the ColBERT-style
late-interaction scorer, (text, table) to the OpenTFV-style scorer, and
(tuple, tuple) to the tuple-pair scorer; anything else falls back to the
generic feature mixture.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.datalake.types import Modality
from repro.index.base import SearchHit
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import get_registry
from repro.rerank.base import Reranker
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.features import FeatureReranker
from repro.rerank.table import TableReranker
from repro.rerank.tuples import TupleReranker
from repro.verify.objects import ClaimObject, DataObject, TupleObject


class RerankerModule:
    """Route (object type, evidence modality) to the right reranker."""

    def __init__(
        self,
        text_text: Optional[Reranker] = None,
        text_table: Optional[Reranker] = None,
        tuple_tuple: Optional[Reranker] = None,
        fallback: Optional[Reranker] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.text_text = text_text or LateInteractionReranker()
        self.text_table = text_table or TableReranker()
        self.tuple_tuple = tuple_tuple or TupleReranker()
        self.fallback = fallback or FeatureReranker()
        self.clock: Clock = clock or MonotonicClock()

    def route(self, obj: DataObject, modality: Modality) -> Reranker:
        """The reranker for this pair type."""
        if isinstance(obj, ClaimObject) and modality is Modality.TABLE:
            return self.text_table
        if isinstance(obj, TupleObject) and modality is Modality.TUPLE:
            return self.tuple_tuple
        if (
            isinstance(obj, (ClaimObject, TupleObject))
            and modality is Modality.TEXT
        ):
            return self.text_text
        return self.fallback

    def rerank(
        self,
        obj: DataObject,
        modality: Modality,
        candidates: Sequence[SearchHit],
        fetch: Callable[[str], str],
        k: int,
    ) -> List[SearchHit]:
        """Re-score coarse candidates down to the fine shortlist."""
        reranker = self.route(obj, modality)
        metrics = get_registry()
        metrics.counter("reranker.calls").inc()
        metrics.histogram(
            "reranker.candidates",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200, 500),
        ).observe(len(candidates))
        start = self.clock.now()
        shortlist = reranker.rerank(obj.query_text(), candidates, fetch, k)
        metrics.histogram(f"reranker.seconds.{reranker.name}").observe(
            self.clock.now() - start
        )
        return shortlist
