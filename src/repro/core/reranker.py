"""The Reranker module: task-specific rerouting of coarse hits.

Routing follows Section 3.2 where a route earns its reranker: (text,
table) pairs go to the OpenTFV-style scorer, (text, text) to the
ColBERT-style late-interaction scorer, and any other pair but a
tuple's to the generic feature mixture.  (tuple, tuple) and (tuple,
text) have no reranker: their shortlist is the head of the coarse list,
which no rerank arm beat on end-to-end accuracy (docs/performance.md,
"The tuple routes stop reranking").
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
from repro.verify.objects import ClaimObject, DataObject, TupleObject


class RerankerModule:
    """Route (object type, evidence modality) to the right reranker."""

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.text_text = LateInteractionReranker()
        self.text_table = TableReranker()
        self.fallback = FeatureReranker()
        self.clock: Clock = clock or MonotonicClock()

    def route(self, obj: DataObject, modality: Modality) -> Optional[Reranker]:
        """The reranker for this pair type, or None where the coarse
        order stands."""
        if isinstance(obj, TupleObject) and modality in (
            Modality.TUPLE, Modality.TEXT,
        ):
            return None
        if isinstance(obj, ClaimObject) and modality is Modality.TABLE:
            return self.text_table
        if isinstance(obj, ClaimObject) and modality is Modality.TEXT:
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
        """Re-score coarse candidates down to the fine shortlist: the
        first ``k`` as they came where the route has no reranker."""
        reranker = self.route(obj, modality)
        if reranker is None:
            return list(candidates[:max(k, 0)])
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
