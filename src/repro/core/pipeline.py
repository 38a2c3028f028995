"""The end-to-end VerifAI pipeline.

``VerifAI.verify(obj)`` runs Indexer -> Combiner -> Reranker -> Verifier
over the lake and returns a :class:`VerificationReport`: per-evidence
ternary verdicts, a pooled final verdict, and the provenance record id
for replay/debugging.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.reranker import RerankerModule
from repro.core.verifier import VerifierModule
from repro.datalake.lake import DataLake
from repro.datalake.types import DataInstance, Modality
from repro.index.base import SearchHit
from repro.llm.model import SimulatedLLM
from repro.obs.clock import Clock, MonotonicClock, ThreadCpuClock
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_BRANCH, Trace, Tracer
from repro.provenance.generation import GenerationLog
from repro.provenance.store import ProvenanceStore
from repro.verify.agent import VerifierAgent
from repro.verify.base import VerificationOutcome, Verifier
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import ClaimObject, DataObject, TupleObject
from repro.verify.verdict import Verdict

#: default evidence modalities per object type (the paper's Section 4
#: pairings: tuples are checked against tuples + text files, textual
#: claims against tables)
DEFAULT_MODALITIES = {
    TupleObject: (Modality.TUPLE, Modality.TEXT),
    ClaimObject: (Modality.TABLE,),
}

#: report statuses: the pipeline ran to completion vs. the per-object
#: error boundary caught a fault (see ``VerificationReport.status``)
STATUS_OK = "OK"
STATUS_FAILED = "FAILED"


def format_error(exc: BaseException) -> str:
    """The one-line error string reports and records carry for a fault."""
    return f"{type(exc).__name__}: {exc}"


def safe_query_text(obj: DataObject) -> str:
    """``obj.query_text()``, or "" when the object is too broken to ask.

    Provenance records need *a* query string even for objects whose
    ``query_text()`` raises; the real exception is re-raised (and
    reported) by the error boundary around the pipeline itself.
    """
    try:
        return obj.query_text()
    except Exception:
        return ""


@dataclass
class VerificationReport:
    """Everything VerifAI concluded about one data object.

    ``status`` is ``"OK"`` when the pipeline ran to completion and
    ``"FAILED"`` when the per-object error boundary caught a fault; a
    failed report carries the error string in ``error`` and pins
    ``final_verdict`` to NOT_RELATED (a failed verification asserts
    nothing about the object).
    """

    object_id: str
    final_verdict: Verdict
    margin: float
    outcomes: List[VerificationOutcome] = field(default_factory=list)
    evidence_ids: List[str] = field(default_factory=list)
    record_id: str = ""
    status: str = STATUS_OK
    error: str = ""
    #: span tree of the run when ``verify(..., trace=True)`` was asked
    #: for (a :class:`repro.obs.trace.Trace`), else ``None``
    trace: Optional[Trace] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def supporting(self) -> List[VerificationOutcome]:
        return [o for o in self.outcomes if o.verdict is Verdict.VERIFIED]

    @property
    def refuting(self) -> List[VerificationOutcome]:
        return [o for o in self.outcomes if o.verdict is Verdict.REFUTED]

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.status == STATUS_FAILED:
            return f"{self.object_id}: FAILED ({self.error})"
        return (
            f"{self.object_id}: {self.final_verdict} "
            f"(margin {self.margin:.2f}; {len(self.supporting)} supporting, "
            f"{len(self.refuting)} refuting, "
            f"{len(self.outcomes) - len(self.supporting) - len(self.refuting)} "
            f"unrelated)"
        )


class VerifAI:
    """Verified generative AI over a multi-modal data lake."""

    def __init__(
        self,
        lake: DataLake,
        llm: Optional[SimulatedLLM] = None,
        config: Optional[VerifAIConfig] = None,
        local_verifiers: Sequence[Verifier] = (),
        source_trust: Optional[Dict[str, float]] = None,
        clock: Optional[Clock] = None,
        cpu_clock: Optional[Clock] = None,
    ) -> None:
        self.lake = lake
        self.config = config or VerifAIConfig()
        # the one time source for spans and stage timings; tests inject a
        # TickClock so exported traces are byte-stable
        self.clock: Clock = clock or MonotonicClock()
        # CPU-time source for profiled runs only (verify_batch
        # profile=True); deterministic tests inject a TickClock here too
        self.cpu_clock: Clock = cpu_clock or ThreadCpuClock()
        self.metrics = get_registry()
        self._trace_counter = 0
        self._trace_lock = threading.Lock()
        # the verifier LLM needs no parametric knowledge: it reasons over
        # the evidence in the prompt
        self.llm = llm or SimulatedLLM(knowledge=None)
        self.indexer = IndexerModule(lake, self.config, clock=self.clock)
        self.reranker = RerankerModule(clock=self.clock)
        agent = VerifierAgent(
            local_verifiers=local_verifiers,
            fallback=LLMVerifier(self.llm),
            prefer_local=self.config.prefer_local,
        )
        self.verifier = VerifierModule(
            agent, lake, source_trust,
            cache_size=self.config.verifier_cache_size,
        )
        self.provenance = ProvenanceStore()
        self.generation_log = GenerationLog()

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def build_indexes(self) -> "VerifAI":
        """Build all lake indexes up front (otherwise lazy on first use)."""
        self.indexer.build()
        return self

    def next_trace_id(self) -> str:
        """Sequential trace id — deterministic, unlike uuid4, so traced
        runs replay byte-identically."""
        with self._trace_lock:
            self._trace_counter += 1
            count = self._trace_counter
        return f"trace-{count:06d}"

    def retrieval_stages(
        self,
        obj: DataObject,
        modality: Modality,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
        branch=None,
        parent=None,
    ) -> List[Tuple[str, List[SearchHit]]]:
        """Coarse retrieval + optional reranking, as named provenance
        stages.  The last stage's hits are the evidence shortlist.

        Results depend only on the object's query text, type, and the
        depths — which is what lets the batch engine dedupe identical
        retrievals across objects.  A tracing ``branch`` (plus ``parent``
        span) emits one span per stage."""
        if branch is None:
            branch = NULL_BRANCH
        query = obj.query_text()
        fine = k_fine if k_fine is not None else self.config.fine_k(modality)

        def retrieve_attrs(k: int) -> Dict[str, object]:
            attrs: Dict[str, object] = {"modality": modality.value, "k": k}
            # only stamp the fan-out when sharding is on, so traces of
            # default-config runs stay byte-identical to earlier builds
            if self.config.num_shards > 1:
                attrs["shards"] = self.config.num_shards
            return attrs

        if self.config.use_reranker:
            coarse_k = (
                k_coarse if k_coarse is not None else self.config.k_coarse
            )
            with branch.span(
                f"retrieve:coarse:{modality.value}",
                parent=parent,
                attributes=retrieve_attrs(coarse_k),
            ) as span:
                coarse = self.indexer.search(query, modality, k_coarse)
                span.set("hits", len(coarse))
            with branch.span(
                f"rerank:{modality.value}",
                parent=parent,
                attributes={"modality": modality.value, "k": fine},
            ) as span:
                shortlist = self.reranker.rerank(
                    obj, modality, coarse, self.indexer.fetch_payload, fine
                )
                span.set("hits", len(shortlist))
            return [
                (f"coarse:{modality.value}", coarse),
                (f"rerank:{modality.value}", shortlist),
            ]
        with branch.span(
            f"retrieve:coarse:{modality.value}",
            parent=parent,
            attributes=retrieve_attrs(fine),
        ) as span:
            hits = self.indexer.search(query, modality, fine)
            span.set("hits", len(hits))
        return [(f"coarse:{modality.value}", hits)]

    def retrieval_stages_batch(
        self,
        objs: Sequence[DataObject],
        modality: Modality,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
    ) -> List[List[Tuple[str, List[SearchHit]]]]:
        """Stage lists for many objects' retrievals against one
        modality, scored as **one query-matrix pass** per index instead
        of a per-object loop.

        Returns one stage list per object, hit-for-hit identical to
        ``[self.retrieval_stages(obj, modality, ...) for obj in objs]``
        (the matrix kernel is differential-tested against the per-query
        path).  Emits no spans — the batch engine replays spans from
        the stage lists, so traces never depend on which path filled
        the retrieval cache.  Reranking stays per-object (it is object-
        specific by design), but it consumes the batched coarse lists.
        """
        objs = list(objs)
        if not objs:
            return []
        queries = [obj.query_text() for obj in objs]
        fine = k_fine if k_fine is not None else self.config.fine_k(modality)
        if self.config.use_reranker:
            coarse_lists = self.indexer.search_batch(
                queries, modality, k_coarse
            )
            stage_lists = []
            for obj, coarse in zip(objs, coarse_lists):
                shortlist = self.reranker.rerank(
                    obj, modality, coarse, self.indexer.fetch_payload, fine
                )
                stage_lists.append([
                    (f"coarse:{modality.value}", coarse),
                    (f"rerank:{modality.value}", shortlist),
                ])
            return stage_lists
        hit_lists = self.indexer.search_batch(queries, modality, fine)
        return [
            [(f"coarse:{modality.value}", hits)] for hits in hit_lists
        ]

    def retrieve(
        self,
        obj: DataObject,
        modality: Modality,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
        record=None,
    ) -> List[SearchHit]:
        """Coarse retrieval + optional task-specific reranking."""
        stages = self.retrieval_stages(obj, modality, k_coarse, k_fine)
        if record is not None:
            for stage_name, hits in stages:
                record.add_stage(stage_name, hits)
        return stages[-1][1]

    def resolve(self, hits: Sequence[SearchHit]) -> List[DataInstance]:
        """Instance ids back to lake instances."""
        return [self.lake.instance(hit.instance_id) for hit in hits]

    # ------------------------------------------------------------------
    # end-to-end
    # ------------------------------------------------------------------
    def verify(
        self,
        obj: DataObject,
        modalities: Optional[Sequence[Modality]] = None,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
        fail_fast: bool = False,
        trace: bool = False,
    ) -> VerificationReport:
        """Discover evidence for ``obj`` across modalities and verify it.

        Runs inside the same per-object error boundary as the batch
        engine: a fault anywhere in retrieve/rerank/verify finalizes the
        provenance record with the failure and returns a ``FAILED``
        report instead of raising.  ``fail_fast=True`` restores
        raise-on-error (the record is still finalized first, so no
        dangling lineage either way).

        ``trace=True`` records a span tree of the run (root ``verify``
        span, one span per retrieval stage, a ``verify_pool`` span with
        per-evidence ``verdict`` children) on ``report.trace``, and
        cross-links it with the provenance record: the root span carries
        ``record_id`` and the record carries the trace id.
        """
        if modalities is None:
            modalities = DEFAULT_MODALITIES.get(type(obj), (Modality.TABLE,))
        record = self.provenance.new_record(
            obj.object_id, safe_query_text(obj)
        )
        tracer: Optional[Tracer] = None
        branch = NULL_BRANCH
        if trace:
            tracer = Tracer(self.next_trace_id(), clock=self.clock)
            record.trace_id = tracer.trace_id
            branch = tracer.branch()
        self.metrics.counter("pipeline.verify_calls").inc()
        start = self.clock.now()
        try:
            with branch.span(
                "verify",
                attributes={"object_id": obj.object_id},
                record_id=record.record_id,
            ) as root:
                evidence: List[DataInstance] = []
                for modality in modalities:
                    stages = self.retrieval_stages(
                        obj, modality, k_coarse, k_fine,
                        branch=branch, parent=root,
                    )
                    for stage_name, hits in stages:
                        record.add_stage(stage_name, hits)
                    evidence.extend(self.resolve(stages[-1][1]))
                retrieve_end = self.clock.now()
                with branch.span(
                    "verify_pool",
                    parent=root,
                    attributes={"evidence": len(evidence)},
                ) as pool_span:
                    outcomes, final, margin = self.verifier.verify_pool(
                        obj, evidence, branch=branch, parent=pool_span
                    )
                    pool_span.set("verdict", final.name)
                root.set("verdict", final.name)
        except Exception as exc:
            # serial verify never retries, so the failed attempt's spans
            # are the trace: commit them (each marked FAILED on unwind)
            branch.commit()
            record.mark_failed(format_error(exc))
            self.generation_log.link_verification(
                obj.object_id, record.record_id
            )
            self.metrics.counter("pipeline.verify_failed").inc()
            if fail_fast:
                raise
            return VerificationReport(
                object_id=obj.object_id,
                final_verdict=Verdict.NOT_RELATED,
                margin=0.0,
                record_id=record.record_id,
                status=STATUS_FAILED,
                error=record.error,
                trace=tracer.trace() if tracer is not None else None,
            )
        branch.commit()
        verify_end = self.clock.now()
        self.metrics.histogram("pipeline.retrieve_seconds").observe(
            retrieve_end - start
        )
        self.metrics.histogram("pipeline.verify_seconds").observe(
            verify_end - retrieve_end
        )
        record.record_outcomes(outcomes)
        record.finalize(final, margin)
        self.generation_log.link_verification(obj.object_id, record.record_id)
        return VerificationReport(
            object_id=obj.object_id,
            final_verdict=final,
            margin=margin,
            outcomes=outcomes,
            evidence_ids=[o.evidence_id for o in outcomes],
            record_id=record.record_id,
            trace=tracer.trace() if tracer is not None else None,
        )

    def verify_batch(
        self,
        objects: Sequence[DataObject],
        modalities: Optional[Sequence[Modality]] = None,
        max_workers: Optional[int] = None,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
        fail_fast: bool = False,
        max_retries: Optional[int] = None,
        trace: bool = False,
        profile: bool = False,
    ) -> "BatchReport":
        """Verify many objects and summarize the campaign.

        Delegates to the batch engine: identical retrieval queries are
        computed once, retrieval+rerank+verify runs on up to
        ``max_workers`` threads (default ``config.batch_max_workers``,
        1 = the serial path), and report order always matches input
        order.  Each object runs inside an error boundary: a fault
        yields a ``FAILED`` report (after ``max_retries`` extra
        attempts, default ``config.batch_max_retries``) instead of
        aborting the campaign; ``fail_fast=True`` restores
        raise-on-first-error.  The returned :class:`BatchReport` carries
        stage timings, cache-hit, failure, and retry counters in
        ``stats``; ``trace=True`` additionally attaches a campaign-wide
        span tree (``report.trace``) whose export is byte-identical for
        serial and parallel runs under a deterministic clock.

        ``profile=True`` (implies tracing) additionally stamps every
        span with thread-CPU readings and attaches a
        :class:`repro.obs.profile.StageProfile` (``report.profile``)
        attributing the campaign's wall and CPU time to named stages.
        Profiling is strictly opt-in: the default path builds the exact
        trace bytes it always has.
        """
        from repro.core.batch import BatchEngine

        workers = (
            max_workers if max_workers is not None
            else self.config.batch_max_workers
        )
        engine = BatchEngine(
            self, max_workers=workers,
            fail_fast=fail_fast, max_retries=max_retries,
        )
        return engine.run(
            objects, modalities=modalities, k_coarse=k_coarse,
            k_fine=k_fine, trace=trace or profile, profile=profile,
        )

    def add_instance(self, instance) -> None:
        """Fold a newly ingested lake instance into the live indexes
        (incremental indexing; the instance must already be in the lake)."""
        self.indexer.add_instance(instance)

    def remove_instance(self, instance_id: str) -> DataInstance:
        """Remove a table or document from the lake AND the live indexes.

        The lake removal runs first (KeyError/ValueError surface before
        anything is unindexed); the removed instance is returned.  After
        this, retrieval never surfaces the instance and
        ``fetch_payload`` raises the lake's KeyError for it.
        """
        instance = self.lake.remove_instance(instance_id)
        self.indexer.remove_instance(instance)
        return instance

    def update_instance(self, instance: DataInstance) -> DataInstance:
        """Replace a table/document in the lake AND the live indexes;
        returns the old version.  Retrieval and payload fetches see the
        new content immediately (no rebuild)."""
        old = self.lake.update_instance(instance)
        self.indexer.update_instance(old, instance)
        return old

    def explain(self, report: VerificationReport) -> str:
        """Replay the full lineage of a verification (challenge C4)."""
        return self.provenance.explain(report.record_id)


@dataclass
class BatchReport:
    """Aggregate view of a verification campaign.

    ``stats`` (a :class:`repro.core.batch.BatchStats`) is attached by
    the batch engine: per-stage wall time plus retrieval/verifier/
    payload/analysis cache counters for the run.
    """

    reports: List[VerificationReport]
    stats: Optional["object"] = None
    #: campaign span tree when ``verify_batch(..., trace=True)`` was
    #: asked for (a :class:`repro.obs.trace.Trace`), else ``None``
    trace: Optional[Trace] = None
    #: per-stage wall/CPU self-time attribution when ``profile=True``
    #: (a :class:`repro.obs.profile.StageProfile`), else ``None``
    profile: Optional["object"] = None

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    def count(self, verdict: Verdict) -> int:
        return sum(1 for r in self.reports if r.final_verdict is verdict)

    @property
    def verified(self) -> int:
        return self.count(Verdict.VERIFIED)

    @property
    def refuted(self) -> int:
        return self.count(Verdict.REFUTED)

    @property
    def unresolved(self) -> int:
        return self.count(Verdict.NOT_RELATED)

    @property
    def failed(self) -> int:
        """Objects whose pipeline faulted (status FAILED).  These also
        count as ``unresolved`` — a failed verification pins its verdict
        to NOT_RELATED."""
        return sum(1 for r in self.reports if r.status == STATUS_FAILED)

    @property
    def failures(self) -> List[VerificationReport]:
        """The FAILED reports, in input order."""
        return [r for r in self.reports if r.status == STATUS_FAILED]

    def summary(self) -> str:
        """One-line campaign summary (plus cache stats when present)."""
        line = (
            f"{len(self.reports)} objects: {self.verified} verified, "
            f"{self.refuted} refuted, {self.unresolved} unresolved"
        )
        if self.failed:
            line += f" ({self.failed} FAILED)"
        if self.stats is not None:
            line += (
                f"; {self.stats.failed} failed, "
                f"{self.stats.retries} retries"
            )
            line += (
                f"; verifier cache: {self.stats.verifier_cache_hits} hits, "
                f"{self.stats.verifier_cache_entries}/"
                f"{self.stats.verifier_cache_size} entries"
            )
        return line
