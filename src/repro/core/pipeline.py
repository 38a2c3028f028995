"""The end-to-end VerifAI pipeline.

``VerifAI.verify(obj)`` runs Indexer -> Combiner -> Reranker -> Verifier
over the lake and returns a :class:`VerificationReport`: per-evidence
ternary verdicts, a pooled final verdict, and the provenance record id
for replay/debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.reranker import RerankerModule
from repro.core.verifier import VerifierModule
from repro.datalake.lake import DataLake
from repro.datalake.types import DataInstance, Modality
from repro.index.base import Ranking, SearchHit, hits_of, ranking_of
from repro.llm.model import SimulatedLLM
from repro.obs.clock import Clock, MonotonicClock, ThreadCpuClock
from repro.obs.metrics import get_registry
from repro.obs.trace import Trace
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

#: one retrieval stage as the provenance record keeps it: its name and
#: its ranking's columns
Stage = Tuple[str, Ranking]
#: one object's retrieval against one modality: its stages, and the
#: evidence shortlist the last one names, as hits
Retrieval = Tuple[List[Stage], List[SearchHit]]

#: report statuses: the pipeline ran to completion vs. the per-object
#: error boundary caught a fault (see ``VerificationReport.status``)
STATUS_OK = "OK"
STATUS_FAILED = "FAILED"


def format_error(exc: BaseException) -> str:
    """The one-line error string reports and records carry for a fault."""
    return f"{type(exc).__name__}: {exc}"


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
    #: the pairs the Verifier verified: a prefix of ``evidence_ids``,
    #: read in order until the pooling rule was decided
    outcomes: List[VerificationOutcome] = field(default_factory=list)
    #: the shortlist handed to the Verifier: every resolved instance,
    #: in evidence order
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
        # the verifier LLM needs no parametric knowledge: it reasons over
        # the evidence in the prompt
        self.llm = llm or SimulatedLLM(knowledge=None)
        self.indexer = IndexerModule(lake, self.config)
        self.reranker = RerankerModule(clock=self.clock)
        agent = VerifierAgent(
            local_verifiers=local_verifiers,
            fallback=LLMVerifier(self.llm),
            prefer_local=self.config.prefer_local,
        )
        self.verifier = VerifierModule(agent, lake, source_trust)
        self.provenance = ProvenanceStore()
        self.generation_log = GenerationLog()

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def build_indexes(self) -> "VerifAI":
        """Build the indexes of every modality a default route reads:
        the union of ``DEFAULT_MODALITIES``' values, TUPLE, TEXT and
        TABLE.  Without this call, each modality is built by its first
        search.  Nothing else is prepared: a reranker reads a payload,
        and embeds its tokens, when a rerank first meets it."""
        self.indexer.build(
            modality for route in DEFAULT_MODALITIES.values()
            for modality in route
        )
        return self

    def next_trace_id(self) -> str:
        """Sequential trace id — deterministic, unlike uuid4, so traced
        runs replay byte-identically."""
        self._trace_counter += 1
        return f"trace-{self._trace_counter:06d}"

    def retrieval_stages_batch(
        self, objs: Sequence[DataObject], modality: Modality
    ) -> List[Retrieval]:
        """Coarse retrieval + optional reranking for each object against
        one modality: its named provenance stages, in columns, and the
        evidence shortlist the last stage names, as hits.

        The coarse step scores every object's query in **one
        query-matrix pass** per index (hit-for-hit identical to
        ``indexer.search`` per query — the kernel is differential-tested
        against it); a single object is a matrix of one row.  Reranking
        stays per-object (it is object-specific by design) and consumes
        the batched coarse columns.  A hit is built only for what a
        reranker or the Verifier reads: every coarse candidate on a
        route that rescores them, the shortlist's head on one that does
        not.  Results depend only on each object's query text and type
        (the depths are ``config``'s), which is what lets a campaign
        dedupe identical retrievals.  Emits no spans: the campaign core
        replays them from the stages.
        """
        objs = list(objs)
        queries = [obj.query_text() for obj in objs]
        fine = self.config.fine_k(modality)
        coarse_name = f"coarse:{modality.value}"
        index_name = self.indexer.index_name(modality)
        if not self.config.use_reranker:
            rankings = self.indexer.rank_batch(queries, modality, fine)
            return [
                ([(coarse_name, ranking)], shortlist)
                for ranking, shortlist in zip(
                    rankings, hits_of(rankings, index_name)
                )
            ]
        rerank_name = f"rerank:{modality.value}"
        retrievals: List[Retrieval] = []
        coarse_lists = self.indexer.rank_batch(
            queries, modality, self.config.k_coarse
        )
        for obj, coarse in zip(objs, coarse_lists):
            ids, scores = coarse
            read = (
                coarse if self.reranker.route(obj, modality) is not None
                else (ids[:fine], scores[:fine])
            )
            shortlist = self.reranker.rerank(
                obj, modality, hits_of([read], index_name)[0],
                self.indexer.fetch_payload, fine,
            )
            retrievals.append((
                [(coarse_name, coarse), (rerank_name, ranking_of(shortlist))],
                shortlist,
            ))
        return retrievals

    def retrieve(
        self, obj: DataObject, modality: Modality
    ) -> List[SearchHit]:
        """Coarse retrieval + optional task-specific reranking: the
        evidence shortlist for one object against one modality."""
        return self.retrieval_stages_batch([obj], modality)[0][1]

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
        fail_fast: bool = False,
        trace: bool = False,
    ) -> VerificationReport:
        """Discover evidence for ``obj`` across modalities and verify it.

        This is the campaign of one: the same staged core as
        :meth:`verify_batch` (:mod:`repro.core.batch`) over a single
        object, so it runs inside the same per-object error boundary — a
        fault anywhere in retrieve/rerank/verify finalizes the
        provenance record with the failure, lands in the flight
        recorder, and returns a ``FAILED`` report instead of raising.
        ``fail_fast=True`` restores raise-on-error (the record is still
        finalized first, so no dangling lineage either way).

        ``trace=True`` records a span tree of the run on
        ``report.trace``.  Its root is the object's ``verify`` span
        (where a campaign's root is ``verify_batch``); under it sit one
        ``retrieve:prefill:<modality>`` span per modality, the replayed
        retrieval stages, and a ``verify_pool`` span with a ``verdict``
        child per verified pair.  The root span carries ``record_id`` and
        the record carries the trace id.
        """
        from repro.core.batch import Campaign, run_campaign

        campaign = Campaign(
            self, [obj], modalities,
            trace=trace, solo=True, fail_fast=fail_fast,
        )
        report = run_campaign(campaign)[0]
        report.trace = campaign.trace
        return report

    def verify_batch(
        self,
        objects: Sequence[DataObject],
        modalities: Optional[Sequence[Modality]] = None,
        max_workers: int = 1,
        fail_fast: bool = False,
        trace: bool = False,
        profile: bool = False,
    ) -> "BatchReport":
        """Verify many objects and summarize the campaign.

        Delegates to the batch engine: identical retrieval queries are
        computed once, retrieval+rerank+verify runs for each object in
        input order on the calling thread, and report order matches
        input order.  ``max_workers`` must be 1 (anything else raises
        ``ValueError``): it stays only for callers written when the
        campaign could fan out to threads.  Each object runs inside an
        error boundary: a fault yields a ``FAILED`` report instead of
        aborting the campaign; ``fail_fast=True`` restores
        raise-on-first-error.  The returned :class:`BatchReport` carries
        stage timings, dedup and failure counters in ``stats``;
        ``trace=True`` additionally
        attaches a campaign-wide span tree (``report.trace``) whose
        export is byte-identical from run to run under a deterministic
        clock.

        ``profile=True`` (implies tracing) additionally stamps every
        span with thread-CPU readings and attaches a
        :class:`repro.obs.profile.StageProfile` (``report.profile``)
        attributing the campaign's wall and CPU time to named stages.
        Profiling is strictly opt-in: the default path builds the exact
        trace bytes it always has.
        """
        from repro.core.batch import Campaign, run_batch

        if max_workers != 1:
            raise ValueError(
                f"max_workers must be 1 (one verifying thread), "
                f"got {max_workers}"
            )
        return run_batch(Campaign(
            self, objects, modalities,
            trace=trace or profile, profile=profile, fail_fast=fail_fast,
        ))

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
    the batch engine: per-stage wall time plus retrieval/verifier
    cache counters for the run.
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
        """One-line campaign summary (plus batch stats when present)."""
        line = (
            f"{len(self.reports)} objects: {self.verified} verified, "
            f"{self.refuted} refuted, {self.unresolved} unresolved"
        )
        if self.failed:
            line += f" ({self.failed} FAILED)"
        if self.stats is not None:
            line += f"; {self.stats.failed} failed"
        return line
