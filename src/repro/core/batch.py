"""The one verification path: a staged campaign core.

``VerifAI.verify_batch`` and ``VerifAI.verify`` both run here.  A
campaign is the explicit :class:`Campaign` state plus four stages, each
a module-level function over it — :func:`plan`, :func:`prefill`,
:func:`attempt` (inside the :func:`run_object` error boundary) and
:func:`finalize` — sequenced by :func:`run_campaign`.  ``verify(obj)``
is the campaign of one: the same functions, differing only in that the
object's ``verify`` span *is* the trace root instead of a child of
``verify_batch``.  What the stages buy over a per-object loop:

* **retrieval dedup** — objects that issue the identical retrieval
  (same object type, query text and modality; the depths are the
  system's) share one execution; each object still gets the full
  stage list replayed into its own provenance record.  The dedup plan
  is computed up front from the inputs alone, so the reported dedup
  counters (and the ``dedup`` span attribute) depend on the inputs and
  nothing else;
* **query-matrix retrieval** — the deduplicated queries of each
  modality are scored as *one* query-matrix BM25 pass per index
  (:meth:`VerifAI.retrieval_stages_batch`) that prefills the retrieval
  cache before any object runs, under a ``retrieve:prefill:<modality>``
  span.  Object spans are always replayed from the cached stage lists.
  A prefill fault leaves that modality's cache cold: each object then
  runs the same retrieval function over itself alone, inside its own
  error boundary, which attributes the fault to the object that caused
  it;
* **one thread** — objects run in input order on the calling thread.
  Verifying is pure Python under the GIL with short numpy calls, and
  worker threads bought nothing at any committed scale
  (docs/performance.md, "One verifying thread"), so nothing a campaign
  touches takes a lock;
* **observability** — the campaign activates a per-run metrics
  :class:`~repro.obs.metrics.Scope` while it runs, so the
  :class:`BatchStats` attached to the
  :class:`~repro.core.pipeline.BatchReport` reflects *this* campaign's
  traffic, not that of what else the process ran.  ``trace=True``
  additionally records a span tree (``verify_batch`` →
  ``index.build:*`` for each modality the campaign reads that was not
  built yet, ``retrieve:prefill:*``, then per-object ``verify`` → retrieval stages
  → ``verify_pool`` → a ``verdict`` per verified pair) whose export is
  byte-identical from run to run under a deterministic clock.

Every object runs inside a **per-object error boundary**: a fault
anywhere in its retrieve→rerank→verify chain never propagates out of
the campaign.  The object is not retried: the pipeline is
deterministic, so a second attempt would meet the same fault.  Its
report comes back with ``status="FAILED"``, the error string, and
``final_verdict=NOT_RELATED``, while its provenance record is finalized
with the same failure (never left dangling) and carries no stages: they
are written only after the verifier pool succeeds.
``fail_fast=True`` restores raise-on-first-error for callers that
prefer a crash (the failing object's record is still finalized before
the raise; the records of the objects after it stay open because the
campaign aborted).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import (
    DEFAULT_MODALITIES,
    STATUS_FAILED,
    BatchReport,
    Retrieval,
    Stage,
    VerifAI,
    VerificationReport,
    format_error,
)
from repro.datalake.types import DataInstance, Modality
from repro.obs.events import get_event_log
from repro.obs.profile import StageProfile
from repro.obs.trace import (
    NULL_BRANCH,
    NULL_SPAN,
    SPAN_FAILED,
    SPAN_OK,
    Span,
    Trace,
    Tracer,
)
from repro.verify.objects import DataObject
from repro.verify.verdict import Verdict


#: setup spans (cold index build, matrix prefill: at most one of each
#: per modality) take sibling indexes counting up from here, so they
#: sort ahead of what the objects hang under the same root — object
#: ``verify`` spans at their positions, or a solo object's stages
_SETUP_FIRST_INDEX = -2 * len(Modality)


@dataclass
class BatchStats:
    """What one ``verify_batch`` run cost and what its dedup saved.

    Built from the campaign's metrics :class:`~repro.obs.metrics.Scope`
    (see :meth:`from_campaign`), so counters attribute to *this*
    campaign rather than to process-wide deltas.
    """

    objects: int = 0
    failed: int = 0
    unique_retrievals: int = 0
    retrieval_cache_hits: int = 0
    matrix_batches: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_campaign(cls, campaign: "Campaign") -> "BatchStats":
        """Assemble stats from a finished campaign: its scope, plus the
        plan-derived values the scope cannot know (the dedup plan)."""
        scope = campaign.scope
        return cls(
            objects=len(campaign.objects),
            failed=int(scope.value("batch.failed")),
            unique_retrievals=len(campaign.plan_first),
            retrieval_cache_hits=(
                campaign.planned_refs - len(campaign.plan_first)
            ),
            matrix_batches=int(scope.value("batch.matrix_batches")),
            stage_seconds={
                "retrieve": scope.value("pipeline.retrieve_seconds.sum"),
                "verify": scope.value("pipeline.verify_seconds.sum"),
                "total": campaign.total_seconds,
            },
        )

    def per_object_seconds(self) -> Dict[str, float]:
        """Mean seconds per object for each stage, sorted by stage.

        The service path reports these per campaign; an **empty**
        campaign (0 objects) must yield well-formed zero means, never a
        ``ZeroDivisionError`` — long-lived servers see empty batches as
        a matter of course (health probes, drained queues).
        """
        if self.objects <= 0:
            return {name: 0.0 for name in sorted(self.stage_seconds)}
        return {
            name: self.stage_seconds[name] / self.objects
            for name in sorted(self.stage_seconds)
        }

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-shaped view (the ``/verify-batch`` response body
        carries this); keys sorted, nested dicts sorted too."""
        return {
            "failed": self.failed,
            "matrix_batches": self.matrix_batches,
            "objects": self.objects,
            "per_object_seconds": self.per_object_seconds(),
            "retrieval_cache_hits": self.retrieval_cache_hits,
            "stage_seconds": {
                name: self.stage_seconds[name]
                for name in sorted(self.stage_seconds)
            },
            "unique_retrievals": self.unique_retrievals,
        }

    def summary(self) -> str:
        """One-line cost/caching view of the batch.

        Stage timings print in sorted stage-name order so the line is
        stable however the ``stage_seconds`` dict was populated."""
        stages = ", ".join(
            f"{name} {seconds:.3f}s"
            for name, seconds in sorted(self.stage_seconds.items())
        )
        return (
            f"{self.objects} objects ({stages}); "
            f"{self.failed} failed; "
            f"{self.unique_retrievals} unique retrievals "
            f"({self.retrieval_cache_hits} deduped, "
            f"{self.matrix_batches} matrix batches)"
        )


def _plan_query(obj: DataObject) -> Optional[str]:
    """``obj.query_text()``, or ``None`` for an object too broken to
    ask.  Such an object still gets a provenance record (with an empty
    query) and contributes nothing to the dedup plan; the real exception
    is raised again, and reported, inside its error boundary."""
    try:
        return obj.query_text()
    except Exception:
        return None


class Campaign:
    """The explicit state of one campaign, shared by its stages.

    Opening one allocates the provenance records (in input order, so
    record ids are deterministic), the metrics scope, and — traced — the
    tracer and its root.  ``solo`` (exactly one object) roots the trace
    at that object's ``verify`` span; otherwise the root is
    ``verify_batch``.  :func:`plan` fills the dedup plan and
    :func:`prefill` the retrieval cache, which an object whose key is
    cold fills for itself.

    ``fail_fast`` re-raises the first per-object fault instead of
    reporting it.  ``profile`` (with ``trace``) stamps spans with
    thread-CPU readings.  The retrieval depths are the system's
    :class:`~repro.core.config.VerifAIConfig`.
    """

    def __init__(
        self,
        system: VerifAI,
        objects: Sequence[DataObject],
        modalities: Optional[Sequence[Modality]] = None,
        trace: bool = False,
        profile: bool = False,
        solo: bool = False,
        fail_fast: bool = False,
    ) -> None:
        self.fail_fast = fail_fast
        self.system = system
        self.objects = list(objects)
        #: each object's ``query_text()``; ``None`` where it raised
        self.queries = [_plan_query(obj) for obj in self.objects]
        fixed = tuple(modalities) if modalities is not None else None
        #: evidence modalities per object
        self.modalities: List[Tuple[Modality, ...]] = [
            fixed if fixed is not None
            else DEFAULT_MODALITIES.get(type(obj), (Modality.TABLE,))
            for obj in self.objects
        ]
        self.records = [
            system.provenance.new_record(obj.object_id, query or "")
            for obj, query in zip(self.objects, self.queries)
        ]
        self.scope = system.metrics.scope()
        self.solo = solo
        self.profile = profile
        self.tracer: Optional[Tracer] = None
        self.root: Optional[Span] = None
        #: the sibling counter of the cold-build and prefill spans
        #: under ``root``
        self.setup_branch = NULL_BRANCH
        if trace:
            self.tracer = Tracer(
                system.next_trace_id(), clock=system.clock,
                cpu_clock=system.cpu_clock if profile else None,
            )
            for record in self.records:
                record.trace_id = self.tracer.trace_id
            if solo:
                self.root = self.tracer.root(
                    "verify",
                    attributes={"object_id": self.objects[0].object_id},
                    record_id=self.records[0].record_id,
                )
            else:
                self.root = self.tracer.root(
                    "verify_batch", attributes={"objects": len(self.objects)}
                )
            self.setup_branch = self.tracer.branch(
                first_index=_SETUP_FIRST_INDEX
            )
        #: the dedup plan: which position first issues each retrieval key
        self.plan_first: Dict[tuple, int] = {}
        self.planned_refs = 0
        self.start = 0.0
        self.total_seconds = 0.0
        self.trace: Optional[Trace] = None
        #: retrieval key -> the provenance stages of one (object type,
        #: query, modality) execution and its shortlist
        self.retrievals: Dict[tuple, Retrieval] = {}

    @staticmethod
    def retrieval_key(
        obj: DataObject, query: str, modality: Modality
    ) -> tuple:
        return type(obj).__name__, query, modality

    def object_span(self, branch, position: int) -> ContextManager[Span]:
        """The ``verify`` span of one object: a child of the campaign
        root, or — solo — the root itself, which :func:`finalize`
        closes."""
        if self.solo:
            return nullcontext(self.root or NULL_SPAN)
        return branch.span(
            "verify",
            parent=self.root,
            index=position,
            attributes={"object_id": self.objects[position].object_id},
            record_id=self.records[position].record_id,
        )


def run_batch(campaign: Campaign) -> BatchReport:
    """Run a campaign: its reports in input order, its stats, its trace
    and, profiled, its :class:`~repro.obs.profile.StageProfile`."""
    reports = run_campaign(campaign)
    return BatchReport(
        reports=reports,
        stats=BatchStats.from_campaign(campaign),
        trace=campaign.trace,
        profile=(
            StageProfile.from_trace(campaign.trace)
            if campaign.profile else None
        ),
    )


def run_campaign(campaign: Campaign) -> List[VerificationReport]:
    """plan → prefill → run every object → finalize."""
    system = campaign.system
    # build (and seal) the indexes the campaign reads up front; build
    # cost is not attributed to the campaign scope.  A traced cold build
    # hangs its spans under the root.
    system.indexer.build(
        {modality for route in campaign.modalities for modality in route},
        branch=campaign.setup_branch, parent=campaign.root,
    )
    with system.metrics.activate(campaign.scope):
        campaign.start = system.clock.now()
        plan(campaign)
        prefill(campaign)
        reports = run_objects(campaign)
        finalize(campaign, reports)
    return reports


def plan(campaign: Campaign) -> None:
    """The dedup plan: which position first issues each retrieval key.
    Computed from the inputs alone, so dedup counters and span
    attributes depend on nothing else."""
    for position, obj in enumerate(campaign.objects):
        query = campaign.queries[position]
        if query is None:
            continue
        for modality in campaign.modalities[position]:
            campaign.planned_refs += 1
            campaign.plan_first.setdefault(
                campaign.retrieval_key(obj, query, modality), position
            )


def prefill(campaign: Campaign) -> None:
    """Score each modality's deduplicated campaign queries in one matrix
    pass and seed the retrieval cache, so the objects only ever hit.  A
    fault leaves that modality's cache cold (its span FAILED): each
    object then retrieves for itself inside its own error boundary,
    which reports the fault against the object that caused it."""
    system = campaign.system
    registry = system.metrics
    by_modality: Dict[Modality, List[tuple]] = {}
    for key in campaign.plan_first:  # insertion = input order
        by_modality.setdefault(key[2], []).append(key)
    prefill_start = system.clock.now()
    for modality, keys in by_modality.items():
        try:
            with campaign.setup_branch.span(
                f"retrieve:prefill:{modality.value}",
                parent=campaign.root,
                attributes={
                    "modality": modality.value, "queries": len(keys),
                },
            ):
                retrievals = system.retrieval_stages_batch(
                    [campaign.objects[campaign.plan_first[k]] for k in keys],
                    modality,
                )
        except Exception:
            registry.counter("batch.matrix_prefill_failures").inc()
            get_event_log().emit(
                "batch.matrix_prefill_failed",
                modality=modality.value,
                queries=len(keys),
            )
            continue
        campaign.retrievals.update(zip(keys, retrievals))
        registry.counter("batch.matrix_batches").inc()
    registry.histogram("pipeline.retrieve_seconds").observe(
        system.clock.now() - prefill_start
    )


def replay_stage_spans(
    campaign: Campaign, branch, parent,
    stages: List[Stage], modality: Modality, deduped: bool,
) -> None:
    """Emit one span per retrieval stage.  Spans are always replayed
    from the stage list (whoever executed the retrieval), so the trace
    shape never depends on execution order."""
    config = campaign.system.config
    fine = config.fine_k(modality)
    for stage_name, (ids, _) in stages:
        if stage_name.startswith("coarse:"):
            span_name = f"retrieve:{stage_name}"
            # a lone coarse stage retrieves at fine depth
            depth = config.k_coarse if len(stages) > 1 else fine
        else:
            span_name = stage_name
            depth = fine
        with branch.span(
            span_name,
            parent=parent,
            attributes={
                "modality": modality.value,
                "k": depth,
                "hits": len(ids),
                "dedup": deduped,
            },
        ):
            pass


def retrieve_object(
    campaign: Campaign, position: int, branch, obj_span
) -> List[Retrieval]:
    """One object's retrievals, one per modality, with their stages'
    spans replayed under ``obj_span``.  The prefill normally seeded
    every one; a cold key (its prefill faulted, or the plan could not
    ask this object) runs the same retrieval over this object alone,
    inside its own error boundary."""
    obj = campaign.objects[position]
    query = obj.query_text()
    retrieved: List[Retrieval] = []
    for modality in campaign.modalities[position]:
        key = campaign.retrieval_key(obj, query, modality)
        retrieval = campaign.retrievals.get(key)
        if retrieval is None:
            retrieval = campaign.retrievals[key] = (
                campaign.system.retrieval_stages_batch([obj], modality)[0]
            )
        replay_stage_spans(
            campaign, branch, obj_span, retrieval[0], modality,
            deduped=campaign.plan_first.get(key, position) != position,
        )
        retrieved.append(retrieval)
    return retrieved


def attempt(campaign: Campaign, position: int) -> VerificationReport:
    """One object's retrieve → resolve → verify chain, which may raise.

    The provenance record is written only once retrieval and the
    verifier pool have succeeded, so a FAILED record carries no stages.
    Those writes and the two ``pipeline.*_seconds`` observations run
    inside the object's ``verify`` span: the span's duration covers the
    object's own bookkeeping, and a profile charges that cost to the
    object instead of leaving it unattributed.  A fault marks every
    span it unwinds through FAILED, and they stay in the trace."""
    system = campaign.system
    clock = system.clock
    obj = campaign.objects[position]
    record = campaign.records[position]
    branch = (
        campaign.tracer.branch() if campaign.tracer is not None
        else NULL_BRANCH
    )
    with campaign.object_span(branch, position) as obj_span:
        retrieve_start = clock.now()
        retrieved = retrieve_object(campaign, position, branch, obj_span)
        evidence: List[DataInstance] = []
        for _, shortlist in retrieved:
            evidence.extend(system.resolve(shortlist))
        verify_start = clock.now()
        with branch.span(
            "verify_pool",
            parent=obj_span,
            attributes={"evidence": len(evidence)},
        ) as pool_span:
            outcomes, final, margin = system.verifier.verify_pool(
                obj, evidence, branch=branch, parent=pool_span
            )
            pool_span.set("verdict", final.name)
        obj_span.set("verdict", final.name)
        verify_end = clock.now()
        # the chain succeeded: record it, inside the object's span (see
        # the docstring)
        for stages, _ in retrieved:
            for stage_name, (ids, scores) in stages:
                record.add_ranking(stage_name, ids, scores)
        record.record_outcomes(outcomes)
        record.finalize(final, margin)
        registry = system.metrics
        registry.histogram("pipeline.retrieve_seconds").observe(
            verify_start - retrieve_start
        )
        registry.histogram("pipeline.verify_seconds").observe(
            verify_end - verify_start
        )
    return VerificationReport(
        object_id=obj.object_id,
        final_verdict=final,
        margin=margin,
        outcomes=outcomes,
        evidence_ids=[instance.instance_id for instance in evidence],
        record_id=record.record_id,
    )


def run_object(campaign: Campaign, position: int) -> VerificationReport:
    """The per-object error boundary around :func:`attempt`."""
    registry = campaign.system.metrics
    obj = campaign.objects[position]
    registry.counter("pipeline.verify_calls").inc()
    try:
        return attempt(campaign, position)
    except Exception as exc:
        record = campaign.records[position]
        error = format_error(exc)
        record.mark_failed(error)
        registry.counter("batch.failed").inc()
        get_event_log().emit(
            "batch.object_failed",
            object_id=obj.object_id,
            error=error,
        )
        if campaign.fail_fast:
            raise
        return VerificationReport(
            object_id=obj.object_id,
            final_verdict=Verdict.NOT_RELATED,
            margin=0.0,
            record_id=record.record_id,
            status=STATUS_FAILED,
            error=error,
        )


def run_objects(campaign: Campaign) -> List[VerificationReport]:
    """Every object through its boundary, in input order."""
    return [
        run_object(campaign, position)
        for position in range(len(campaign.objects))
    ]


def finalize(campaign: Campaign, reports: List[VerificationReport]) -> None:
    """Link the generation log (append-order-sensitive: once, in input
    order), stamp the total, close the root and snapshot the
    trace."""
    system = campaign.system
    for obj, report in zip(campaign.objects, reports):
        system.generation_log.link_verification(
            obj.object_id, report.record_id
        )
    campaign.total_seconds = system.clock.now() - campaign.start
    if campaign.tracer is not None:
        # a campaign root is OK whatever its objects did; a solo root
        # is its object's span and fails with it
        failed = campaign.solo and not reports[0].ok
        campaign.tracer.close(
            campaign.root,
            SPAN_FAILED if failed else SPAN_OK,
            reports[0].error if failed else "",
        )
        campaign.trace = campaign.tracer.trace()
