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
  (same object type, query text, modality, and depths) share one
  execution; each object still gets the full stage list replayed into
  its own provenance record.  The dedup plan is computed up front from
  the inputs alone, so the reported dedup counters (and the ``dedup``
  span attribute) are deterministic regardless of which worker happens
  to run first;
* **query-matrix retrieval** — the deduplicated queries of each
  modality are scored as *one* query-matrix BM25 pass per index
  (:meth:`VerifAI.retrieval_stages_batch`) that prefills the retrieval
  cache before workers start, under a ``retrieve:prefill:<modality>``
  span.  Object spans are always replayed from the cached stage lists.
  A prefill fault leaves that modality's cache cold: each object then
  runs the same retrieval function over itself alone, inside its own
  error boundary, which attributes the fault to the object that caused
  it;
* **thread parallelism** — a ``ThreadPoolExecutor`` fans objects out to
  ``max_workers`` threads (1 = the serial path, the default).  Every
  shared structure the workers touch (verifier outcome cache, the
  campaign's retrieval cache, provenance records pre-created in input
  order) is either lock-protected or owned by exactly one
  worker, and all components are deterministic per input, so the
  parallel run is report-for-report identical to the serial one;
* **observability** — the campaign activates a per-run metrics
  :class:`~repro.obs.metrics.Scope` on every thread that works for it,
  so the :class:`BatchStats` attached to the
  :class:`~repro.core.pipeline.BatchReport` reflects *this* campaign's
  cache traffic even when other campaigns interleave in the same
  process.  ``trace=True`` additionally records a span tree
  (``verify_batch`` → ``index.build:*`` for each modality the campaign
  reads that was not built yet,
  ``retrieve:prefill:*``, then per-object ``verify`` → retrieval stages
  → ``verify_pool`` → per-evidence ``verdict``) whose export is
  byte-identical for serial and parallel runs under a deterministic
  clock.

Every object runs inside a **per-object error boundary**: a fault
anywhere in its retrieve→rerank→verify chain never propagates out of
the pool.  The object gets ``max_retries`` extra attempts (immediate
and deterministic — no sleeps or jitter), and if they are exhausted its
report comes back with ``status="FAILED"``, the error string, and
``final_verdict=NOT_RELATED``, while its provenance record is finalized
with the same failure (never left dangling).  Stage and outcome writes
— and span commits — are deferred until an attempt succeeds or fails
for the last time, so retried attempts never duplicate provenance or
trace spans.  ``fail_fast=True`` restores raise-on-first-error for
callers that prefer a crash (the failing object's record is still
finalized before the raise; records of other in-flight objects may
remain open because the campaign aborted).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import (
    DEFAULT_MODALITIES,
    STATUS_FAILED,
    BatchReport,
    VerifAI,
    VerificationReport,
    format_error,
)
from repro.datalake.types import DataInstance, Modality
from repro.index.base import SearchHit
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

#: a cached retrieval: the provenance stages of one (object type, query,
#: modality, depths) execution; the last stage holds the shortlist
_Stages = List[Tuple[str, List[SearchHit]]]

#: setup spans (cold index build, matrix prefill: at most one of each
#: per modality) take sibling indexes counting up from here, so they
#: sort ahead of what the attempts hang under the same root — object
#: ``verify`` spans at their positions, or a solo object's stages
_SETUP_FIRST_INDEX = -2 * len(Modality)


@dataclass
class BatchStats:
    """What one ``verify_batch`` run cost and what the caches saved.

    Built from the campaign's metrics :class:`~repro.obs.metrics.Scope`
    (see :meth:`from_campaign`), so cache counters attribute to *this*
    campaign's threads rather than to process-wide deltas.
    """

    objects: int = 0
    max_workers: int = 1
    failed: int = 0
    retries: int = 0
    unique_retrievals: int = 0
    retrieval_cache_hits: int = 0
    matrix_batches: int = 0
    verifier_cache_hits: int = 0
    verifier_cache_entries: int = 0
    verifier_cache_size: int = 0
    analyze_cache_hits: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_campaign(cls, campaign: "Campaign") -> "BatchStats":
        """Assemble stats from a finished campaign: its scope, plus the
        plan-derived values the scope cannot know (dedup plan, cache
        geometry)."""
        scope = campaign.scope
        verifier = campaign.system.verifier
        return cls(
            objects=len(campaign.objects),
            max_workers=campaign.engine.max_workers,
            failed=int(scope.value("batch.failed")),
            retries=int(scope.value("batch.retries")),
            unique_retrievals=len(campaign.plan_first),
            retrieval_cache_hits=(
                campaign.planned_refs - len(campaign.plan_first)
            ),
            matrix_batches=int(scope.value("batch.matrix_batches")),
            verifier_cache_hits=int(scope.value("verifier.cache.hits")),
            verifier_cache_entries=len(verifier),
            verifier_cache_size=verifier.cache_size,
            analyze_cache_hits=int(scope.value("text.analyze_cache.hits")),
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
            "analyze_cache_hits": self.analyze_cache_hits,
            "failed": self.failed,
            "matrix_batches": self.matrix_batches,
            "max_workers": self.max_workers,
            "objects": self.objects,
            "per_object_seconds": self.per_object_seconds(),
            "retries": self.retries,
            "retrieval_cache_hits": self.retrieval_cache_hits,
            "stage_seconds": {
                name: self.stage_seconds[name]
                for name in sorted(self.stage_seconds)
            },
            "unique_retrievals": self.unique_retrievals,
            "verifier_cache_entries": self.verifier_cache_entries,
            "verifier_cache_hits": self.verifier_cache_hits,
            "verifier_cache_size": self.verifier_cache_size,
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
            f"{self.objects} objects on {self.max_workers} workers "
            f"({stages}); "
            f"{self.failed} failed, {self.retries} retries; "
            f"{self.unique_retrievals} unique retrievals "
            f"({self.retrieval_cache_hits} deduped, "
            f"{self.matrix_batches} matrix batches); cache hits: "
            f"{self.verifier_cache_hits} verifier, "
            f"{self.analyze_cache_hits} analyze"
        )


class BatchEngine:
    """The execution policy of a campaign over a ``VerifAI`` system.

    ``fail_fast`` re-raises the first per-object fault instead of
    reporting it; ``max_retries`` (default
    ``system.config.batch_max_retries``) grants each object that many
    extra attempts before it is reported FAILED.
    """

    def __init__(
        self,
        system: VerifAI,
        max_workers: int = 1,
        fail_fast: bool = False,
        max_retries: Optional[int] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        retries = (
            max_retries if max_retries is not None
            else system.config.batch_max_retries
        )
        if retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {retries}")
        self.system = system
        self.max_workers = max_workers
        self.fail_fast = fail_fast
        self.max_retries = retries

    def run(
        self,
        objects: Sequence[DataObject],
        modalities: Optional[Sequence[Modality]] = None,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
        trace: bool = False,
        profile: bool = False,
    ) -> BatchReport:
        """Verify every object; reports come back in input order.

        ``profile=True`` (implies ``trace``) stamps spans with
        thread-CPU readings and attaches a
        :class:`~repro.obs.profile.StageProfile` to the report; the
        default path builds byte-identical traces to an unprofiled run.
        """
        campaign = Campaign(
            self, objects, modalities, k_coarse, k_fine,
            trace=trace or profile, profile=profile,
        )
        reports = run_campaign(campaign)
        return BatchReport(
            reports=reports,
            stats=BatchStats.from_campaign(campaign),
            trace=campaign.trace,
            profile=(
                StageProfile.from_trace(campaign.trace) if profile else None
            ),
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

    Opening one allocates the provenance records (serially, in input
    order, so record ids are deterministic regardless of worker
    scheduling), the metrics scope, and — traced — the tracer and its
    root.  ``solo`` (exactly one object) roots the trace at that
    object's ``verify`` span; otherwise the root is ``verify_batch``,
    which deliberately carries no worker-count attribute: serial and
    parallel runs of one campaign must export the same bytes.
    :func:`plan` fills the dedup plan; the retrieval cache is the one
    field worker threads write, through :meth:`store`, under its lock.
    """

    def __init__(
        self,
        engine: BatchEngine,
        objects: Sequence[DataObject],
        modalities: Optional[Sequence[Modality]] = None,
        k_coarse: Optional[int] = None,
        k_fine: Optional[int] = None,
        trace: bool = False,
        profile: bool = False,
        solo: bool = False,
    ) -> None:
        system = engine.system
        self.engine = engine
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
        self.k_coarse = k_coarse
        self.k_fine = k_fine
        self.records = [
            system.provenance.new_record(obj.object_id, query or "")
            for obj, query in zip(self.objects, self.queries)
        ]
        self.scope = system.metrics.scope()
        self.solo = solo
        self.tracer: Optional[Tracer] = None
        self.root: Optional[Span] = None
        #: staging for the cold-build and prefill spans under ``root``
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
        self._retrievals: Dict[tuple, _Stages] = {}
        self._retrievals_lock = threading.Lock()

    def retrieval_key(
        self, obj: DataObject, query: str, modality: Modality
    ) -> tuple:
        return (
            type(obj).__name__, query, modality, self.k_coarse, self.k_fine
        )

    def cached(self, key: tuple) -> Optional[_Stages]:
        with self._retrievals_lock:
            return self._retrievals.get(key)

    def store(self, key: tuple, stages: _Stages) -> _Stages:
        """Cache one retrieval.  A concurrent miss recomputes the same
        deterministic stages; first writer wins, results are equal."""
        with self._retrievals_lock:
            return self._retrievals.setdefault(key, stages)

    def object_span(self, branch, position: int) -> ContextManager[Span]:
        """The ``verify`` span of one attempt at one object: a child of
        the campaign root, or — solo — the root itself, which stays
        open across attempts and is closed by :func:`finalize`."""
        if self.solo:
            return nullcontext(self.root or NULL_SPAN)
        return branch.span(
            "verify",
            parent=self.root,
            index=position,
            attributes={"object_id": self.objects[position].object_id},
            record_id=self.records[position].record_id,
        )


def run_campaign(campaign: Campaign) -> List[VerificationReport]:
    """plan → prefill → attempt every object → finalize."""
    system = campaign.system
    # build (and seal) the indexes the campaign reads up front so worker
    # threads never race on the lazy build path; build cost is not
    # attributed to the campaign scope.  A traced cold build hangs its
    # spans under the root.
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
    attributes never depend on worker interleaving."""
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
    pass and seed the retrieval cache, so workers only ever hit.  A
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
        attributes: Dict[str, object] = {
            "modality": modality.value, "queries": len(keys),
        }
        # the fan-out is stamped only when sharding is on, so
        # default-config traces carry no shard attribute at all
        if system.config.num_shards > 1:
            attributes["shards"] = system.config.num_shards
        try:
            with campaign.setup_branch.span(
                f"retrieve:prefill:{modality.value}",
                parent=campaign.root,
                attributes=attributes,
            ):
                stage_lists = system.retrieval_stages_batch(
                    [campaign.objects[campaign.plan_first[k]] for k in keys],
                    modality, campaign.k_coarse, campaign.k_fine,
                )
        except Exception:
            registry.counter("batch.matrix_prefill_failures").inc()
            get_event_log().emit(
                "batch.matrix_prefill_failed",
                modality=modality.value,
                queries=len(keys),
            )
            continue
        for key, stages in zip(keys, stage_lists):
            campaign.store(key, stages)
        registry.counter("batch.matrix_batches").inc()
    registry.histogram("pipeline.retrieve_seconds").observe(
        system.clock.now() - prefill_start
    )
    campaign.setup_branch.commit()


def replay_stage_spans(
    campaign: Campaign, branch, parent,
    stages: _Stages, modality: Modality, deduped: bool,
) -> None:
    """Emit one span per retrieval stage.  Spans are always replayed
    from the stage list (whoever executed the retrieval), so the trace
    shape never depends on execution order."""
    config = campaign.system.config
    fine = (
        campaign.k_fine if campaign.k_fine is not None
        else config.fine_k(modality)
    )
    coarse_depth = (
        campaign.k_coarse if campaign.k_coarse is not None
        else config.k_coarse
    )
    for stage_name, hits in stages:
        if stage_name.startswith("coarse:"):
            span_name = f"retrieve:{stage_name}"
            # a lone coarse stage retrieves at fine depth
            depth = coarse_depth if len(stages) > 1 else fine
        else:
            span_name = stage_name
            depth = fine
        with branch.span(
            span_name,
            parent=parent,
            attributes={
                "modality": modality.value,
                "k": depth,
                "hits": len(hits),
                "dedup": deduped,
            },
        ):
            pass


def retrieve_object(
    campaign: Campaign, position: int, branch, obj_span
) -> List[_Stages]:
    """One object's retrievals, a stage list per modality, with their
    spans replayed under ``obj_span``.  The prefill normally seeded
    every one; a cold key (its prefill faulted, or the plan could not
    ask this object) runs the same retrieval over this object alone,
    inside its own error boundary."""
    obj = campaign.objects[position]
    query = obj.query_text()
    retrieved: List[_Stages] = []
    for modality in campaign.modalities[position]:
        key = campaign.retrieval_key(obj, query, modality)
        stages = campaign.cached(key)
        if stages is None:
            stages = campaign.store(
                key,
                campaign.system.retrieval_stages_batch(
                    [obj], modality, campaign.k_coarse, campaign.k_fine
                )[0],
            )
        replay_stage_spans(
            campaign, branch, obj_span, stages, modality,
            deduped=campaign.plan_first.get(key, position) != position,
        )
        retrieved.append(stages)
    return retrieved


def attempt(
    campaign: Campaign, position: int, final_attempt: bool
) -> VerificationReport:
    """One guarded attempt at one object; only mutates the provenance
    record after the full chain succeeded, so retries never duplicate
    stages or outcomes.  Spans follow the same rule: committed on
    success or on the final failure, discarded on a retried attempt."""
    system = campaign.system
    clock = system.clock
    obj = campaign.objects[position]
    record = campaign.records[position]
    branch = (
        campaign.tracer.branch() if campaign.tracer is not None
        else NULL_BRANCH
    )
    try:
        with campaign.object_span(branch, position) as obj_span:
            retrieve_start = clock.now()
            retrieved = retrieve_object(campaign, position, branch, obj_span)
            evidence: List[DataInstance] = []
            for stages in retrieved:
                evidence.extend(system.resolve(stages[-1][1]))
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
    except Exception:
        # the failed attempt's spans (each marked FAILED on unwind) are
        # the record of what happened — but only if no retry will
        # produce a cleaner story
        if final_attempt:
            branch.commit()
        else:
            branch.discard()
        raise
    branch.commit()
    for stages in retrieved:
        for stage_name, hits in stages:
            record.add_stage(stage_name, hits)
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
        evidence_ids=[o.evidence_id for o in outcomes],
        record_id=record.record_id,
    )


def run_object(campaign: Campaign, position: int) -> VerificationReport:
    """The per-object error boundary around :func:`attempt`.

    Re-activates the campaign scope so worker-thread cache traffic
    attributes to this campaign (a no-op on the thread that opened it,
    where the scope is already active)."""
    engine = campaign.engine
    registry = campaign.system.metrics
    obj = campaign.objects[position]
    with registry.activate(campaign.scope):
        registry.counter("pipeline.verify_calls").inc()
        attempts = engine.max_retries + 1
        for number in range(1, attempts + 1):
            try:
                return attempt(campaign, position, number == attempts)
            except Exception as exc:
                if number < attempts:
                    registry.counter("batch.retries").inc()
                    get_event_log().emit(
                        "batch.retry",
                        object_id=obj.object_id,
                        attempt=number,
                    )
                    continue
                record = campaign.records[position]
                error = format_error(exc)
                record.mark_failed(error)
                registry.counter("batch.failed").inc()
                get_event_log().emit(
                    "batch.object_failed",
                    object_id=obj.object_id,
                    error=error,
                )
                if engine.fail_fast:
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
    """Every object through its boundary, serially or on the pool;
    reports come back in input order either way."""
    positions = range(len(campaign.objects))
    run_one = partial(run_object, campaign)
    if campaign.engine.max_workers == 1 or len(positions) <= 1:
        return [run_one(position) for position in positions]
    with ThreadPoolExecutor(
        max_workers=campaign.engine.max_workers
    ) as pool:
        return list(pool.map(run_one, positions))


def finalize(campaign: Campaign, reports: List[VerificationReport]) -> None:
    """Link the generation log (append-order-sensitive: once, serially,
    in input order), stamp the total, close the root and snapshot the
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
