"""The staged replay: one object walked through the pipeline from
outside, one span per call into a layer's public function.

``Replay.walk`` composes exactly the calls ``VerifAI.verify`` makes —
``query_text`` → ``indexer.search`` (→ ``reranker.rerank`` over
``indexer.fetch_payload``) → ``resolve`` → per evidence
``serialize_instance`` → ``verification_prompt`` → ``llm.chat`` →
``parse_verification_response`` / ``Verdict.from_string`` →
``weighted_vote`` → the provenance record calls — but never touches
the verifier's outcome cache.  That makes it two instruments at once:

* with a :class:`~bench.spans.Recorder` it is the traced pass, the
  source of every per-layer time;
* with a :class:`~bench.spans.NullRecorder` it is the correctness
  oracle: a verdict re-derived without the caches, which a stale cache
  entry cannot fool.

The walk's verdict must equal ``system.verify(obj)``'s for every
sampled object, or the decomposition is timing a different program.

Two deliberate differences from the program's own path, both visible
in the numbers: the walk analyses the query text in its own
``text.analyze`` span *before* searching, so the index's analysis of
the same text is an LRU hit and ``core.indexer.search`` excludes it;
and provenance goes to a scratch store, not the system's.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.pipeline import (
    DEFAULT_MODALITIES,
    VerifAI,
    VerificationReport,
)
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import DataInstance, Modality, instance_id_of
from repro.index.base import SearchHit
from repro.index.combiner import Combiner
from repro.llm.prompts import parse_verification_response, verification_prompt
from repro.provenance.store import ProvenanceStore
from repro.text.tokenize import analyze
from repro.trust.model import weighted_vote
from repro.verify.base import VerificationOutcome
from repro.verify.objects import DataObject, TupleObject
from repro.verify.verdict import Verdict

from bench.measure import now


@dataclass
class Walked:
    """What one walk concluded, plus the sizes the layer metrics need."""

    final: Verdict
    margin: float
    outcomes: List[VerificationOutcome]
    evidence_ids: List[str]
    prompt_chars: int
    response_chars: int
    rerank_candidates: int
    rerank_calls: int

    def agrees_with(self, report: VerificationReport) -> bool:
        """Same final verdict and the same evidence, in order, as the
        program's own report of the object."""
        return (
            self.final is report.final_verdict
            and self.evidence_ids == list(report.evidence_ids)
        )


def modalities_of(obj: DataObject) -> Tuple[Modality, ...]:
    return DEFAULT_MODALITIES.get(type(obj), (Modality.TABLE,))


class Replay:
    """Walks objects through one ``VerifAI`` system's layers."""

    def __init__(self, system: VerifAI, recorder) -> None:
        self.system = system
        self.rec = recorder
        self.provenance = ProvenanceStore()

    # ------------------------------------------------------------------
    def _fetch(self, instance_id: str) -> str:
        with self.rec.span("core.indexer.fetch_payload"):
            return self.system.indexer.fetch_payload(instance_id)

    def _pair(
        self, obj: DataObject, evidence: DataInstance, sizes: List[int]
    ) -> VerificationOutcome:
        """One (object, evidence) verification, as ``LLMVerifier`` does
        it, minus the outcome cache in front."""
        rec = self.rec
        with rec.span(
            "verify.agent_verify", evidence_id=instance_id_of(evidence)
        ):
            with rec.span("datalake.serialize_instance"):
                evidence_text = serialize_instance(evidence)
            with rec.span("llm.prompt_build"):
                if isinstance(obj, TupleObject):
                    prompt = verification_prompt(
                        evidence=evidence_text, data=obj.query_text(),
                        attribute=obj.attribute,
                    )
                else:
                    prompt = verification_prompt(
                        evidence=evidence_text, data=obj.text,
                        context=obj.context or None,
                    )
            with rec.span("llm.chat"):
                response = self.system.llm.chat(prompt)
            with rec.span("llm.parse_response"):
                verdict_text, explanation = parse_verification_response(
                    response
                )
                verdict = Verdict.from_string(verdict_text)
            if verdict is None:
                verdict = Verdict.NOT_RELATED
                explanation = f"unparseable response: {response[:120]}"
        sizes[0] += len(prompt)
        sizes[1] += len(response)
        return VerificationOutcome(
            verdict=verdict, explanation=explanation, verifier="llm",
            evidence_id=instance_id_of(evidence),
        )

    def walk(self, obj: DataObject) -> Walked:
        rec = self.rec
        system = self.system
        config = system.config
        rec.begin_trace(obj.object_id)
        stages: List[Tuple[str, List[SearchHit]]] = []
        evidence: List[DataInstance] = []
        sizes = [0, 0]
        candidates = 0
        rerank_calls = 0
        with rec.span("core.pipeline.verify", object_id=obj.object_id):
            with rec.span("verify.query_text"):
                query = obj.query_text()
            with rec.span("text.analyze"):
                analyze(query)
            for modality in modalities_of(obj):
                fine = config.fine_k(modality)
                if config.use_reranker:
                    with rec.span(
                        "core.indexer.search", modality=modality.value
                    ):
                        coarse = system.indexer.search(query, modality, None)
                    with rec.span(
                        "core.reranker.rerank", modality=modality.value
                    ):
                        shortlist = system.reranker.rerank(
                            obj, modality, coarse, self._fetch, fine
                        )
                    candidates += len(coarse)
                    rerank_calls += 1
                    stages.append((f"coarse:{modality.value}", coarse))
                    stages.append((f"rerank:{modality.value}", shortlist))
                else:
                    with rec.span(
                        "core.indexer.search", modality=modality.value
                    ):
                        shortlist = system.indexer.search(
                            query, modality, fine
                        )
                    stages.append((f"coarse:{modality.value}", shortlist))
                with rec.span("datalake.resolve"):
                    evidence.extend(system.resolve(shortlist))
            with rec.span("core.verifier.verify_pool"):
                outcomes = [
                    self._pair(obj, instance, sizes) for instance in evidence
                ]
                votes = [
                    (system.verifier.source_of(instance), outcome.verdict)
                    for instance, outcome in zip(evidence, outcomes)
                ]
                with rec.span("trust.weighted_vote"):
                    final, margin = weighted_vote(
                        votes, system.verifier.source_trust,
                        default_trust=1.0,
                    )
            with rec.span("provenance.record"):
                record = self.provenance.new_record(obj.object_id, query)
                for stage_name, hits in stages:
                    record.add_stage(stage_name, hits)
                record.record_outcomes(outcomes)
                record.finalize(final, margin)
        return Walked(
            final=final, margin=margin, outcomes=outcomes,
            evidence_ids=[o.evidence_id for o in outcomes],
            prompt_chars=sizes[0], response_chars=sizes[1],
            rerank_candidates=candidates, rerank_calls=rerank_calls,
        )

    # ------------------------------------------------------------------
    # probes: layers the walk cannot reach because they sit *inside*
    # indexer.search — timed by calling them directly, outside the
    # object's span tree, results discarded.  A trace id with a colon
    # ("probe:...") marks spans that belong to no walk.
    # ------------------------------------------------------------------
    def probe_indexes(self, obj: DataObject) -> None:
        rec = self.rec
        indexer = self.system.indexer
        config = self.system.config
        rec.begin_trace(f"probe:{obj.object_id}")
        query = obj.query_text()
        for modality in modalities_of(obj):
            depth = (
                config.k_coarse if config.use_reranker
                else config.fine_k(modality)
            )
            # the fan-out Combiner.search asks each index for
            fan_out = 2 * depth
            content = indexer.content_index(modality)
            with rec.span("index.bm25_search", modality=modality.value):
                rankings = [content.search(query, fan_out)]
            semantic = indexer.semantic_index(modality)
            if semantic is None:
                continue
            with rec.span("index.vector_search", modality=modality.value):
                rankings.append(semantic.search(query, fan_out))
            combiner = Combiner([content, semantic], method=config.fusion)
            with rec.span("index.combiner_fuse", modality=modality.value):
                combiner.fuse(rankings, depth)

    def probe_search_batch(self, objs: Sequence[DataObject]) -> None:
        """``indexer.search_batch`` over one campaign's worth of
        queries — the query-matrix path ``verify_batch`` prefills
        through — one span per modality."""
        rec = self.rec
        config = self.system.config
        rec.begin_trace("probe:search_batch")
        by_modality = {}
        for obj in objs:
            for modality in modalities_of(obj):
                by_modality.setdefault(modality, []).append(obj.query_text())
        for modality, queries in by_modality.items():
            depth = None if config.use_reranker else config.fine_k(modality)
            with rec.span(
                "core.indexer.search_batch", modality=modality.value,
                queries=len(queries),
            ):
                self.system.indexer.search_batch(queries, modality, depth)


def seal_ms(system: VerifAI) -> Dict[str, float]:
    """Median of three explicit re-seals of each content index in ms:
    ``invalidate_seal()`` then ``seal()``, both public.  Leaves every
    index sealed, as it found it."""
    out: Dict[str, float] = {}
    for modality in (Modality.TUPLE, Modality.TEXT, Modality.TABLE):
        index = system.indexer.content_index(modality)
        samples = []
        for _ in range(3):
            index.invalidate_seal()
            start = now()
            index.seal()
            samples.append(now() - start)
        out[f"index.seal_ms.{modality.value}"] = (
            statistics.median(samples) * 1e3
        )
    return out
