"""The Verifier module: Agent dispatch plus evidence pooling.

Multiple retrieved instances may verify or refute the same object
(Section 3.3's remark); the module reads the Reranker's shortlist in
rank order and pools per-evidence verdicts with
:func:`~repro.trust.model.weighted_vote`: the first decisive verdict
from a trusted lake source decides, so verification stops as soon as no
pair still to come could overrule it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.datalake.lake import DataLake
from repro.datalake.types import DataInstance, Row
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_BRANCH
from repro.trust.model import deciding_vote, vote_is_settled, weighted_vote
from repro.verify.agent import VerifierAgent
from repro.verify.base import VerificationOutcome
from repro.verify.objects import DataObject
from repro.verify.verdict import Verdict


#: The trust of a source the trust map does not score: fully trusted, so
#: an empty map pools by rank order alone.
UNSCORED_TRUST = 1.0


class VerifierModule:
    """Verify an object against a pool of evidence and decide.

    Each verified pair is one call to the Agent: nothing is memoised, so
    a write to the lake is seen by the next pair that reads it.  The
    module keeps no per-pair state.
    """

    def __init__(
        self,
        agent: VerifierAgent,
        lake: DataLake,
        source_trust: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.agent = agent
        self.lake = lake
        self.source_trust: Dict[str, float] = dict(source_trust or {})
        self._metrics = get_registry()

    def verify_one(
        self, obj: DataObject, evidence: DataInstance
    ) -> VerificationOutcome:
        """Verify a single pair through the Agent."""
        self._metrics.counter("verifier.verifications").inc()
        return self.agent.verify(obj, evidence)

    def source_of(self, evidence: DataInstance) -> str:
        """Lake source name of an evidence instance."""
        if isinstance(evidence, Row):
            return self.lake.table(evidence.table_id).source.name
        source = getattr(evidence, "source", None)
        if source is None:  # KG entities have no per-instance source
            return "knowledge-graph"
        return source.name

    def verify_pool(
        self,
        obj: DataObject,
        evidence_list: Sequence[DataInstance],
        branch=None,
        parent=None,
    ) -> Tuple[List[VerificationOutcome], Verdict, float]:
        """Verify the shortlist in evidence order, only as far as the
        pooling rule needs, and pool into a final verdict.

        Returns (outcomes of the verified prefix, final verdict, vote
        margin).  Every pair's source is known before any pair is
        verified, so the pool stops as soon as
        :func:`~repro.trust.model.vote_is_settled` says no pair still to
        come can change the vote: the verdict and margin are then what
        ``weighted_vote`` over every pair's vote would be.
        When a tracing ``branch`` (and ``parent`` span) is supplied, one
        ``verdict`` span is emitted per verified pair.
        """
        if branch is None:
            branch = NULL_BRANCH
        sources = [self.source_of(evidence) for evidence in evidence_list]
        outcomes: List[VerificationOutcome] = []
        votes: List[Tuple[str, Verdict]] = []
        started = 0
        try:
            for evidence, source in zip(evidence_list, sources):
                started += 1
                with branch.span(
                    "verdict",
                    parent=parent,
                    attributes={"evidence_id": evidence.instance_id},
                ) as span:
                    outcome = self.agent.verify(obj, evidence)
                    span.set("verifier", outcome.verifier)
                    span.set("verdict", outcome.verdict.name)
                outcomes.append(outcome)
                votes.append((source, outcome.verdict))
                if vote_is_settled(
                    votes, sources[started:], self.source_trust,
                    UNSCORED_TRUST,
                ):
                    break
        finally:
            # a pair that raised is counted: it was started
            if started:
                self._metrics.counter("verifier.verifications").inc(started)
        final, margin = weighted_vote(
            votes, self.source_trust, UNSCORED_TRUST
        )
        return outcomes, final, margin

    def deciding_outcome(
        self, outcomes: Sequence[VerificationOutcome]
    ) -> Optional[VerificationOutcome]:
        """The outcome whose vote decided a pool over ``outcomes`` (see
        :func:`~repro.trust.model.deciding_vote`), or None when every
        outcome abstained."""
        votes = [
            (self.source_of(self.lake.instance(o.evidence_id)), o.verdict)
            for o in outcomes
        ]
        decider = deciding_vote(votes, self.source_trust, UNSCORED_TRUST)
        return None if decider is None else outcomes[decider[0]]
