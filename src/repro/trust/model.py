"""Source trust from value agreement, and the trust-weighted vote.

Sources claim values for facts; a source whose values other sources
corroborate earns trust — the truth-discovery fixed point of
Knowledge-Based Trust and TruthFinder.  :func:`weighted_vote` pools a
verifier's per-evidence verdicts with those trusts: the first decisive
verdict in rank order from a trusted source decides, and a source
trusted less than :data:`TRUSTED` only when no trusted one is decisive;
NOT_RELATED verdicts abstain, since unrelated evidence says nothing
about the object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.verify.verdict import Verdict


@dataclass
class TrustScores:
    """Result of trust estimation."""

    source_trust: Dict[str, float]
    object_truth: Dict[str, float]  # confidence in each fact's best value
    iterations: int

    def trust_of(self, source: str, default: float = 0.5) -> float:
        return self.source_trust.get(source, default)


@dataclass(frozen=True)
class ValueClaim:
    """A source asserting a value for a fact key (e.g. (row, column))."""

    source: str
    fact_key: str
    value: str


class ValueTrustModel:
    """Value-level truth discovery (the Knowledge-Based-Trust setting).

    Sources claim *values* for facts; the fixed point jointly estimates
    which value is true per fact and how often each source asserts the
    estimated truth.  Unlike verdict-level voting, this breaks the
    symmetry between one clean and many dirty sources: independent
    corruptions disagree with *each other*, while correct sources keep
    agreeing with somebody.
    """

    def __init__(
        self,
        max_iterations: int = 50,
        tolerance: float = 1e-6,
        prior_trust: float = 0.7,
        smoothing: float = 1.0,
    ) -> None:
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.prior_trust = prior_trust
        self.smoothing = smoothing

    def fit(self, claims: Iterable[ValueClaim]) -> TrustScores:
        """Estimate source trust from value agreement structure."""
        claim_list = list(claims)
        sources = sorted({c.source for c in claim_list})
        trust: Dict[str, float] = {s: self.prior_trust for s in sources}
        by_fact: Dict[str, List[ValueClaim]] = {}
        by_source: Dict[str, List[ValueClaim]] = {}
        for claim in claim_list:
            by_fact.setdefault(claim.fact_key, []).append(claim)
            by_source.setdefault(claim.source, []).append(claim)
        truth_conf: Dict[str, float] = {}
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            # leave-one-out agreement: a source's claim is corroborated by
            # the trust of *other* sources asserting the same value —
            # self-votes would inflate every source symmetrically
            agreement: Dict[str, float] = {s: 0.0 for s in sources}
            weight: Dict[str, float] = {s: 0.0 for s in sources}
            for fact_claims in by_fact.values():
                if len(fact_claims) < 2:
                    continue
                total = sum(trust[c.source] for c in fact_claims)
                value_support: Dict[str, float] = {}
                for claim in fact_claims:
                    value_support[claim.value] = (
                        value_support.get(claim.value, 0.0) + trust[claim.source]
                    )
                for claim in fact_claims:
                    others_total = total - trust[claim.source]
                    if others_total <= 0:
                        continue
                    support = value_support[claim.value] - trust[claim.source]
                    agreement[claim.source] += support / others_total
                    weight[claim.source] += 1.0
            new_trust: Dict[str, float] = {}
            for source in sources:
                new_trust[source] = (
                    agreement[source] + self.smoothing * self.prior_trust
                ) / (weight[source] + self.smoothing)
            delta = max(
                abs(new_trust[s] - trust[s]) for s in sources
            ) if sources else 0.0
            trust = new_trust
            if delta < self.tolerance:
                break
        # report per-fact confidence in the best value
        for fact, fact_claims in by_fact.items():
            total = sum(trust[c.source] for c in fact_claims)
            best = 0.0
            for claim in fact_claims:
                score = sum(
                    trust[c.source]
                    for c in fact_claims
                    if c.value == claim.value
                )
                best = max(best, score / total if total else 0.0)
            truth_conf[fact] = best
        return TrustScores(
            source_trust=trust, object_truth=truth_conf, iterations=iterations
        )


#: A source trusted at least this much is more often right than wrong:
#: its decisive verdicts are read in rank order.  A source below it
#: decides only when no trusted source gives a decisive verdict.
TRUSTED = 0.5


def deciding_vote(
    votes: Sequence[Tuple[str, Verdict]],
    source_trust: Mapping[str, float],
    default_trust: float = 0.5,
) -> Optional[Tuple[int, float]]:
    """(position, trust) of the vote that decides ``votes``, given as
    (source, verdict) in evidence (rank) order, or None when every vote
    abstains.

    NOT_RELATED abstains.  The first decisive vote (VERIFIED or REFUTED)
    from a source trusted at least :data:`TRUSTED` decides; with none,
    the first decisive vote does.  A source missing from
    ``source_trust`` takes ``default_trust``.
    """
    fallback = None
    for position, (source, vote) in enumerate(votes):
        if vote is Verdict.NOT_RELATED:
            continue
        trust = source_trust.get(source, default_trust)
        if trust >= TRUSTED:
            return position, trust
        if fallback is None:
            fallback = position, trust
    return fallback


def weighted_vote(
    outcomes: Iterable[Tuple[str, Verdict]],
    source_trust: Mapping[str, float],
    default_trust: float = 0.5,
) -> Tuple[Verdict, float]:
    """Pool per-evidence verdicts, given in evidence (rank) order, into
    a final decision: (verdict, margin).

    The :func:`deciding_vote` decides, and the margin is its source's
    trust; with no decisive vote the result is (NOT_RELATED, 0.0).
    When every source is trusted — an empty ``source_trust`` at the
    default trust included — this is the first decisive vote.
    """
    votes = list(outcomes)
    decider = deciding_vote(votes, source_trust, default_trust)
    if decider is None:
        return Verdict.NOT_RELATED, 0.0
    position, trust = decider
    return votes[position][1], trust


def vote_is_settled(
    votes: Sequence[Tuple[str, Verdict]],
    later_sources: Iterable[str],
    source_trust: Mapping[str, float],
    default_trust: float = 0.5,
) -> bool:
    """Whether :func:`weighted_vote` over ``votes`` stays what it is
    whatever the pairs still to come, from ``later_sources``, vote: a
    vote decides, and it is trusted or no later source is."""
    decider = deciding_vote(votes, source_trust, default_trust)
    if decider is None:
        return False
    return decider[1] >= TRUSTED or all(
        source_trust.get(source, default_trust) < TRUSTED
        for source in later_sources
    )
