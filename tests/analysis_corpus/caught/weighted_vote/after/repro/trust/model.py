"""``weighted_vote`` as 0c78fb2 fixed it: the abstention branch is
explicit and the guard is an inequality."""

from typing import Iterable, Mapping, Tuple

from repro.verify.verdict import Verdict


def weighted_vote(
    outcomes: Iterable[Tuple[str, Verdict]],
    source_trust: Mapping[str, float],
    default_trust: float = 0.5,
) -> Tuple[Verdict, float]:
    support = 0.0
    against = 0.0
    for source, verdict in outcomes:
        weight = source_trust.get(source, default_trust)
        if verdict is Verdict.VERIFIED:
            support += weight
        elif verdict is Verdict.REFUTED:
            against += weight
        else:  # Verdict.NOT_RELATED abstains from the vote
            continue
    total = support + against
    if total <= 0.0:
        return Verdict.NOT_RELATED, 0.0
    if support >= against:
        return Verdict.VERIFIED, (support - against) / total
    return Verdict.REFUTED, (against - support) / total
