"""``weighted_vote`` as ``src/repro/trust/model.py`` held it at
a502626: the dispatch over the verdict has no NOT_RELATED branch
(CTR002), and the float vote total is compared with ``==`` (CTR003)."""

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
    total = support + against
    if total == 0:
        return Verdict.NOT_RELATED, 0.0
    if support >= against:
        return Verdict.VERIFIED, (support - against) / total
    return Verdict.REFUTED, (against - support) / total
