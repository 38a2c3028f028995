"""Source-trust estimation (challenge C3).

The paper points to Knowledge-Based Trust (Dong et al., VLDB 2015) for
estimating the reliability of web sources; :class:`ValueTrustModel` is
the same fixed-point idea adapted to lake sources: source trust and fact
truth are estimated jointly from which values the sources agree on.
"""

from repro.trust.model import (
    TRUSTED,
    TrustScores,
    ValueClaim,
    ValueTrustModel,
    deciding_vote,
    vote_is_settled,
    weighted_vote,
)

__all__ = [
    "TRUSTED",
    "TrustScores",
    "ValueClaim",
    "ValueTrustModel",
    "deciding_vote",
    "vote_is_settled",
    "weighted_vote",
]
