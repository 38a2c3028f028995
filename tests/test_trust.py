"""Trust estimation and trust-weighted voting."""

import pytest

from repro.trust.model import (
    TRUSTED,
    ValueClaim,
    ValueTrustModel,
    deciding_vote,
    vote_is_settled,
    weighted_vote,
)
from repro.verify.verdict import Verdict


class TestValueTrustModel:
    def test_agreeing_sources_beat_loner(self):
        claims = []
        for i in range(30):
            claims.append(ValueClaim("clean-a", f"f{i}", "right"))
            claims.append(ValueClaim("clean-b", f"f{i}", "right"))
            claims.append(ValueClaim("noisy", f"f{i}", f"wrong-{i}"))
        scores = ValueTrustModel().fit(claims)
        assert scores.trust_of("clean-a") > scores.trust_of("noisy") + 0.3

    def test_independent_corruptions_disagree(self):
        """Two garbage sources disagree with each other and earn less
        trust than a source corroborated by anyone."""
        claims = []
        for i in range(30):
            claims.append(ValueClaim("clean-a", f"f{i}", "v"))
            claims.append(ValueClaim("clean-b", f"f{i}", "v"))
            claims.append(ValueClaim("junk-a", f"f{i}", f"x{i}"))
            claims.append(ValueClaim("junk-b", f"f{i}", f"y{i}"))
        scores = ValueTrustModel().fit(claims)
        assert scores.trust_of("junk-a") < scores.trust_of("clean-a") - 0.3
        assert scores.trust_of("junk-b") < scores.trust_of("clean-b") - 0.3

    def test_single_claim_facts_skipped(self):
        scores = ValueTrustModel().fit([ValueClaim("solo", "f1", "v")])
        # no corroboration possible -> trust stays at the prior
        assert scores.trust_of("solo") == pytest.approx(0.7, abs=0.01)

    def test_object_truth_confidence(self):
        claims = [
            ValueClaim("a", "f1", "v"),
            ValueClaim("b", "f1", "v"),
            ValueClaim("c", "f1", "w"),
        ]
        scores = ValueTrustModel().fit(claims)
        assert scores.object_truth["f1"] > 0.5

    def test_empty(self):
        scores = ValueTrustModel().fit([])
        assert scores.source_trust == {} and scores.object_truth == {}
        assert scores.trust_of("unknown") == 0.5
        assert scores.trust_of("unknown", default=0.25) == 0.25

    def test_stops_at_the_fixed_point_or_the_iteration_cap(self):
        claims = [
            ValueClaim(source, f"f{i}", "v" if source != "c" else f"x{i}")
            for i in range(10) for source in ("a", "b", "c")
        ]
        converged = ValueTrustModel().fit(claims)
        assert 1 < converged.iterations < 50
        capped = ValueTrustModel(max_iterations=1).fit(claims)
        assert capped.iterations == 1
        assert capped.trust_of("a") < converged.trust_of("a")

    def test_zero_prior_trust_corroborates_nobody(self):
        claims = [ValueClaim("a", "f1", "v"), ValueClaim("b", "f1", "v")]
        scores = ValueTrustModel(prior_trust=0.0).fit(claims)
        assert scores.source_trust == {"a": 0.0, "b": 0.0}
        assert scores.object_truth == {"f1": 0.0}


class TestWeightedVote:
    """The pooling rule: the first decisive vote (in evidence order)
    from a trusted source decides — from any source when no trusted one
    is decisive — and its trust is the margin."""

    def test_first_decisive_vote_wins(self):
        # a majority behind it does not matter: rank order does
        verdict, margin = weighted_vote(
            [("s0", Verdict.NOT_RELATED), ("s1", Verdict.REFUTED),
             ("s2", Verdict.VERIFIED), ("s3", Verdict.VERIFIED)],
            {},
            default_trust=1.0,
        )
        assert verdict is Verdict.REFUTED
        assert margin == 1.0

    def test_trust_takes_precedence_over_rank(self):
        votes = [
            ("junk-a", Verdict.REFUTED),
            ("trusted", Verdict.VERIFIED),
            ("junk-b", Verdict.REFUTED),
        ]
        uniform, _ = weighted_vote(votes, {}, default_trust=1.0)
        weighted, margin = weighted_vote(
            votes, {"trusted": 0.9, "junk-a": 0.1, "junk-b": 0.1}
        )
        assert uniform is Verdict.REFUTED
        assert weighted is Verdict.VERIFIED
        assert margin == 0.9

    def test_among_trusted_sources_rank_beats_trust(self):
        assert weighted_vote(
            [("fair", Verdict.REFUTED), ("best", Verdict.VERIFIED)],
            {"fair": 0.6, "best": 0.95},
        ) == (Verdict.REFUTED, 0.6)

    def test_among_distrusted_sources_rank_beats_trust(self):
        # with no trusted decisive vote, trust does not rank the rest:
        # a near-tie of low trusts would otherwise decide on noise
        assert weighted_vote(
            [("worst", Verdict.VERIFIED), ("poor", Verdict.REFUTED),
             ("good", Verdict.NOT_RELATED)],
            {"worst": 0.1, "poor": 0.4, "good": 0.9},
        ) == (Verdict.VERIFIED, 0.1)

    def test_a_source_at_the_trusted_mark_is_trusted(self):
        below = TRUSTED - 0.01
        assert weighted_vote(
            [("below", Verdict.REFUTED), ("at", Verdict.VERIFIED)],
            {"below": below, "at": TRUSTED},
        ) == (Verdict.VERIFIED, TRUSTED)

    def test_an_unknown_source_takes_the_default_trust(self):
        votes = [("known", Verdict.REFUTED), ("unknown", Verdict.VERIFIED)]
        assert weighted_vote(votes, {"known": 0.4})[0] is Verdict.VERIFIED
        assert weighted_vote(
            votes, {"known": 0.4}, default_trust=0.3
        ) == (Verdict.REFUTED, 0.4)

    def test_equal_trust_goes_to_the_earliest_vote(self):
        trust = {"a": 0.7, "b": 0.7, "low": 0.2}
        assert weighted_vote(
            [("low", Verdict.VERIFIED), ("a", Verdict.REFUTED),
             ("b", Verdict.VERIFIED)],
            trust,
        ) == (Verdict.REFUTED, 0.7)
        assert weighted_vote(
            [("low", Verdict.REFUTED), ("b", Verdict.VERIFIED),
             ("a", Verdict.REFUTED)],
            trust,
        ) == (Verdict.VERIFIED, 0.7)

    def test_abstentions_only(self):
        verdict, margin = weighted_vote(
            [("s", Verdict.NOT_RELATED), ("t", Verdict.NOT_RELATED)],
            {"s": 0.9}, default_trust=1.0,
        )
        assert verdict is Verdict.NOT_RELATED
        assert margin == 0.0

    def test_empty(self):
        assert weighted_vote([], {}) == (Verdict.NOT_RELATED, 0.0)

    def test_an_abstaining_source_cannot_outrank_a_decisive_one(self):
        verdict, margin = weighted_vote(
            [("trusted", Verdict.NOT_RELATED), ("junk", Verdict.REFUTED)],
            {"trusted": 0.9, "junk": 0.1},
        )
        assert verdict is Verdict.REFUTED
        assert margin == 0.1

    def test_the_margin_is_the_deciding_votes_trust(self):
        # and no other vote's: the same decider, more votes around it
        trust = {"d": 0.6, "x": 0.2, "y": 0.6}
        decider = [("d", Verdict.VERIFIED)]
        for votes in (
            decider,
            [("x", Verdict.REFUTED)] + decider,
            decider + [("y", Verdict.REFUTED), ("x", Verdict.VERIFIED)],
        ):
            assert weighted_vote(votes, trust) == (Verdict.VERIFIED, 0.6)

    def test_a_zero_trust_source_still_decides_alone(self):
        assert weighted_vote(
            [("zero", Verdict.REFUTED)], {"zero": 0.0}
        ) == (Verdict.REFUTED, 0.0)


class TestDecidingVote:
    def test_the_position_and_trust_of_the_decider(self):
        votes = [
            ("a", Verdict.NOT_RELATED), ("low", Verdict.VERIFIED),
            ("a", Verdict.REFUTED),
        ]
        # "a" is unscored: distrusted at 0.3, trusted at 0.8
        assert deciding_vote(votes, {"low": 0.2}, default_trust=0.3) == (
            1, 0.2
        )
        assert deciding_vote(votes, {"low": 0.2}, default_trust=0.8) == (
            2, 0.8
        )

    def test_no_decisive_vote(self):
        assert deciding_vote([("a", Verdict.NOT_RELATED)], {}) is None


class TestVoteIsSettled:
    """The early exit's predicate: no later vote can change the pool."""

    TRUST = {"low": 0.2, "high": 0.9}

    def test_undecided_is_never_settled(self):
        assert not vote_is_settled(
            [("high", Verdict.NOT_RELATED)], [], self.TRUST
        )

    def test_a_trusted_decider_is_settled(self):
        assert vote_is_settled(
            [("high", Verdict.REFUTED)], ["high", "low"], self.TRUST
        )

    def test_a_distrusted_decider_waits_for_trusted_sources(self):
        votes = [("low", Verdict.REFUTED)]
        assert not vote_is_settled(votes, ["low", "high"], self.TRUST)
        assert vote_is_settled(votes, ["low", "low"], self.TRUST)
        assert vote_is_settled(votes, [], self.TRUST)
