"""Trust estimation and trust-weighted voting."""

import pytest

from repro.trust.model import (
    ValueClaim,
    ValueTrustModel,
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
    def test_uniform_majority(self):
        verdict, margin = weighted_vote(
            [("s1", Verdict.VERIFIED), ("s2", Verdict.VERIFIED),
             ("s3", Verdict.REFUTED)],
            {},
            default_trust=1.0,
        )
        assert verdict is Verdict.VERIFIED
        assert margin == pytest.approx(1 / 3)

    def test_trust_flips_outcome(self):
        votes = [
            ("trusted", Verdict.VERIFIED),
            ("junk-a", Verdict.REFUTED),
            ("junk-b", Verdict.REFUTED),
        ]
        uniform, _ = weighted_vote(votes, {}, default_trust=1.0)
        weighted, _ = weighted_vote(
            votes, {"trusted": 0.9, "junk-a": 0.1, "junk-b": 0.1}
        )
        assert uniform is Verdict.REFUTED
        assert weighted is Verdict.VERIFIED

    def test_abstentions_only(self):
        verdict, margin = weighted_vote(
            [("s", Verdict.NOT_RELATED)], {}, default_trust=1.0
        )
        assert verdict is Verdict.NOT_RELATED
        assert margin == 0.0

    def test_empty(self):
        assert weighted_vote([], {})[0] is Verdict.NOT_RELATED

    def test_exact_tie_abstains(self):
        # a perfect support/against tie carries no signal either way:
        # the vote must abstain rather than default to VERIFIED
        verdict, margin = weighted_vote(
            [("a", Verdict.VERIFIED), ("b", Verdict.REFUTED)], {},
            default_trust=1.0,
        )
        assert verdict is Verdict.NOT_RELATED
        assert margin == 0.0

    def test_weighted_tie_abstains(self):
        verdict, _ = weighted_vote(
            [("heavy", Verdict.VERIFIED),
             ("light-a", Verdict.REFUTED), ("light-b", Verdict.REFUTED)],
            {"heavy": 0.8, "light-a": 0.4, "light-b": 0.4},
        )
        assert verdict is Verdict.NOT_RELATED
