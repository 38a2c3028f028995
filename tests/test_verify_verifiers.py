"""Verdict model, LLM verifier, PASTA verifier, and the Agent."""

import pytest

from repro.llm.model import SimulatedLLM
from repro.verify.agent import VerifierAgent
from repro.verify.llm_verifier import LLMVerifier
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.pasta import PastaVerifier
from repro.verify.verdict import Verdict


@pytest.fixture()
def llm_verifier(quiet_profile):
    return LLMVerifier(SimulatedLLM(knowledge=None, profile=quiet_profile, seed=3))


class TestVerdict:
    def test_paper_encoding(self):
        assert int(Verdict.VERIFIED) == 0
        assert int(Verdict.REFUTED) == 1
        assert int(Verdict.NOT_RELATED) == 2

    def test_from_string(self):
        assert Verdict.from_string("Verified") is Verdict.VERIFIED
        assert Verdict.from_string("refuted") is Verdict.REFUTED
        assert Verdict.from_string("not related") is Verdict.NOT_RELATED
        assert Verdict.from_string("true") is Verdict.VERIFIED
        assert Verdict.from_string("false") is Verdict.REFUTED
        assert Verdict.from_string("gibberish") is None
        assert Verdict.from_string(None) is None

    def test_str(self):
        assert str(Verdict.NOT_RELATED) == "Not Related"


class TestDataObjects:
    def test_tuple_query_text(self, election_table):
        obj = TupleObject("o1", election_table.row(0), attribute="party")
        assert "district: ohio 1" in obj.query_text()

    def test_claim_query_text(self):
        obj = ClaimObject("c1", "some claim", context="scope")
        assert obj.query_text() == "some claim (scope)"
        assert ClaimObject("c2", "bare").query_text() == "bare"


class TestLLMVerifier:
    def test_supports_everything(self, llm_verifier, election_table, tiny_lake):
        obj = TupleObject("o", election_table.row(0), "party")
        assert llm_verifier.supports(obj, election_table)
        assert llm_verifier.supports(obj, election_table.row(1))
        assert llm_verifier.supports(obj, tiny_lake.document("page-jenkins"))

    def test_verifies_correct_tuple(self, llm_verifier, election_table):
        obj = TupleObject("o", election_table.row(0), "party")
        outcome = llm_verifier.verify(obj, election_table.row(0))
        assert outcome.verdict is Verdict.VERIFIED
        assert outcome.verifier == "llm"
        assert outcome.evidence_id == election_table.row(0).instance_id

    def test_refutes_wrong_tuple(self, llm_verifier, election_table):
        wrong = election_table.row(0).replace_value("party", "democratic")
        obj = TupleObject("o", wrong, "party")
        outcome = llm_verifier.verify(obj, election_table.row(0))
        assert outcome.verdict is Verdict.REFUTED
        assert outcome.is_refuted

    @pytest.mark.parametrize("response", [
        "gibberish", "Result: maybe\nExplanation: unsure", "",
    ])
    def test_an_unparseable_response_is_not_related(self, medal_table,
                                                   response):
        class Scripted:
            def chat(self, prompt):
                return response

        claim = ClaimObject("c", "the gold of valoria is 10")
        outcome = LLMVerifier(Scripted()).verify(claim, medal_table)
        assert outcome.verdict is Verdict.NOT_RELATED
        assert outcome.explanation == f"unparseable response: {response}"
        assert outcome.evidence_id == medal_table.instance_id

    def test_claim_against_table(self, llm_verifier, medal_table):
        obj = ClaimObject("c", "the gold of valoria is 10",
                          context=medal_table.caption)
        outcome = llm_verifier.verify(obj, medal_table)
        assert outcome.verdict is Verdict.VERIFIED


class TestPastaVerifier:
    def test_supports_only_claim_table(self, medal_table):
        pasta = PastaVerifier()
        claim = ClaimObject("c", "x")
        assert pasta.supports(claim, medal_table)
        assert not pasta.supports(claim, medal_table.row(0))
        tuple_obj = TupleObject("t", medal_table.row(0))
        assert not pasta.supports(tuple_obj, medal_table)

    def test_wrong_pair_raises(self, medal_table):
        with pytest.raises(TypeError):
            PastaVerifier().verify(TupleObject("t", medal_table.row(0)),
                                   medal_table)

    def test_exact_execution_true(self, medal_table):
        pasta = PastaVerifier(model_noise=0.0)
        obj = ClaimObject("c", "the total gold in the 1960 games is 19")
        assert pasta.verify(obj, medal_table).verdict is Verdict.VERIFIED

    def test_exact_execution_false(self, medal_table):
        pasta = PastaVerifier(model_noise=0.0)
        obj = ClaimObject("c", "the total gold in the 1960 games is 77")
        assert pasta.verify(obj, medal_table).verdict is Verdict.REFUTED

    def test_binary_output_never_not_related(self, medal_table, election_table):
        """PASTA cannot abstain: even unrelated evidence gets true/false."""
        pasta = PastaVerifier(model_noise=0.0)
        obj = ClaimObject("c", "the party of ohio 1 is republican")
        outcome = pasta.verify(obj, medal_table)
        assert outcome.verdict in (Verdict.VERIFIED, Verdict.REFUTED)

    def test_ood_paraphrase_uses_lexical_fallback(self, medal_table):
        pasta = PastaVerifier(model_noise=0.0)
        # 'recorded the most' is outside the strict grammar
        obj = ClaimObject("c", "valoria recorded the most gold in the games")
        outcome = pasta.verify(obj, medal_table)
        assert "heuristic" in outcome.explanation

    def test_lexical_fallback_says_true_on_high_overlap(self, medal_table):
        """The OOD failure mode: claims whose tokens all appear in an
        (irrelevant) table get 'true' from the fallback."""
        pasta = PastaVerifier(model_noise=0.0, lexical_true_threshold=0.6)
        obj = ClaimObject("c", "valoria norwind suthmark gold silver medals")
        outcome = pasta.verify(obj, medal_table)
        assert outcome.verdict is Verdict.VERIFIED

    def test_deterministic(self, medal_table):
        pasta = PastaVerifier(seed=9)
        obj = ClaimObject("c", "the total gold in the 1960 games is 19")
        assert pasta.verify(obj, medal_table).verdict is (
            pasta.verify(obj, medal_table).verdict
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PastaVerifier(lexical_true_threshold=2.0)
        with pytest.raises(ValueError):
            PastaVerifier(model_noise=-0.1)


class TestVerifierAgent:
    def test_prefers_local_when_supported(self, medal_table, llm_verifier):
        pasta = PastaVerifier()
        agent = VerifierAgent([pasta], fallback=llm_verifier, prefer_local=True)
        claim = ClaimObject("c", "the gold of valoria is 10")
        assert agent.choose(claim, medal_table) is pasta

    def test_falls_back_for_unsupported_pairs(self, medal_table, llm_verifier):
        pasta = PastaVerifier()
        agent = VerifierAgent([pasta], fallback=llm_verifier, prefer_local=True)
        tuple_obj = TupleObject("t", medal_table.row(0), "gold")
        assert agent.choose(tuple_obj, medal_table.row(0)) is llm_verifier

    def test_prefer_local_false_routes_to_fallback(self, medal_table, llm_verifier):
        pasta = PastaVerifier()
        agent = VerifierAgent([pasta], fallback=llm_verifier, prefer_local=False)
        claim = ClaimObject("c", "the gold of valoria is 10")
        assert agent.choose(claim, medal_table) is llm_verifier

    def test_a_local_verifier_is_the_last_resort(self, medal_table):
        class Declines(LLMVerifier):
            def supports(self, obj, evidence):
                return False

        pasta = PastaVerifier()
        agent = VerifierAgent(
            [pasta], fallback=Declines(None), prefer_local=False
        )
        claim = ClaimObject("c", "the gold of valoria is 10")
        assert agent.choose(claim, medal_table) is pasta
        assert agent.verify(claim, medal_table).verifier == pasta.name

    def test_requires_some_verifier(self):
        with pytest.raises(ValueError):
            VerifierAgent([], fallback=None)

    def test_no_supporting_verifier_raises(self, medal_table):
        pasta = PastaVerifier()
        agent = VerifierAgent([pasta], fallback=None)
        tuple_obj = TupleObject("t", medal_table.row(0))
        with pytest.raises(LookupError):
            agent.choose(tuple_obj, medal_table.row(0))

    def test_verify_each_evidence(self, medal_table, llm_verifier):
        agent = VerifierAgent([], fallback=llm_verifier)
        claim = ClaimObject("c", "the gold of valoria is 10",
                            context=medal_table.caption)
        evidence = [medal_table, medal_table.row(0)]
        outcomes = [agent.verify(claim, e) for e in evidence]
        assert [o.evidence_id for o in outcomes] == [
            e.instance_id for e in evidence
        ]
        assert all(o.verifier == llm_verifier.name for o in outcomes)
