"""End-to-end VerifAI pipeline on small lakes."""

import pytest

from repro.core.config import PAPER_FINE_K, VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.core.reranker import RerankerModule
from repro.datalake.types import Modality
from repro.llm.model import SimulatedLLM
from repro.rerank.colbert import LateInteractionReranker
from repro.rerank.table import TableReranker
from repro.rerank.tuples import TupleReranker
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.pasta import PastaVerifier
from repro.verify.verdict import Verdict


@pytest.fixture(scope="module")
def system(tiny_lake, quiet_profile):
    llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=4)
    return VerifAI(tiny_lake, llm=llm).build_indexes()


class TestConfig:
    def test_paper_fine_k(self):
        config = VerifAIConfig()
        assert config.fine_k(Modality.TUPLE) == PAPER_FINE_K[Modality.TUPLE] == 3
        assert config.fine_k(Modality.TEXT) == 3
        assert config.fine_k(Modality.TABLE) == 5

    def test_unknown_modality_default(self):
        assert VerifAIConfig().fine_k(Modality.KG_ENTITY) == 5


class TestRerankerRouting:
    def test_routes(self):
        from repro.datalake.types import Row

        module = RerankerModule()
        claim = ClaimObject("c", "x")
        tuple_obj = TupleObject("t", Row("t", 0, ("a",), ("1",)))
        assert isinstance(module.route(claim, Modality.TABLE), TableReranker)
        assert isinstance(module.route(claim, Modality.TEXT),
                          LateInteractionReranker)
        assert isinstance(module.route(tuple_obj, Modality.TUPLE), TupleReranker)
        assert isinstance(module.route(tuple_obj, Modality.TEXT),
                          LateInteractionReranker)


class TestVerifyTuple:
    def test_correct_value_verified(self, system, election_table):
        obj = TupleObject("o1", election_table.row(0), attribute="party")
        report = system.verify(obj)
        assert report.final_verdict is Verdict.VERIFIED
        assert report.supporting

    def test_wrong_value_refuted_by_the_counterpart_tuple(
        self, system, election_table
    ):
        wrong = election_table.row(0).replace_value("votes", "55,000")
        obj = TupleObject("o2", wrong, attribute="votes")
        report = system.verify(obj)
        assert report.final_verdict is Verdict.REFUTED
        # the top-ranked tuple decides; the entity page is on the
        # shortlist but is never verified
        assert [o.evidence_id for o in report.refuting] == ["t-ohio-1950#r0"]
        assert report.outcomes == report.refuting
        assert report.evidence_ids[0] == "t-ohio-1950#r0"
        assert "page-jenkins" in report.evidence_ids

    def test_report_summary_readable(self, system, election_table):
        obj = TupleObject("o3", election_table.row(1), attribute="party")
        summary = system.verify(obj).summary()
        assert "o3" in summary
        assert "supporting" in summary


class TestVerifyClaim:
    def test_true_claim(self, system, medal_table):
        obj = ClaimObject("c1", "the gold of valoria is 10",
                          context=medal_table.caption)
        report = system.verify(obj)
        assert report.final_verdict is Verdict.VERIFIED

    def test_false_aggregate_claim(self, system, medal_table):
        obj = ClaimObject(
            "c2", f"the total gold in {medal_table.caption} is 99",
            context=medal_table.caption,
        )
        report = system.verify(obj)
        assert report.final_verdict is Verdict.REFUTED

    def test_unrelated_claim(self, system):
        obj = ClaimObject(
            "c3", "the population of atlantis is 1,000,000",
            context="cities of atlantis census",
        )
        report = system.verify(obj)
        assert report.final_verdict is Verdict.NOT_RELATED


class TestProvenanceIntegration:
    def test_every_verify_leaves_a_record(self, system, election_table):
        before = len(system.provenance)
        obj = TupleObject("o9", election_table.row(2), attribute="party")
        report = system.verify(obj)
        assert len(system.provenance) == before + 1
        assert report.record_id

    def test_explain_replays(self, system, election_table):
        obj = TupleObject("o10", election_table.row(2), attribute="party")
        report = system.verify(obj)
        rendered = system.explain(report)
        assert "coarse:tuple" in rendered
        assert "final:" in rendered


class TestLocalVerifierPipeline:
    def test_prefer_local_uses_pasta_for_claims(self, tiny_lake, quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=5)
        system = VerifAI(
            tiny_lake,
            llm=llm,
            config=VerifAIConfig(prefer_local=True),
            local_verifiers=[PastaVerifier(model_noise=0.0)],
        ).build_indexes()
        obj = ClaimObject(
            "c", "the gold of valoria is 10",
            context="1960 summer games in lakeview medal table",
        )
        report = system.verify(obj)
        assert any(o.verifier == "pasta" for o in report.outcomes)


class TestRerankedPipeline:
    def test_reranker_path_works(self, tiny_lake, quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=6)
        system = VerifAI(
            tiny_lake, llm=llm,
            config=VerifAIConfig(use_reranker=True, k_coarse=10),
        ).build_indexes()
        obj = ClaimObject(
            "c", "the gold of valoria is 10",
            context="1960 summer games in lakeview medal table",
        )
        report = system.verify(obj)
        assert report.final_verdict is Verdict.VERIFIED
        # the provenance record shows both stages
        rendered = system.explain(report)
        assert "coarse:table" in rendered
        assert "rerank:table" in rendered

    def test_semantic_index_path_works(self, tiny_lake, quiet_profile):
        llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=7)
        system = VerifAI(
            tiny_lake, llm=llm,
            config=VerifAIConfig(use_semantic_index=True, embedding_dim=64),
        ).build_indexes()
        obj = TupleObject(
            "o", tiny_lake.table("t-ohio-1950").row(0), attribute="party"
        )
        assert system.verify(obj).final_verdict is Verdict.VERIFIED
