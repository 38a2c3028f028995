"""The pipeline with every optional feature enabled at once.

Semantic index + text chunking + reranking + local verifiers + trust
weights, end to end — the configuration surface a production deployment
would actually run.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
from repro.llm.model import SimulatedLLM
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.pasta import PastaVerifier
from repro.verify.verdict import Verdict


@pytest.fixture(scope="module")
def full_system(tiny_lake, quiet_profile):
    llm = SimulatedLLM(knowledge=None, profile=quiet_profile, seed=50)
    config = VerifAIConfig(
        use_semantic_index=True,
        use_reranker=True,
        chunk_text=True,
        chunk_max_tokens=24,
        k_coarse=20,
        prefer_local=True,
    )
    return VerifAI(
        tiny_lake,
        llm=llm,
        config=config,
        local_verifiers=[PastaVerifier(model_noise=0.0)],
        source_trust={"tabfact": 0.9, "wikipages": 0.8},
    ).build_indexes()


class TestFullConfiguration:
    def test_tuple_verification(self, full_system, election_table):
        obj = TupleObject("f1", election_table.row(0), attribute="party")
        report = full_system.verify(obj)
        assert report.final_verdict is Verdict.VERIFIED

    def test_wrong_tuple_refuted(self, full_system, election_table):
        wrong = election_table.row(0).replace_value("votes", "55,000")
        obj = TupleObject("f2", wrong, attribute="votes")
        report = full_system.verify(obj)
        assert report.final_verdict is Verdict.REFUTED

    def test_claim_routed_to_pasta(self, full_system, medal_table):
        obj = ClaimObject(
            "f3", "the gold of valoria is 10", context=medal_table.caption
        )
        report = full_system.verify(obj)
        assert any(o.verifier == "pasta" for o in report.outcomes)
        assert report.final_verdict is not None

    def test_text_evidence_is_whole_documents(self, full_system,
                                              election_table):
        obj = TupleObject("f4", election_table.row(0), attribute="votes")
        hits = full_system.retrieve(obj, Modality.TEXT)
        assert hits
        assert all("#c" not in h.instance_id for h in hits)

    def test_provenance_records_both_stages(self, full_system, election_table):
        obj = TupleObject("f5", election_table.row(1), attribute="party")
        report = full_system.verify(obj)
        rendered = full_system.explain(report)
        assert "coarse:tuple" in rendered
        assert "rerank:tuple" in rendered
