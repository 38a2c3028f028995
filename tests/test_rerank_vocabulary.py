"""ColBERT's token vocabulary fills lazily.

``VerifAI.build_indexes()`` embeds no token: no default route sends a
tuple to the ColBERT reranker, so nothing reads a lake token until a
rerank meets it (``tests/test_core_pipeline.py`` pins that the build
leaves the embedder's table unallocated).  What must hold: the build
fetches no payload; a tuple campaign embeds no token; a claim campaign
composes each token it reads once, and only those; every vector has the
bits of a first touch, whatever order the vocabulary grew in, so no
report and no rerank score moves with that order; a document added to a
built system is embedded by the first rerank that meets it, with the
bits a fresh system's first rerank gives the same hits.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality, TextDocument
from repro.embed.token_embed import TokenEmbedder
from repro.llm.model import SimulatedLLM
from repro.text import analyze
from repro.verify.objects import ClaimObject
from tests.test_index_ranking import ParentEmbedder
from tests.test_rerank_readings import CLAIM_MODALITIES, campaign_objects


def full_system(lake):
    """The paper's whole pipeline over ``lake``, built by
    ``build_indexes()``."""
    return VerifAI(
        lake,
        llm=SimulatedLLM(knowledge=None, seed=7),
        config=VerifAIConfig(use_semantic_index=True, use_reranker=True),
    ).build_indexes()


def embedder_of(system):
    return system.reranker.text_text.embedder


def lake_tokens(system):
    """Every analysed token of the TEXT payloads ``rerank`` is handed."""
    return {
        token
        for document in system.lake.iter_instances(Modality.TEXT)
        for token in analyze(system.indexer.fetch_payload(document.instance_id))
    }


@pytest.fixture(scope="module")
def twin_lake(small_bundle):
    """The small bundle's lake with a twin of every third document: a
    twin's payload is its original's, so the two tie at every stage and
    the id decides their order."""
    lake = DataLake(name="twins")
    for table in small_bundle.tables:
        lake.add_table(table)
    for position, document in enumerate(small_bundle.lake.documents()):
        lake.add_document(document)
        if position % 3 == 0:
            lake.add_document(
                TextDocument(
                    doc_id=f"{document.doc_id}-twin", title=document.title,
                    text=document.text, source=document.source,
                )
            )
    return lake


@pytest.mark.parametrize("use_reranker", [False, True])
def test_the_build_fetches_no_payload(twin_lake, monkeypatch, use_reranker):
    system = VerifAI(twin_lake, config=VerifAIConfig(use_reranker=use_reranker))
    fetched = []
    fetch = system.indexer.fetch_payload
    monkeypatch.setattr(
        system.indexer, "fetch_payload",
        lambda instance_id: fetched.append(instance_id) or fetch(instance_id),
    )
    system.build_indexes()
    system.build_indexes()
    assert fetched == []
    assert embedder_of(system)._table is None


def report_view(report):
    return (
        report.object_id, report.status, report.final_verdict, report.margin,
        report.evidence_ids, report.outcomes,
    )


def stage_view(system, reports):
    """Every retrieval stage of every report: ids and ``float.hex``
    scores, so the last bit of a rerank score counts."""
    return [
        (step.stage, [(i, float(score).hex()) for i, score in step.hits])
        for report in reports
        for step in system.provenance.get(report.record_id).retrieval
    ]


def run_claims(system, bundle, max_workers):
    _, claims = campaign_objects(bundle)
    return list(
        system.verify_batch(
            claims, modalities=CLAIM_MODALITIES, max_workers=max_workers
        )
    )


def recording_compose(embedder, monkeypatch):
    """Every token ``embedder`` composes from here on, in call order."""
    composed = []
    compose = embedder._compose
    monkeypatch.setattr(
        embedder, "_compose",
        lambda token: composed.append(token) or compose(token),
    )
    return composed


class TestALazyCampaign:
    def test_a_tuple_campaign_embeds_no_token(
        self, twin_lake, small_bundle, monkeypatch
    ):
        system = full_system(twin_lake)
        composed = recording_compose(embedder_of(system), monkeypatch)
        tuples, _ = campaign_objects(small_bundle)
        assert len(list(system.verify_batch(tuples, max_workers=1))) == 60
        assert composed == []
        assert embedder_of(system)._table is None

    def test_a_claim_campaign_composes_each_token_it_reads_once(
        self, twin_lake, small_bundle, monkeypatch
    ):
        system = full_system(twin_lake)
        composed = recording_compose(embedder_of(system), monkeypatch)
        reports = run_claims(system, small_bundle, max_workers=1)
        _, claims = campaign_objects(small_bundle)
        read = {token for claim in claims for token in analyze(claim.query_text())}
        for report in reports:
            for step in system.provenance.get(report.record_id).retrieval:
                if step.stage == "coarse:text":
                    for instance_id, _ in step.hits:
                        read.update(
                            analyze(system.indexer.fetch_payload(instance_id))
                        )
        assert len(composed) == len(set(composed))
        assert set(composed) == read
        assert set(embedder_of(system)._vocabulary) == read
        # the coarse lists reach only part of the lake
        assert read & lake_tokens(system) < lake_tokens(system)

    def test_every_vector_has_the_bits_of_a_first_touch(
        self, twin_lake, small_bundle
    ):
        system = full_system(twin_lake)
        run_claims(system, small_bundle, max_workers=1)
        embedder = embedder_of(system)
        tokens = list(embedder._vocabulary)
        lazy = embedder.embed_tokens(tokens)
        for reference in (TokenEmbedder(), ParentEmbedder()):
            # first touches in sorted order, so other row ids
            reference.token_rows(sorted(tokens))
            assert list(reference._vocabulary) != tokens
            assert reference.embed_tokens(tokens).tobytes() == lazy.tobytes()

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_reports_and_rerank_scores_do_not_move(
        self, twin_lake, small_bundle, max_workers
    ):
        """A campaign over a lazy vocabulary reads what one over a
        vocabulary filled beforehand with the lake's tokens, in sorted
        order, reads."""
        seen = []
        for prefill in (True, False):
            system = full_system(twin_lake)
            if prefill:
                embedder_of(system).token_rows(sorted(lake_tokens(system)))
            reports = run_claims(system, small_bundle, max_workers)
            seen.append(
                ([report_view(r) for r in reports], stage_view(system, reports))
            )
        assert seen[0] == seen[1]
        views, stages = seen[0]
        assert len(views) == 40
        reranked = [hits for stage, hits in stages if stage == "rerank:text"]
        assert len(reranked) == 40
        # twins tie in the shortlist, so the id order is exercised
        assert any(
            len({score for _, score in hits}) < len(hits) for hits in reranked
        )


def test_a_document_added_after_the_build_is_embedded_by_its_first_rerank(
    small_bundle,
):
    lake = DataLake(name="grown")
    for table in small_bundle.tables[:12]:
        lake.add_table(table)
    for document in small_bundle.lake.documents()[:40]:
        lake.add_document(document)
    system = full_system(lake)
    late = TextDocument(
        doc_id="page-late", title="Quokka of Zanzibar",
        text="The quokkas of zanzibar were counted in 1958: 4,210 quokkas.",
        source=small_bundle.lake.documents()[0].source,
    )
    lake.add_document(late)
    system.add_instance(late)
    embedder = embedder_of(system)
    new = set(analyze(serialize_instance(late))) - set(embedder._vocabulary)
    assert {"quokka", "zanzibar"} <= new
    claim = ClaimObject("c-late", "zanzibar counted 4,210 quokkas in 1958")
    late_hits = system.retrieve(claim, Modality.TEXT)
    assert new <= set(embedder._vocabulary)
    fresh = full_system(lake)
    assert embedder_of(fresh)._table is None
    fresh_hits = fresh.retrieve(claim, Modality.TEXT)
    assert new <= set(embedder_of(fresh)._vocabulary)
    assert late_hits[0].instance_id == "page-late"
    assert [(h.instance_id, h.score.hex()) for h in late_hits] == [
        (h.instance_id, h.score.hex()) for h in fresh_hits
    ]
