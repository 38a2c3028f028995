"""ColBERT's document side at index time.

With ``use_reranker`` on, ``VerifAI.build_indexes()`` embeds the distinct
analysed tokens of every TEXT payload — what the ColBERT reranker will
be handed — in one sorted ``token_rows`` call, the path a lazy first
touch takes.  What must hold: the vocabulary is the lake's, in sorted
order; every vector has the bits a first touch gives it; a campaign
afterwards embeds only words no payload has; no report and no rerank
score moves; the pass is made once; a document added later is embedded
by the first rerank that meets it.  The hammer at the end races
lock-free readers against the pass (``make sanitize`` runs this file).
"""

import random
import sys
import threading

import numpy as np
import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.lake import DataLake
from repro.datalake.serialize import serialize_instance
from repro.datalake.types import Modality, TextDocument
from repro.embed import token_embed
from repro.embed.token_embed import TokenEmbedder
from repro.llm.model import SimulatedLLM
from repro.rerank.colbert import LateInteractionReranker
from repro.text import analyze
from repro.verify.objects import ClaimObject
from tests.test_index_ranking import ParentEmbedder
from tests.test_rerank_readings import CLAIM_MODALITIES, campaign_objects


def full_system(lake, eager=True):
    """The paper's whole pipeline over ``lake``: built by
    ``build_indexes()``, or (``eager=False``) by the indexer alone, so
    every token is embedded by the first rerank that meets it."""
    system = VerifAI(
        lake,
        llm=SimulatedLLM(knowledge=None, seed=7),
        config=VerifAIConfig(use_semantic_index=True, use_reranker=True),
    )
    if eager:
        return system.build_indexes()
    system.indexer.build()
    return system


def lake_tokens(system):
    """Every analysed token of the TEXT payloads ``rerank`` is handed."""
    return {
        token
        for document in system.lake.iter_instances(Modality.TEXT)
        for token in analyze(system.indexer.fetch_payload(document.instance_id))
    }


def embedder_of(system):
    return system.reranker.text_text.embedder


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


@pytest.fixture(scope="module")
def built(twin_lake):
    return full_system(twin_lake)


class TestTheBuildPass:
    def test_the_vocabulary_is_the_lakes_in_sorted_order(self, built):
        vocabulary = embedder_of(built)._vocabulary
        assert len(vocabulary) > 500
        assert set(vocabulary) == lake_tokens(built)
        assert list(vocabulary) == sorted(vocabulary)
        assert list(vocabulary.values()) == list(range(len(vocabulary)))

    def test_every_vector_has_the_bits_of_a_first_touch(self, built):
        embedder = embedder_of(built)
        tokens = list(embedder._vocabulary)
        eager = embedder.embed_tokens(tokens)
        for reference in (TokenEmbedder(), ParentEmbedder()):
            # first touches in the order a lazy campaign would make them
            for document in built.lake.iter_instances(Modality.TEXT):
                reference.token_rows(
                    analyze(built.indexer.fetch_payload(document.instance_id))
                )
            assert list(reference._vocabulary) != tokens  # other row ids
            assert reference.embed_tokens(tokens).tobytes() == eager.tobytes()

    def test_one_pass_however_often_it_is_called(self, twin_lake, monkeypatch):
        passes = {}
        for config in (VerifAIConfig(), VerifAIConfig(use_reranker=True)):
            system = VerifAI(twin_lake, config=config)
            fetched = []
            fetch = system.indexer.fetch_payload
            monkeypatch.setattr(
                system.indexer, "fetch_payload",
                lambda instance_id: fetched.append(instance_id) or fetch(instance_id),
            )
            system.build_indexes()
            system.build_indexes()
            passes[config.use_reranker] = fetched
        assert passes[False] == []
        assert passes[True] == [d.doc_id for d in twin_lake.documents()]

    def test_a_lazily_built_system_makes_no_pass(self, twin_lake):
        system = full_system(twin_lake, eager=False)
        system.build_indexes()
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


def run_campaign(system, bundle, max_workers):
    tuples, claims = campaign_objects(bundle)
    reports = list(system.verify_batch(tuples, max_workers=max_workers))
    reports += list(
        system.verify_batch(
            claims, modalities=CLAIM_MODALITIES, max_workers=max_workers
        )
    )
    return reports


class TestACampaignAfterTheBuild:
    def test_it_embeds_only_words_no_payload_has(
        self, twin_lake, small_bundle, monkeypatch
    ):
        system = full_system(twin_lake)
        in_lake = lake_tokens(system)
        embedder = embedder_of(system)
        composed = []
        compose = embedder._compose
        monkeypatch.setattr(
            embedder, "_compose",
            lambda token: composed.append(token) or compose(token),
        )
        run_campaign(system, small_bundle, max_workers=1)
        tuples, claims = campaign_objects(small_bundle)
        asked = {
            token for obj in tuples + claims
            for token in analyze(obj.query_text())
        }
        assert composed, "the campaign's queries have words of their own"
        assert sorted(composed) == sorted(asked - in_lake)

    @pytest.mark.parametrize("max_workers", [1, 4])
    def test_reports_and_rerank_scores_do_not_move(
        self, twin_lake, small_bundle, max_workers
    ):
        seen = []
        for eager in (True, False):
            system = full_system(twin_lake, eager=eager)
            reports = run_campaign(system, small_bundle, max_workers)
            seen.append(
                ([report_view(r) for r in reports], stage_view(system, reports))
            )
        assert seen[0] == seen[1]
        views, stages = seen[0]
        assert len(views) == 100
        reranked = [hits for stage, hits in stages if stage == "rerank:text"]
        assert len(reranked) == 100
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
    fresh = full_system(lake)
    assert new <= set(embedder_of(fresh)._vocabulary)
    fresh_hits = fresh.retrieve(claim, Modality.TEXT)
    assert new <= set(embedder._vocabulary)
    assert late_hits[0].instance_id == "page-late"
    assert [(h.instance_id, h.score.hex()) for h in late_hits] == [
        (h.instance_id, h.score.hex()) for h in fresh_hits
    ]


@pytest.fixture(scope="module")
def lake_payloads(small_bundle):
    return [
        serialize_instance(document)
        for document in small_bundle.lake.documents()
    ]


def test_readers_race_the_build_pass(lake_payloads, monkeypatch):
    """Seven threads read lake tokens through the lock-free
    ``token_rows`` while an eighth makes the build pass on the same
    embedder, from the first token on: the vocabulary grows, the table
    regrows and the LRU evicts under them."""
    texts = [analyze(payload) for payload in lake_payloads]
    reference = TokenEmbedder()
    expected = [reference.embed_tokens(tokens).tobytes() for tokens in texts]
    monkeypatch.setattr(token_embed, "FEATURES_SIZE", 64)
    monkeypatch.setattr(token_embed, "_INITIAL_ROWS", 4)
    reranker = LateInteractionReranker()
    together = threading.Barrier(8)
    errors = []

    def build():
        together.wait(timeout=30)
        reranker.encode_documents(lake_payloads)

    def read(reader):
        order = list(range(len(texts)))
        random.Random(reader).shuffle(order)
        together.wait(timeout=30)
        for position in order:
            got = reranker.embedder.embed_tokens(texts[position])
            assert got.tobytes() == expected[position], position

    def guarded(work, *args):
        try:
            work(*args)
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(build,))]
        threads += [
            threading.Thread(target=guarded, args=(read, reader))
            for reader in range(7)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    vocabulary = reranker.embedder._vocabulary
    assert set(vocabulary) == set(reference._vocabulary)
    assert sorted(vocabulary.values()) == list(range(len(vocabulary)))
    assert len(reranker.embedder._feature_cache) <= 64
