"""Verification lineage and generation logging."""

import hashlib

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import DEFAULT_MODALITIES, VerifAI
from repro.datalake.types import Modality, Row
from repro.index.base import SearchHit, hits_of
from repro.llm.model import SimulatedLLM
from repro.provenance.generation import GenerationLog
from repro.provenance.store import ProvenanceStore
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.verdict import Verdict


def make_record(store, object_id="obj-1"):
    record = store.new_record(object_id, "the query text")
    record.add_stage(
        "coarse:tuple",
        [SearchHit(0.9, "t1#r0"), SearchHit(0.5, "t1#r1")],
    )
    record.add_stage("rerank:tuple", [SearchHit(0.95, "t1#r0")])
    record.add_outcome("t1#r0", "llm", Verdict.VERIFIED, "matches")
    record.final_verdict = int(Verdict.VERIFIED)
    record.final_margin = 1.0
    return record


class TestProvenanceStore:
    def test_record_ids_sequential(self):
        store = ProvenanceStore()
        a = store.new_record("o1", "q")
        b = store.new_record("o2", "q")
        assert a.record_id != b.record_id
        assert len(store) == 2

    def test_records_for_object(self):
        store = ProvenanceStore()
        make_record(store, "obj-A")
        make_record(store, "obj-A")
        make_record(store, "obj-B")
        assert len(store.records_for_object("obj-A")) == 2
        assert store.records_for_object("missing") == []

    def test_records_using_evidence(self):
        store = ProvenanceStore()
        record = make_record(store)
        assert store.records_using_evidence("t1#r0") == [record]
        assert store.records_using_evidence("t1#r1") == [record]  # retrieved
        assert store.records_using_evidence("zzz") == []

    def test_evidence_ids_deduplicated_in_order(self):
        store = ProvenanceStore()
        record = make_record(store)
        assert record.evidence_ids() == ["t1#r0", "t1#r1"]

    def test_explain_renders_stages_and_outcomes(self):
        store = ProvenanceStore()
        record = make_record(store)
        rendered = store.explain(record.record_id)
        assert "coarse:tuple" in rendered
        assert "rerank:tuple" in rendered
        assert "Verified" in rendered
        assert "the query text" in rendered

    def test_save_load_round_trip(self, tmp_path):
        store = ProvenanceStore()
        make_record(store, "obj-A")
        make_record(store, "obj-B")
        path = tmp_path / "prov.json"
        store.save(path)
        loaded = ProvenanceStore.load(path)
        assert len(loaded) == 2
        assert loaded.records_for_object("obj-A")
        # counter continues after reload
        fresh = loaded.new_record("obj-C", "q")
        assert fresh.record_id == "rec-000003"

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            ProvenanceStore().get("rec-000001")


class TestGenerationLog:
    def test_log_and_lookup(self):
        log = GenerationLog()
        record = log.log("prompt text", "response text", object_id="obj-1")
        assert log.for_object("obj-1") is record
        assert len(log) == 1

    def test_link_verification(self):
        log = GenerationLog()
        log.log("p", "r", object_id="obj-1")
        log.link_verification("obj-1", "rec-000001")
        assert log.for_object("obj-1").verification_record_ids == ["rec-000001"]

    def test_link_unknown_object_noop(self):
        log = GenerationLog()
        log.link_verification("missing", "rec-000001")  # must not raise

    def test_for_object_missing(self):
        assert GenerationLog().for_object("nope") is None

    def test_records_listing(self):
        log = GenerationLog()
        log.log("p1", "r1")
        log.log("p2", "r2")
        assert len(log.records()) == 2


# ----------------------------------------------------------------------
# the full pipeline's records: stages written from columns
# ----------------------------------------------------------------------
#: ``campaign_digest`` of the full-pipeline campaign on the tiny lake,
#: taken before the coarse stage stayed in columns up to the record;
#: every report and every stage of every record is unchanged since
TINY_FULL_DIGEST = (
    "742368219f123ab18149b331cc6241fc55a762f8de5ca2505340cd8cd4cbbe8e"
)

#: claims asked of every modality reach all three rerankers: OpenTFV
#: (TABLE), ColBERT (TEXT) and the feature mixture (TUPLE)
CLAIM_MODALITIES = (Modality.TABLE, Modality.TEXT, Modality.TUPLE)


def tiny_objects(tables):
    """Every row's last cell as it is and corrupted, and six claims."""
    tuples = []
    for table in tables:
        for row in table.iter_rows():
            value = row.values[-1]
            for tag, cell in (("true", value), ("false", f"{value} 7")):
                tuples.append(TupleObject(
                    f"{row.instance_id}-{tag}",
                    Row(row.table_id, row.row_index, row.columns,
                        row.values[:-1] + (cell,)),
                    attribute=row.columns[-1],
                ))
    medals, election = tables[1].caption, tables[0].caption
    claims = [
        ClaimObject("c-gold", "the gold of valoria is 10", context=medals),
        ClaimObject(
            "c-total", f"the total gold in {medals} is 99", context=medals
        ),
        ClaimObject("c-votes", "the votes of ohio 3 is 70,250",
                    context=election),
        ClaimObject("c-party", "the party of bill hess is democratic",
                    context=election),
        ClaimObject("c-elected", "tom jenkins was first elected in 1946"),
        ClaimObject(
            "c-atlantis", "the population of atlantis is 1,000,000",
            context="cities of atlantis census",
        ),
    ]
    return tuples, claims


def campaign_digest(system, reports):
    """sha256 over every report (verdict, margin, evidence, outcomes)
    and every stage of its record (name, then ``(id, score)`` pairs)."""
    digest = hashlib.sha256()
    for report in reports:
        digest.update(repr((
            report.object_id, report.final_verdict.name,
            float(report.margin).hex(), report.evidence_ids,
            [
                (o.evidence_id, o.verifier, o.verdict.name, o.explanation)
                for o in report.outcomes
            ],
        )).encode())
        for step in system.provenance.get(report.record_id).retrieval:
            digest.update(repr((
                step.stage, [(i, float(score).hex()) for i, score in step.hits]
            )).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def full_campaign(tiny_lake, election_table, medal_table):
    system = VerifAI(
        tiny_lake,
        llm=SimulatedLLM(knowledge=None, seed=7),
        config=VerifAIConfig(use_semantic_index=True, use_reranker=True),
    ).build_indexes()
    tuples, claims = tiny_objects((election_table, medal_table))
    reports = list(system.verify_batch(tuples + claims))
    reports += list(system.verify_batch(claims, modalities=CLAIM_MODALITIES))
    return system, tuples, claims, reports


class TestFullPipelineRecords:
    def test_reports_and_records_are_pinned(self, full_campaign):
        system, _, _, reports = full_campaign
        assert len(reports) == 26
        assert {
            step.stage for report in reports
            for step in system.provenance.get(report.record_id).retrieval
        } == {
            f"{kind}:{modality.value}" for kind in ("coarse", "rerank")
            for modality in CLAIM_MODALITIES
        }
        assert campaign_digest(system, reports) == TINY_FULL_DIGEST

    def test_columns_and_hits_record_equal_steps(self, full_campaign):
        """``add_ranking`` from a retrieval's columns and ``add_stage``
        from the same stage's hits write equal steps."""
        system, tuples, claims, _ = full_campaign
        from_columns = system.provenance.new_record("columns", "q")
        from_hits = system.provenance.new_record("hits", "q")
        for objs, modalities in (
            (tuples, DEFAULT_MODALITIES[TupleObject]),
            (claims, CLAIM_MODALITIES),
        ):
            for modality in modalities:
                for stages, shortlist in system.retrieval_stages_batch(
                    objs, modality
                ):
                    for name, (ids, scores) in stages:
                        from_columns.add_ranking(name, ids, scores)
                        from_hits.add_stage(
                            name, hits_of([(ids, scores)], name)[0]
                        )
                    # the shortlist the Verifier reads is the last stage
                    from_hits.add_stage("shortlist", shortlist)
                    from_columns.add_ranking("shortlist", *stages[-1][1])
        assert len(from_columns.retrieval) == 3 * (
            len(tuples) * 2 + len(claims) * 3
        )
        assert from_columns.retrieval == from_hits.retrieval

    def test_records_equal_the_hits_composition(self, full_campaign):
        """Every record's stages are what the public hit-returning calls
        compose to: ``indexer.search`` at the coarse depth, then
        ``reranker.rerank`` over those hits."""
        system, tuples, claims, reports = full_campaign
        runs = [
            (obj, DEFAULT_MODALITIES[type(obj)]) for obj in tuples + claims
        ] + [(obj, CLAIM_MODALITIES) for obj in claims]
        assert len(runs) == len(reports)
        for (obj, modalities), report in zip(runs, reports):
            expected = system.provenance.new_record(obj.object_id, "replay")
            for modality in modalities:
                coarse = system.indexer.search(obj.query_text(), modality)
                expected.add_stage(f"coarse:{modality.value}", coarse)
                expected.add_stage(
                    f"rerank:{modality.value}",
                    system.reranker.rerank(
                        obj, modality, coarse, system.indexer.fetch_payload,
                        system.config.fine_k(modality),
                    ),
                )
            got = system.provenance.get(report.record_id).retrieval
            assert got == expected.retrieval, obj.object_id

    def test_stage_spans_count_the_recorded_candidates(self, full_campaign):
        """A replayed stage span's ``hits`` is its stage's length: the
        coarse candidates, then the shortlist."""
        system, tuples, claims, _ = full_campaign
        batch = system.verify_batch(tuples + claims, trace=True)
        seen = 0
        for span in batch.trace.spans_named("verify"):
            record = system.provenance.get(span.record_id)
            stages = [
                child for child in batch.trace.children_of(span)
                if child.name != "verify_pool"
            ]
            assert [
                (child.name.replace("retrieve:", ""), child.attributes["hits"])
                for child in stages
            ] == [(step.stage, len(step.hits)) for step in record.retrieval]
            seen += len(stages)
        assert seen == 2 * (2 * len(tuples) + len(claims))
