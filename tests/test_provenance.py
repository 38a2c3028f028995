"""Verification lineage and generation logging."""

import hashlib
import random
from array import array
from pathlib import Path

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import DEFAULT_MODALITIES, VerifAI
from repro.datalake.types import Modality, Row
from repro.index.base import SearchHit, hits_of
from repro.llm.model import SimulatedLLM
from repro.provenance.generation import GenerationLog
from repro.provenance.store import ProvenanceStore, RetrievalStep
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


# ----------------------------------------------------------------------
# the stored format: columns in memory, ``(id, score)`` pairs on disk
# ----------------------------------------------------------------------
DATA = Path(__file__).resolve().parent / "data"
#: ``seeded_store().save()`` as written when every stage was kept as
#: ``(id, score)`` pair tuples
PARENT_FORMAT = DATA / "provenance_parent.json"
#: every record's ``explain()`` then its ``evidence_ids()``, from the same
#: code and store
PARENT_EXPLAIN = DATA / "provenance_parent_explain.txt"


def seeded_store(seed=53):
    """Four finalized records shaped like ``campaign_full``'s (two
    50-hit coarse stages, each followed by a 3-hit rerank of its head),
    one failed and one still open; scores of every magnitude."""
    rng = random.Random(seed)
    pool = [f"t{rng.randrange(900)}#r{rng.randrange(40)}" for _ in range(400)]
    store = ProvenanceStore()
    for number in range(6):
        record = store.new_record(f"obj-{number}", f"query {number} café")
        for modality in ("tuple", "text"):
            coarse = rng.sample(pool, 50)
            scores = sorted(
                (rng.random() * 10 ** rng.randint(-7, 2) for _ in coarse),
                reverse=True,
            )
            scores[3] = scores[4]  # a tie
            record.add_ranking(f"coarse:{modality}", coarse, scores)
            record.add_stage(f"rerank:{modality}", [
                SearchHit(score, instance_id) for instance_id, score in zip(
                    coarse[:3], (1.0, -rng.random(), 1e-6)
                )
            ])
        if number == 4:
            record.mark_failed("model timed out after 3 tries")
            continue
        if number == 5:
            continue  # left open
        for evidence_id in coarse[:3]:
            record.add_outcome(
                evidence_id, "llm", Verdict(rng.randrange(3)), "matches — ok"
            )
        record.trace_id = f"trace-{number:04d}" if number % 2 else ""
        record.finalize(Verdict.VERIFIED, rng.random())
    return store


def explained(store):
    """What :data:`PARENT_EXPLAIN` holds, from ``store``."""
    return "\n\n".join(
        store.explain(record_id) + "\nevidence: "
        + " ".join(store.get(record_id).evidence_ids())
        for record_id in (f"rec-{n:06d}" for n in range(1, len(store) + 1))
    ) + "\n"


class TestTheParentFormat:
    def test_save_writes_the_parent_bytes(self, tmp_path):
        seeded_store().save(tmp_path / "store.json")
        assert (
            (tmp_path / "store.json").read_bytes()
            == PARENT_FORMAT.read_bytes()
        )

    def test_load_then_save_round_trips(self, tmp_path):
        loaded = ProvenanceStore.load(PARENT_FORMAT)
        loaded.save(tmp_path / "again.json")
        assert (
            (tmp_path / "again.json").read_bytes()
            == PARENT_FORMAT.read_bytes()
        )
        assert explained(loaded) == PARENT_EXPLAIN.read_text("utf-8")

    def test_explain_and_evidence_are_the_parents(self):
        store = seeded_store()
        full = store.get("rec-000001")
        assert [
            (step.stage, len(step.ids)) for step in full.retrieval
        ] == [
            ("coarse:tuple", 50), ("rerank:tuple", 3),
            ("coarse:text", 50), ("rerank:text", 3),
        ]
        assert explained(store) == PARENT_EXPLAIN.read_text("utf-8")

    def test_a_stage_is_two_columns(self):
        step = seeded_store().get("rec-000001").retrieval[0]
        assert isinstance(step.ids, tuple)
        assert isinstance(step.scores, array) and step.scores.typecode == "d"
        assert step.hits == tuple(zip(step.ids, step.scores))
        assert not hasattr(step, "__dict__")
        assert not hasattr(seeded_store().get("rec-000001"), "__dict__")

    def test_evidence_lookup_reads_every_stage(self):
        store = seeded_store()
        for record_id in ("rec-000001", "rec-000005"):
            record = store.get(record_id)
            for step in record.retrieval:
                for instance_id in (step.ids[0], step.ids[-1]):
                    assert record in store.records_using_evidence(instance_id)
        assert [
            record.record_id for record in store.records_using_evidence(
                store.get("rec-000002").retrieval[2].ids[-1]
            )
        ] == [
            record_id for record_id in (
                f"rec-{n:06d}" for n in range(1, len(store) + 1)
            )
            if store.get("rec-000002").retrieval[2].ids[-1]
            in store.get(record_id).evidence_ids()
        ]

    def test_a_step_equals_one_built_from_its_pairs(self):
        step = RetrievalStep("s", ("a", "b"), array("d", [2.5, 1.0]))
        assert step == RetrievalStep("s", ("a", "b"), array("d", [2.5, 1.0]))
        assert step != RetrievalStep("s", ("a", "b"), array("d", [2.5, 1.5]))
        assert step.hits == (("a", 2.5), ("b", 1.0))


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
