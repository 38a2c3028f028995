"""An index is built by the first read that needs it.

``VerifAI.build_indexes()`` builds the modalities a default route reads
(TUPLE, TEXT, TABLE); anything else — the KG entities — is built,
content index, semantic index and Combiner together, by its first
search, and published only once filled and sealed.  What must hold: a
lazily built index ranks to the bit like an eager one; the first
reader builds it once and publishes it whole; a write changes only what
is built, and a modality built after writes ranks like one built from
the written lake; a campaign builds exactly the modalities it reads.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality, Table
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.obs.export import render_trace_json
from repro.verify.objects import ClaimObject, TupleObject
from repro.workloads.builder import LakeConfig, build_lake
from repro.workloads.claimwl import build_claim_workload

DEFAULT_READS = {Modality.TUPLE, Modality.TEXT, Modality.TABLE}


def pairs(hits):
    return [(hit.instance_id, hit.score.hex()) for hit in hits]


def kg_queries(lake, count=12):
    return [entity.name for entity in list(lake.kg.entities())[:count]]


class TestWhatBuildIndexesBuilds:
    @pytest.mark.parametrize("semantic", [False, True])
    def test_the_default_reads_and_no_kg(self, kg_bundle, semantic):
        system = VerifAI(
            kg_bundle.lake,
            config=VerifAIConfig(use_semantic_index=semantic),
        ).build_indexes()
        indexer = system.indexer
        assert indexer.built_modalities == DEFAULT_READS
        assert set(indexer._content) == DEFAULT_READS
        assert set(indexer._semantic) == (DEFAULT_READS if semantic else set())
        assert all(index.is_sealed for index in indexer._content.values())

    @pytest.mark.parametrize("semantic", [False, True])
    def test_the_first_kg_search_builds_kg(self, kg_bundle, semantic):
        system = VerifAI(
            kg_bundle.lake,
            config=VerifAIConfig(use_semantic_index=semantic),
        ).build_indexes()
        indexer = system.indexer
        hits = indexer.search(
            kg_queries(kg_bundle.lake, 1)[0], Modality.KG_ENTITY, 3
        )
        assert hits
        assert indexer.built_modalities == DEFAULT_READS | {Modality.KG_ENTITY}
        assert len(indexer._content[Modality.KG_ENTITY]) == (
            kg_bundle.lake.kg.num_entities
        )
        assert (Modality.KG_ENTITY in indexer._semantic) is semantic

    def test_direct_index_access_builds_only_its_modality(self, tiny_lake):
        indexer = IndexerModule(tiny_lake)
        assert len(indexer.content_index(Modality.TABLE)) == 2
        assert indexer.semantic_index(Modality.TEXT) is None
        assert indexer.built_modalities == {Modality.TABLE, Modality.TEXT}


def test_kg_hits_equal_an_eager_build(kg_bundle):
    config = VerifAIConfig(use_semantic_index=True)
    eager = IndexerModule(kg_bundle.lake, config).build()
    lazy = VerifAI(kg_bundle.lake, config=config).build_indexes().indexer
    assert Modality.KG_ENTITY not in lazy.built_modalities
    queries = kg_queries(kg_bundle.lake)
    assert queries, "vacuous: the lake has no KG"
    for query in queries:
        assert pairs(lazy.search(query, Modality.KG_ENTITY, 8)) == pairs(
            eager.search(query, Modality.KG_ENTITY, 8)
        ), query
    assert [
        pairs(hits)
        for hits in lazy.search_batch(queries, Modality.KG_ENTITY, 8)
    ] == [
        pairs(hits)
        for hits in eager.search_batch(queries, Modality.KG_ENTITY, 8)
    ]


def test_the_first_kg_search_builds_it_once_whole_and_sealed(
    kg_bundle, monkeypatch
):
    """The first KG read builds the modality, later reads find it
    built, and what is published is whole and sealed."""
    lake = kg_bundle.lake
    indexer = IndexerModule(lake, VerifAIConfig(use_semantic_index=True))
    entities = lake.kg.num_entities
    built = []
    build = indexer._build_modality
    monkeypatch.setattr(
        indexer, "_build_modality",
        lambda modality, *rest: built.append(modality) or build(modality, *rest),
    )
    query = kg_queries(lake, 1)[0]
    hits = [
        pairs(indexer.search(query, Modality.KG_ENTITY, 5)) for _ in range(4)
    ]
    assert built == [Modality.KG_ENTITY]
    assert all(h == hits[0] for h in hits) and hits[0]
    content = indexer._content[Modality.KG_ENTITY]
    semantic = indexer._semantic[Modality.KG_ENTITY]
    assert (len(content), content.is_sealed, len(semantic)) == (
        entities, True, entities
    )


def test_writes_touch_only_built_modalities():
    """A table is updated, removed and re-added while only TABLE is
    built: the writes build nothing, and TUPLE, built afterwards by its
    first search, ranks like a system built after the writes."""
    lake = build_lake(LakeConfig(num_tables=10, seed=41)).lake
    system = VerifAI(lake)
    system.indexer.build({Modality.TABLE})
    table = lake.tables()[0]
    rows = [list(row) for row in table.rows]
    rows[0][-1] = f"{rows[0][-1]} lazymark"
    system.update_instance(
        Table(
            table_id=table.table_id, caption=f"{table.caption} revised",
            columns=table.columns, rows=[tuple(row) for row in rows],
            source=table.source, entity_columns=table.entity_columns,
            key_column=table.key_column, metadata=dict(table.metadata),
        )
    )
    removed = system.remove_instance(table.table_id)
    lake.add_table(removed)
    system.add_instance(removed)
    assert system.indexer.built_modalities == {Modality.TABLE}
    fresh = IndexerModule(lake).build()
    probes = [table.caption, "lazymark", " ".join(rows[0]), "revised"] + [
        other.caption for other in lake.tables()[1:4]
    ]
    for modality in (Modality.TUPLE, Modality.TABLE):
        for query in probes:
            assert pairs(system.indexer.search(query, modality, 8)) == pairs(
                fresh.search(query, modality, 8)
            ), (modality, query)
    assert system.indexer.built_modalities == {Modality.TUPLE, Modality.TABLE}
    assert system.indexer.search("lazymark", Modality.TUPLE, 1)[0].instance_id == (
        f"{table.table_id}#r0"
    )


def claims_of(bundle, count=6):
    return [
        ClaimObject(f"cl-{position}", task.claim.text, context=task.claim.context)
        for position, task in enumerate(
            build_claim_workload(bundle, num_claims=count, seed=6)
        )
    ]


def traced_cold_campaign(bundle, objects):
    system = VerifAI(
        bundle.lake, llm=SimulatedLLM(knowledge=None, seed=26),
        clock=TickClock(),
    )
    batch = system.verify_batch(objects, trace=True)
    return system, batch


class TestACampaignBuildsWhatItReads:
    def test_a_cold_claim_campaign_builds_only_table(self, kg_bundle):
        exports = []
        for _ in range(2):
            system, batch = traced_cold_campaign(
                kg_bundle, claims_of(kg_bundle)
            )
            assert system.indexer.built_modalities == {Modality.TABLE}
            assert [
                span.name for span in batch.trace.spans
                if span.name.startswith("index.build")
            ] == ["index.build:table"]
            exports.append(render_trace_json(batch.trace))
        assert exports[0] == exports[1]

    def test_a_solo_tuple_builds_tuple_and_text(self, kg_bundle):
        system = VerifAI(
            kg_bundle.lake, llm=SimulatedLLM(knowledge=None, seed=26),
            clock=TickClock(),
        )
        table = kg_bundle.tables[0]
        report = system.verify(
            TupleObject("t-0", table.row(0), attribute=table.columns[1]),
            trace=True,
        )
        assert system.indexer.built_modalities == {
            Modality.TUPLE, Modality.TEXT,
        }
        assert [
            span.name for span in report.trace.spans
            if span.name.startswith("index.build")
        ] == ["index.build:tuple", "index.build:text"]
