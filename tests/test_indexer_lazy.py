"""An index is built by the first read that needs it.

``VerifAI.build_indexes()`` builds the modalities a default route reads
(TUPLE, TEXT, TABLE); anything else — the KG entities — is built,
content index, semantic index and Combiner together, by its first
search, and published only once filled and sealed.  What must hold: a
lazily built index ranks to the bit like an eager one, at any shard
count; racing first readers build once and never read a half-filled
index; a write changes only what is built, and a modality built after
writes ranks like one built from the written lake; a campaign builds
exactly the modalities it reads.  ``make sanitize`` runs the race.
"""

import sys
import threading

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
    def test_the_default_reads_and_no_kg(self, small_bundle, semantic):
        system = VerifAI(
            small_bundle.lake,
            config=VerifAIConfig(use_semantic_index=semantic),
        ).build_indexes()
        indexer = system.indexer
        assert indexer.built_modalities == DEFAULT_READS
        assert set(indexer._content) == DEFAULT_READS
        assert set(indexer._semantic) == (DEFAULT_READS if semantic else set())
        assert all(index.is_sealed for index in indexer._content.values())

    @pytest.mark.parametrize("semantic", [False, True])
    def test_the_first_kg_search_builds_kg(self, small_bundle, semantic):
        system = VerifAI(
            small_bundle.lake,
            config=VerifAIConfig(use_semantic_index=semantic),
        ).build_indexes()
        indexer = system.indexer
        hits = indexer.search(
            kg_queries(small_bundle.lake, 1)[0], Modality.KG_ENTITY, 3
        )
        assert hits
        assert indexer.built_modalities == DEFAULT_READS | {Modality.KG_ENTITY}
        assert len(indexer._content[Modality.KG_ENTITY]) == (
            small_bundle.lake.kg.num_entities
        )
        assert (Modality.KG_ENTITY in indexer._semantic) is semantic

    def test_direct_index_access_builds_only_its_modality(self, tiny_lake):
        indexer = IndexerModule(tiny_lake)
        assert len(indexer.content_index(Modality.TABLE)) == 2
        assert indexer.semantic_index(Modality.TEXT) is None
        assert indexer.built_modalities == {Modality.TABLE, Modality.TEXT}


@pytest.mark.parametrize("num_shards", [1, 2, 4])
def test_kg_hits_equal_an_eager_build(small_bundle, num_shards):
    config = VerifAIConfig(use_semantic_index=True, num_shards=num_shards)
    eager = IndexerModule(small_bundle.lake, config).build()
    lazy = VerifAI(small_bundle.lake, config=config).build_indexes().indexer
    assert Modality.KG_ENTITY not in lazy.built_modalities
    queries = kg_queries(small_bundle.lake)
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


def test_four_threads_race_the_first_kg_search(small_bundle, monkeypatch):
    """Four readers ask for KG hits at once while a fifth watches what
    is published: one of them builds, all get the same hits, and a
    published KG index is always whole and sealed."""
    lake = small_bundle.lake
    indexer = IndexerModule(lake, VerifAIConfig(use_semantic_index=True))
    entities = lake.kg.num_entities
    built = []
    build = indexer._build_modality
    monkeypatch.setattr(
        indexer, "_build_modality",
        lambda modality, *rest: built.append(modality) or build(modality, *rest),
    )
    query = kg_queries(lake, 1)[0]
    together = threading.Barrier(5)
    done = threading.Event()
    hits, errors, seen = [], [], []

    def read():
        together.wait(timeout=30)
        hits.append(pairs(indexer.search(query, Modality.KG_ENTITY, 5)))

    def watch():
        together.wait(timeout=30)
        while True:
            # read before the check: once the readers are done, the
            # index is published, so a starved watcher still looks once
            readers_done = done.is_set()
            if Modality.KG_ENTITY in indexer.built_modalities:
                content = indexer._content[Modality.KG_ENTITY]
                semantic = indexer._semantic[Modality.KG_ENTITY]
                seen.append(
                    (len(content), content.is_sealed, len(semantic))
                )
                return
            if readers_done:
                return

    def guarded(work):
        try:
            work()
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        watcher = threading.Thread(target=guarded, args=(watch,))
        readers = [
            threading.Thread(target=guarded, args=(read,)) for _ in range(4)
        ]
        for thread in [watcher, *readers]:
            thread.start()
        for thread in readers:
            thread.join(timeout=120)
        done.set()
        watcher.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in [watcher, *readers])
    assert not errors
    assert built == [Modality.KG_ENTITY]
    assert len(hits) == 4 and all(h == hits[0] for h in hits) and hits[0]
    assert seen == [(entities, True, entities)]


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


def traced_cold_campaign(bundle, objects, workers):
    system = VerifAI(
        bundle.lake, llm=SimulatedLLM(knowledge=None, seed=26),
        clock=TickClock(),
    )
    batch = system.verify_batch(objects, max_workers=workers, trace=True)
    return system, batch


class TestACampaignBuildsWhatItReads:
    def test_a_cold_claim_campaign_builds_only_table(self, small_bundle):
        exports = []
        for workers in (1, 4):
            system, batch = traced_cold_campaign(
                small_bundle, claims_of(small_bundle), workers
            )
            assert system.indexer.built_modalities == {Modality.TABLE}
            assert [
                span.name for span in batch.trace.spans
                if span.name.startswith("index.build")
            ] == ["index.build:table"]
            exports.append(render_trace_json(batch.trace))
        assert exports[0] == exports[1]

    def test_a_solo_tuple_builds_tuple_and_text(self, small_bundle):
        system = VerifAI(
            small_bundle.lake, llm=SimulatedLLM(knowledge=None, seed=26),
            clock=TickClock(),
        )
        table = small_bundle.tables[0]
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
