"""An index is built by the first read that needs it.

``VerifAI.build_indexes()`` builds the modalities a default route reads
(TUPLE, TEXT, TABLE); without it each modality is built, content index,
semantic index and Combiner together, by its first search, and
published only once filled and sealed.  A claim-only caller reads TABLE
alone, so TEXT is the modality these tests find unbuilt.  What must
hold: a lazily built index ranks to the bit like an eager one; the first
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
from repro.obs.trace import Tracer
from repro.verify.objects import ClaimObject, TupleObject
from repro.workloads.builder import LakeConfig, build_lake
from repro.workloads.claimwl import build_claim_workload

DEFAULT_READS = {Modality.TUPLE, Modality.TEXT, Modality.TABLE}


def pairs(hits):
    return [(hit.instance_id, hit.score.hex()) for hit in hits]


def queries_of(bundle, modality, count=12):
    """A document's title, a table's caption, a tuple's cells."""
    if modality is Modality.TEXT:
        return [doc.title for doc in bundle.lake.documents()[:count]]
    if modality is Modality.TABLE:
        return [table.caption for table in bundle.tables[:count]]
    return [" ".join(table.row(0).values) for table in bundle.tables[:count]]


def claim_only_system(bundle, semantic):
    """A system that has verified one claim and nothing else."""
    system = VerifAI(
        bundle.lake, llm=SimulatedLLM(knowledge=None, seed=26),
        config=VerifAIConfig(use_semantic_index=semantic),
    )
    system.verify(claims_of(bundle, 1)[0])
    return system


class TestWhatBuildIndexesBuilds:
    @pytest.mark.parametrize("semantic", [False, True])
    def test_every_modality_a_default_route_reads(self, small_bundle, semantic):
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
    def test_a_claim_only_system_builds_only_table(self, small_bundle, semantic):
        indexer = claim_only_system(small_bundle, semantic).indexer
        assert indexer.built_modalities == {Modality.TABLE}
        assert set(indexer._semantic) == ({Modality.TABLE} if semantic else set())

    @pytest.mark.parametrize("semantic", [False, True])
    @pytest.mark.parametrize(
        "modality", [Modality.TUPLE, Modality.TEXT], ids=str
    )
    def test_the_first_search_builds_its_modality(self, small_bundle,
                                                  modality, semantic):
        indexer = claim_only_system(small_bundle, semantic).indexer
        hits = indexer.search(queries_of(small_bundle, modality)[0], modality, 3)
        assert hits
        assert indexer.built_modalities == {Modality.TABLE, modality}
        assert len(indexer._content[modality]) == len(
            list(small_bundle.lake.iter_instances(modality))
        )
        assert (modality in indexer._semantic) is semantic

    def test_direct_index_access_builds_only_its_modality(self, tiny_lake):
        indexer = IndexerModule(tiny_lake)
        assert len(indexer.content_index(Modality.TABLE)) == 2
        assert indexer.semantic_index(Modality.TEXT) is None
        assert indexer.built_modalities == {Modality.TABLE, Modality.TEXT}


@pytest.mark.parametrize("semantic", [False, True])
@pytest.mark.parametrize("modality", [Modality.TUPLE, Modality.TEXT], ids=str)
def test_lazy_hits_equal_an_eager_build(small_bundle, modality, semantic):
    """TUPLE and TEXT, which a claim-only system has not built, rank
    like an eager build once a search builds them."""
    config = VerifAIConfig(use_semantic_index=semantic)
    eager = IndexerModule(small_bundle.lake, config).build()
    lazy = claim_only_system(small_bundle, semantic).indexer
    assert modality not in lazy.built_modalities
    queries = queries_of(small_bundle, modality)
    assert queries, "vacuous: no queries"
    for query in queries:
        assert pairs(lazy.search(query, modality, 8)) == pairs(
            eager.search(query, modality, 8)
        ), query
    assert [
        pairs(hits) for hits in lazy.search_batch(queries, modality, 8)
    ] == [
        pairs(hits) for hits in eager.search_batch(queries, modality, 8)
    ]


@pytest.mark.parametrize("modality", list(Modality), ids=str)
def test_a_build_of_one_modality_indexes_every_instance_of_it(
    small_bundle, modality
):
    lake = small_bundle.lake
    indexer = IndexerModule(lake).build([modality])
    assert indexer.built_modalities == {modality}
    assert len(indexer.content_index(modality)) == len(
        list(lake.iter_instances(modality))
    )


def test_a_default_build_builds_every_modality_in_modality_order(tiny_lake):
    tracer = Tracer("trace-build", clock=TickClock())
    root = tracer.root("build")
    branch = tracer.branch()
    indexer = IndexerModule(tiny_lake).build(branch=branch, parent=root)
    tracer.close(root)
    assert indexer.built_modalities == set(Modality)
    assert [
        span.name for span in tracer.trace().spans
        if span.name.startswith("index.build")
    ] == [f"index.build:{modality.value}" for modality in Modality]


@pytest.mark.parametrize("modality", list(Modality), ids=str)
def test_the_first_search_builds_it_once_whole_and_sealed(
    small_bundle, monkeypatch, modality
):
    """The first read of a modality builds it, later reads find it
    built, and what is published is whole and sealed."""
    lake = small_bundle.lake
    indexer = IndexerModule(lake, VerifAIConfig(use_semantic_index=True))
    entries = len(list(lake.iter_instances(modality)))
    built = []
    build = indexer._build_modality
    monkeypatch.setattr(
        indexer, "_build_modality",
        lambda modality, *rest: built.append(modality) or build(modality, *rest),
    )
    query = queries_of(small_bundle, modality, 1)[0]
    hits = [pairs(indexer.search(query, modality, 5)) for _ in range(4)]
    assert built == [modality]
    assert all(h == hits[0] for h in hits) and hits[0]
    content = indexer._content[modality]
    semantic = indexer._semantic[modality]
    assert (len(content), content.is_sealed, len(semantic)) == (
        entries, True, entries
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
    def test_a_cold_claim_campaign_builds_only_table(self, small_bundle):
        exports = []
        for _ in range(2):
            system, batch = traced_cold_campaign(
                small_bundle, claims_of(small_bundle)
            )
            assert system.indexer.built_modalities == {Modality.TABLE}
            assert [
                span.name for span in batch.trace.spans
                if span.name.startswith("index.build")
            ] == ["index.build:table"]
            exports.append(render_trace_json(batch.trace))
        assert exports[0] == exports[1]

    def test_a_cold_mixed_campaign_builds_every_modality_ahead_of_index_0(
        self, small_bundle
    ):
        """One build and one prefill per modality: the most setup spans
        a campaign opens, all at negative sibling indexes, so they sort
        ahead of the first object's ``verify`` span at index 0."""
        table = small_bundle.tables[0]
        objects = claims_of(small_bundle, 3) + [
            TupleObject("t-0", table.row(0), attribute=table.columns[1])
        ]
        exports = []
        for _ in range(2):
            system, batch = traced_cold_campaign(small_bundle, objects)
            assert system.indexer.built_modalities == set(Modality)
            root = batch.trace.spans[0]
            setup = [
                span for span in batch.trace.spans
                if span.parent_id == root.span_id and span.index < 0
            ]
            assert sorted(span.index for span in setup) == list(
                range(-2 * len(Modality), 0)
            )
            assert {span.name.split(":")[0] for span in setup} == {
                "index.build", "retrieve",
            }
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
