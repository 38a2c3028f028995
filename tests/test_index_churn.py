"""Live-mutation churn: incremental index == fresh rebuild, always.

Seeded random add/remove/update interleavings run against a live
``IndexerModule`` (and, at the pipeline level, ``VerifAI``); after each
burst the mutated indexes must answer every probe query hit-for-hit
identically — ids and scores — to a brand-new build of the lake's final
state.  The longer soak lives behind the ``slow`` marker (excluded from
tier-1; run with ``pytest -m slow`` or ``make test-slow``).
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.indexer import IndexerModule
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality, Table, TextDocument
from repro.workloads.builder import LakeConfig, build_lake

PROBES = [
    "largest cities by population",
    "points per game shooting guard",
    "gold silver bronze medal total",
    "season player statistics",
    "revision churn evidence",
]

MODALITIES = [Modality.TUPLE, Modality.TABLE, Modality.TEXT]


def fresh_lake(seed):
    """A private lake per test — churn destroys it."""
    return build_lake(LakeConfig(num_tables=18, seed=seed)).lake


def apply_op(lake, indexer, op):
    """Mirror one churn op into the lake and the live indexer."""
    kind = op[0]
    if kind == "remove":
        removed = lake.remove_instance(op[1])
        indexer.remove_instance(removed)
    elif kind == "add":
        instance = op[1]
        if isinstance(instance, Table):
            lake.add_table(instance)
        else:
            lake.add_document(instance)
        indexer.add_instance(instance)
    else:  # update
        old = lake.update_instance(op[1])
        indexer.update_instance(old, op[1])


def assert_matches_rebuild(lake, indexer, config, context):
    """The live, mutated indexer answers exactly like a fresh build of
    the lake's current state — the churn invariant."""
    rebuilt = IndexerModule(lake, config).build()
    for modality in MODALITIES:
        live_index = indexer.content_index(modality)
        rebuilt_index = rebuilt.content_index(modality)
        assert len(live_index) == len(rebuilt_index), (context, modality)
        for query in PROBES:
            expected = [
                (h.instance_id, h.score)
                for h in rebuilt.search(query, modality, 10)
            ]
            got = [
                (h.instance_id, h.score)
                for h in indexer.search(query, modality, 10)
            ]
            assert got == expected, (context, modality.value, query)


def run_churn(churn_ops, seed, steps, burst, config=None):
    config = config or VerifAIConfig()
    lake = fresh_lake(seed)
    indexer = IndexerModule(lake, config).build()
    applied = 0
    for op in churn_ops(lake, seed, steps):
        apply_op(lake, indexer, op)
        applied += 1
        if applied % burst == 0:
            # interleave searches so mutation hits sealed indexes too
            indexer.search(PROBES[applied % len(PROBES)], Modality.TABLE, 5)
            assert_matches_rebuild(
                lake, indexer, config, f"seed={seed} step={applied}"
            )
    assert applied == steps
    assert_matches_rebuild(lake, indexer, config, f"seed={seed} final")


class TestChurnEqualsRebuild:
    # 3 seeds x 35 steps = 105 verified mutation steps
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bursts_match_rebuild(self, churn_ops, seed):
        run_churn(churn_ops, seed, steps=35, burst=12)

    def test_chunked_text_churn(self, churn_ops):
        config = VerifAIConfig(chunk_text=True, chunk_max_tokens=24)
        run_churn(churn_ops, seed=5, steps=24, burst=12, config=config)

    @pytest.mark.slow
    def test_soak(self, churn_ops):
        """Long interleaving (not tier-1; ``make test-slow`` runs it)."""
        run_churn(churn_ops, seed=9, steps=200, burst=40)


class TestPipelineChurn:
    def test_verifai_mutation_flows_to_indexes(self, churn_ops):
        lake = fresh_lake(31)
        system = VerifAI(lake, config=VerifAIConfig())
        system.build_indexes()
        for op in churn_ops(lake, 31, 20):
            kind = op[0]
            if kind == "remove":
                system.remove_instance(op[1])
            elif kind == "add":
                instance = op[1]
                if isinstance(instance, Table):
                    lake.add_table(instance)
                else:
                    lake.add_document(instance)
                system.add_instance(instance)
            else:
                system.update_instance(op[1])
        assert_matches_rebuild(
            lake, system.indexer, system.config, "pipeline churn"
        )

    def test_remove_instance_returns_instance_and_unindexes(self):
        lake = fresh_lake(32)
        system = VerifAI(lake).build_indexes()
        doc = lake.documents()[0]
        removed = system.remove_instance(doc.doc_id)
        assert removed is doc
        assert doc.doc_id not in lake
        for query in PROBES:
            hits = system.indexer.search(query, Modality.TEXT, 50)
            assert all(h.instance_id != doc.doc_id for h in hits)

    def test_update_instance_changes_retrieval(self):
        lake = fresh_lake(33)
        system = VerifAI(lake).build_indexes()
        doc = lake.documents()[0]
        marker = "xylophone quasar zeppelin"
        new = TextDocument(
            doc_id=doc.doc_id, title=doc.title,
            text=f"{doc.text} {marker}",
            source=doc.source, entity=doc.entity,
        )
        old = system.update_instance(new)
        assert old is doc
        hits = system.indexer.search(marker, Modality.TEXT, 5)
        assert hits and hits[0].instance_id == doc.doc_id

    def test_remove_unknown_id_raises(self):
        lake = fresh_lake(34)
        system = VerifAI(lake).build_indexes()
        with pytest.raises(KeyError):
            system.remove_instance("no-such-instance")
        table = lake.tables()[0]
        with pytest.raises(ValueError):
            system.remove_instance(f"{table.table_id}#r0")
