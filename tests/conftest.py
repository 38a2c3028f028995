"""Shared test fixtures: a tiny hand-written lake and a small synthetic
bundle (all session-scoped; construction is deterministic), plus the
seeded churn-sequence generator the churn differential tests drive lake
mutation with."""

import random

import pytest

from repro.datalake.lake import DataLake
from repro.datalake.types import Source, Table, TextDocument
from repro.workloads.builder import LakeConfig, build_lake


def _churn_ops(lake, seed, steps):
    """Yield a seeded stream of lake-mutation operations.

    Each yielded op describes ONE mutation the consumer must apply to
    ``lake`` (directly, or through ``VerifAI``/``IndexerModule``)
    before pulling the next op — ops are chosen against the lake's
    *current* state, so the stream adapts to what the consumer did:

    * ``("remove", instance_id)`` — remove a live table/document;
    * ``("add", instance)`` — re-register a previously removed
      instance;
    * ``("update", new_instance)`` — replace a live table/document
      with a mutated version (cell edits, row append/drop, text
      growth), same id.

    All randomness comes from ``random.Random(seed)`` over sorted id
    lists, so a (lake, seed, steps) triple always produces the same
    interleaving.
    """
    rng = random.Random(seed)
    removed = []  # instances the consumer was told to remove
    revision = 0
    for _ in range(steps):
        table_ids = sorted(t.table_id for t in lake.tables())
        doc_ids = sorted(d.doc_id for d in lake.documents())
        choices = []
        # keep a floor of live instances so retrieval always has a corpus
        if len(table_ids) > 2:
            choices.append("remove_table")
        if len(doc_ids) > 2:
            choices.append("remove_doc")
        if removed:
            choices.extend(["readd", "readd"])
        if table_ids:
            choices.append("update_table")
        if doc_ids:
            choices.append("update_doc")
        op = rng.choice(choices)
        revision += 1
        if op == "remove_table":
            table_id = rng.choice(table_ids)
            removed.append(lake.table(table_id))
            yield ("remove", table_id)
        elif op == "remove_doc":
            doc_id = rng.choice(doc_ids)
            removed.append(lake.document(doc_id))
            yield ("remove", doc_id)
        elif op == "readd":
            instance = removed.pop(rng.randrange(len(removed)))
            yield ("add", instance)
        elif op == "update_table":
            table = lake.table(rng.choice(table_ids))
            rows = [list(row) for row in table.rows]
            roll = rng.random()
            if roll < 0.3 and len(rows) > 1:
                del rows[-1]  # shrink: update must drop the dead row id
            elif roll < 0.6:
                rows.append(
                    [f"{cell} r{revision}" for cell in rows[0]]
                )  # grow: update must index the new row id
            else:
                i = rng.randrange(len(rows))
                j = rng.randrange(len(table.columns))
                rows[i][j] = f"{rows[i][j]} v{revision}"
            yield (
                "update",
                Table(
                    table_id=table.table_id,
                    caption=f"{table.caption} rev {revision}",
                    columns=table.columns,
                    rows=[tuple(row) for row in rows],
                    source=table.source,
                    entity_columns=table.entity_columns,
                    key_column=table.key_column,
                    metadata=dict(table.metadata),
                ),
            )
        else:  # update_doc
            doc = lake.document(rng.choice(doc_ids))
            yield (
                "update",
                TextDocument(
                    doc_id=doc.doc_id,
                    title=doc.title,
                    text=(
                        f"{doc.text} Revision {revision} appends churn "
                        f"evidence about the same subject."
                    ),
                    source=doc.source,
                    entity=doc.entity,
                    metadata=dict(doc.metadata),
                ),
            )


@pytest.fixture(scope="session")
def churn_ops():
    """The seeded churn-sequence generator (see :func:`_churn_ops`);
    shared by the churn differential tests."""
    return _churn_ops


@pytest.fixture(scope="session")
def election_table():
    """A small, fully hand-written election table."""
    return Table(
        table_id="t-ohio-1950",
        caption="united states house of representatives elections in ohio 1950",
        columns=("district", "incumbent", "party", "first elected",
                 "result", "votes"),
        rows=[
            ("ohio 1", "tom jenkins", "republican", "1946", "re-elected", "102,000"),
            ("ohio 2", "bill hess", "republican", "1944", "re-elected", "85,500"),
            ("ohio 3", "paul brown", "democratic", "1948", "retired", "70,250"),
            ("ohio 4", "anne clark", "democratic", "1940", "lost re-election",
             "64,000"),
        ],
        source=Source("tabfact"),
        entity_columns=("incumbent", "district"),
        key_column="district",
        metadata={"domain": "elections", "state": "ohio", "year": 1950},
    )


@pytest.fixture(scope="session")
def medal_table():
    """A small medal table with clean aggregates."""
    return Table(
        table_id="t-games-1960",
        caption="1960 summer games in lakeview medal table",
        columns=("nation", "gold", "silver", "bronze", "total"),
        rows=[
            ("valoria", "10", "5", "3", "18"),
            ("norwind", "7", "9", "2", "18"),
            ("suthmark", "2", "4", "11", "17"),
        ],
        source=Source("tabfact"),
        entity_columns=("nation",),
        key_column="nation",
        metadata={"domain": "olympics", "year": 1960},
    )


@pytest.fixture(scope="session")
def tiny_lake(election_table, medal_table):
    """A lake with two tables and two entity pages."""
    lake = DataLake(name="tiny")
    lake.add_table(election_table)
    lake.add_table(medal_table)
    lake.add_document(
        TextDocument(
            doc_id="page-jenkins",
            title="Tom Jenkins",
            text=(
                "Tom Jenkins is an american politician of the republican "
                "party. Tom Jenkins represented the ohio 1 district and was "
                "first elected in 1946. In the 1950 election in ohio, Tom "
                "Jenkins was re-elected with 102,000 votes."
            ),
            source=Source("wikipages"),
            entity="tom jenkins",
        )
    )
    lake.add_document(
        TextDocument(
            doc_id="page-valoria",
            title="Valoria",
            text=(
                "At the 1960 summer games, Valoria won 10 gold, 5 silver, "
                "and 3 bronze medals for a total of 18."
            ),
            source=Source("wikipages"),
            entity="valoria",
        )
    )
    return lake


@pytest.fixture(scope="session")
def small_bundle():
    """A small generated bundle shared across integration tests."""
    return build_lake(LakeConfig(num_tables=60, seed=11))


@pytest.fixture(scope="session")
def tiny_experiment_context():
    """A miniature experiment context shared by integration tests."""
    from repro.core.pipeline import VerifAI
    from repro.experiments.setup import ExperimentContext, generate_completions
    from repro.llm.knowledge import WorldKnowledge
    from repro.llm.model import SimulatedLLM
    from repro.workloads.claimwl import build_claim_workload
    from repro.workloads.tuplecomp import build_tuple_workload

    bundle = build_lake(LakeConfig(num_tables=40, seed=21))
    tuple_workload = build_tuple_workload(bundle, num_tasks=15, seed=22)
    claim_workload = build_claim_workload(bundle, num_claims=30, seed=23)
    knowledge = WorldKnowledge(bundle.tables, seed=24)
    generator = SimulatedLLM(knowledge=knowledge, seed=25)
    verifier_llm = SimulatedLLM(knowledge=None, seed=26)
    system = VerifAI(bundle.lake, llm=verifier_llm).build_indexes()
    return ExperimentContext(
        scale="tiny",
        seed=21,
        bundle=bundle,
        tuple_workload=tuple_workload,
        claim_workload=claim_workload,
        generator=generator,
        verifier_llm=verifier_llm,
        system=system,
        generated=generate_completions(bundle, tuple_workload, generator),
    )


@pytest.fixture(scope="session")
def quiet_profile():
    """An LLM profile with every slip disabled (deterministic reasoning)."""
    from repro.llm.profile import LLMProfile

    return LLMProfile(
        arithmetic_slip=0.0,
        lookup_slip=0.0,
        binding_slip=0.0,
        extraction_slip=0.0,
        relatedness_slip=0.0,
    )
