"""Batch-engine benchmarks.

Three comparisons the PR cares about:

* sealed (vectorized) vs dict BM25 search throughput on the medium
  tuple index;
* per-query ``indexer.search`` vs the query-matrix
  ``indexer.search_batch`` pass over a campaign's queries on a sharded
  system — the matrix kernel's acceptance bar is >= 2x on retrieval
  time, asserted here with bit-identical hit lists;
* ``verify_batch`` through the batch engine, serial vs parallel
  workers, each on a freshly built system so verifier-cache warmth
  cannot flatter later rounds.

``make bench-batch`` runs this file; the recorded baseline lives in
``BENCH_batch.json``.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.serialize import serialize_row
from repro.datalake.types import Modality
from repro.llm.model import SimulatedLLM
from repro.verify.objects import TupleObject

from benchmarks.conftest import best_of, run_once


@pytest.fixture(scope="module")
def sample_queries(context):
    queries = []
    for generated in context.generated[:20]:
        row = context.bundle.lake.table(generated.table_id).row(
            generated.row_index
        )
        queries.append(serialize_row(row))
    return queries


@pytest.fixture(scope="module")
def batch_objects(context):
    """24 generated tuples to verify, as one campaign."""
    objects = []
    for i, generated in enumerate(context.generated[:24]):
        table = context.bundle.lake.table(generated.table_id)
        row = table.row(generated.row_index).replace_value(
            generated.column, generated.generated_value or "NaN"
        )
        objects.append(
            TupleObject(f"bench-{i}", row, attribute=generated.column)
        )
    return objects


def fresh_system(context):
    """A cold system (no verifier/payload cache warmth) over the lake."""
    llm = SimulatedLLM(knowledge=None, seed=7)
    return VerifAI(context.bundle.lake, llm=llm).build_indexes()


# ----------------------------------------------------------------------
# sealed vs dict BM25
# ----------------------------------------------------------------------
def test_bench_bm25_search_sealed(context, benchmark, sample_queries):
    index = context.system.indexer.content_index(Modality.TUPLE)
    index.seal()

    hits = benchmark(lambda: [index.search(q, 10) for q in sample_queries])
    assert all(h for h in hits)


def test_bench_bm25_search_dict(context, benchmark, sample_queries):
    index = context.system.indexer.content_index(Modality.TUPLE)

    hits = benchmark(
        lambda: [index.search_dict(q, 10) for q in sample_queries]
    )
    assert all(h for h in hits)


# ----------------------------------------------------------------------
# per-object vs query-matrix campaign retrieval
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_system(context):
    """A 4-shard system — the fan-out the matrix kernel amortizes."""
    llm = SimulatedLLM(knowledge=None, seed=7)
    return VerifAI(
        context.bundle.lake, llm=llm, config=VerifAIConfig(num_shards=4)
    ).build_indexes()


def retrieve_per_object(system, objects):
    depth = system.config.fine_k(Modality.TUPLE)
    return [
        system.indexer.search(obj.query_text(), Modality.TUPLE, depth)
        for obj in objects
    ]


def retrieve_batched(system, objects):
    return system.indexer.search_batch(
        [obj.query_text() for obj in objects], Modality.TUPLE,
        system.config.fine_k(Modality.TUPLE),
    )


def hit_pairs(hit_lists):
    return [
        [(h.instance_id, h.score) for h in hits] for hits in hit_lists
    ]


def test_bench_retrieval_per_object(benchmark, sharded_system, batch_objects):
    retrieve_batched(sharded_system, batch_objects)  # seal + warm caches
    hits = benchmark(retrieve_per_object, sharded_system, batch_objects)
    assert len(hits) == len(batch_objects)


def test_bench_retrieval_matrix_batched(
    benchmark, sharded_system, batch_objects
):
    retrieve_batched(sharded_system, batch_objects)
    hits = benchmark(retrieve_batched, sharded_system, batch_objects)
    assert len(hits) == len(batch_objects)


def test_bench_matrix_campaign_speedup(
    benchmark, sharded_system, batch_objects
):
    """The acceptance bar: the batched query-matrix pass beats the
    per-query loop by >= 2x on retrieval time for the 24-object
    campaign — and returns hit-for-hit identical lists."""
    batched = retrieve_batched(sharded_system, batch_objects)  # warm
    looped = retrieve_per_object(sharded_system, batch_objects)
    assert hit_pairs(batched) == hit_pairs(looped)
    per = best_of(lambda: retrieve_per_object(sharded_system, batch_objects))
    bat = best_of(lambda: retrieve_batched(sharded_system, batch_objects))
    benchmark.extra_info["per_object_s"] = per
    benchmark.extra_info["batched_s"] = bat
    benchmark.extra_info["speedup"] = per / bat
    run_once(benchmark, retrieve_batched, sharded_system, batch_objects)
    assert per >= 2.0 * bat, (
        f"matrix campaign speedup {per / bat:.2f}x is under the 2x bar "
        f"(per-object {per * 1e3:.2f}ms, batched {bat * 1e3:.2f}ms)"
    )


# ----------------------------------------------------------------------
# serial vs parallel verify_batch
# ----------------------------------------------------------------------
def test_bench_verify_batch_serial(context, benchmark, batch_objects):
    system = fresh_system(context)
    batch = run_once(
        benchmark, system.verify_batch, batch_objects, max_workers=1
    )
    assert len(batch) == len(batch_objects)
    assert batch.stats.max_workers == 1


def test_bench_verify_batch_parallel(context, benchmark, batch_objects):
    system = fresh_system(context)
    batch = run_once(
        benchmark, system.verify_batch, batch_objects, max_workers=4
    )
    assert len(batch) == len(batch_objects)
    assert batch.stats.max_workers == 4
