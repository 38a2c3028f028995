"""The batch engine: parallel == serial, retrieval dedup, and stats."""

import pytest

from repro.core.batch import BatchEngine, BatchStats
from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.verify.objects import TupleObject
from repro.workloads.builder import LakeConfig, build_lake


@pytest.fixture(scope="module")
def bundle():
    return build_lake(LakeConfig(num_tables=40, seed=21))


@pytest.fixture(scope="module")
def workload(bundle):
    """A mixed batch: correct rows, corrupted rows, and one duplicate."""
    objects = []
    for i, table in enumerate(bundle.tables[:8]):
        row = table.row(0)
        if i % 3 == 2:  # corrupt every third object
            column = table.columns[-1]
            row = row.replace_value(column, "999,999,999")
            objects.append(TupleObject(f"obj-{i}", row, attribute=column))
        else:
            objects.append(
                TupleObject(f"obj-{i}", row, attribute=table.columns[1])
            )
    # exact duplicate retrieval of obj-0 under a different object id
    objects.append(
        TupleObject(
            "obj-dup", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
    )
    return objects


def make_system(bundle, clock=None, **config_kwargs):
    llm = SimulatedLLM(knowledge=None, seed=26)
    return VerifAI(
        bundle.lake, llm=llm, config=VerifAIConfig(**config_kwargs),
        clock=clock,
    ).build_indexes()


def root_prefills(trace):
    """The ``retrieve:prefill:*`` spans directly under the trace root."""
    return [
        span for span in trace.children_of(trace.root)
        if span.name.startswith("retrieve:prefill:")
    ]


def object_subtree(trace):
    """The object's ``verify`` span and everything under it, depth
    first, minus where the two entry points legitimately differ: the
    ``verify_batch`` wrapper and the ``retrieve:prefill:*`` spans (under
    the wrapper in a campaign, under ``verify`` when solo)."""
    (top,) = trace.spans_named("verify")
    rows = []

    def walk(span, depth):
        if span.name.startswith("retrieve:prefill:"):
            return
        rows.append((
            depth, span.name, span.attributes, span.status, span.error,
            span.record_id,
        ))
        for child in trace.children_of(span):
            walk(child, depth + 1)

    walk(top, 0)
    return rows


def report_fingerprint(batch):
    """Everything that must match between serial and parallel runs."""
    return [
        (
            r.object_id,
            r.final_verdict,
            r.margin,
            [(o.evidence_id, o.verdict, o.verifier) for o in r.outcomes],
            r.evidence_ids,
            r.record_id,
        )
        for r in batch.reports
    ]


class TestParallelEquivalence:
    def test_parallel_matches_serial(self, bundle, workload):
        for config_kwargs in ({}, {"num_shards": 2}):
            serial_system = make_system(bundle, **config_kwargs)
            parallel_system = make_system(bundle, **config_kwargs)
            serial = serial_system.verify_batch(workload, max_workers=1)
            parallel = parallel_system.verify_batch(workload, max_workers=4)
            assert report_fingerprint(serial) == report_fingerprint(parallel)
            assert (
                len(serial_system.provenance)
                == len(parallel_system.provenance)
            )

    def test_provenance_records_complete(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload, max_workers=4)
        assert len(system.provenance) == len(workload)
        for report in batch.reports:
            record = system.provenance.get(report.record_id)
            assert record.object_id == report.object_id
            assert record.retrieval, "stages must be replayed into the record"
            assert record.final_verdict == int(report.final_verdict)

    @pytest.mark.parametrize(
        "config_kwargs",
        [
            {},
            {"num_shards": 2},
            {"use_reranker": True, "use_semantic_index": True},
        ],
        ids=["default", "sharded", "full"],
    )
    def test_serial_verify_and_batch_produce_identical_records(
        self, bundle, workload, config_kwargs
    ):
        """``verify(obj)`` is the campaign of one: its provenance equals
        the batch engine's field-for-field for the same objects, and its
        span subtree equals a one-object campaign's."""
        from dataclasses import asdict

        serial_system = make_system(bundle, TickClock(), **config_kwargs)
        batch_system = make_system(bundle, TickClock(), **config_kwargs)
        solo_reports = [
            serial_system.verify(obj, trace=True) for obj in workload
        ]
        batch = batch_system.verify_batch(workload)
        assert len(serial_system.provenance) == len(batch_system.provenance)
        for report in batch.reports:
            serial_record = serial_system.provenance.get(report.record_id)
            batch_record = batch_system.provenance.get(report.record_id)
            # only the solo runs were traced
            assert serial_record.trace_id and not batch_record.trace_id
            serial_record.trace_id = ""
            assert asdict(serial_record) == asdict(batch_record)

        ones_system = make_system(bundle, TickClock(), **config_kwargs)
        for obj, solo in zip(workload, solo_reports):
            one = ones_system.verify_batch([obj], trace=True)
            assert solo.trace.root.name == "verify"
            assert solo.trace.root.record_id == solo.record_id
            assert one.trace.root.name == "verify_batch"
            assert object_subtree(solo.trace) == object_subtree(one.trace)
            assert [s.name for s in root_prefills(solo.trace)] == [
                s.name for s in root_prefills(one.trace)
            ]

        # under a real clock the retrieval that fed the solo object is a
        # timed span of its own trace, not a side channel
        timed = make_system(bundle, **config_kwargs).verify(
            workload[0], trace=True
        )
        prefills = root_prefills(timed.trace)
        assert prefills and all(span.duration > 0 for span in prefills)

    def test_report_order_matches_input_order(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload, max_workers=4)
        assert [r.object_id for r in batch.reports] == [
            o.object_id for o in workload
        ]


class TestDedupAndStats:
    def test_duplicate_queries_deduped(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        stats = batch.stats
        # obj-dup repeats obj-0's retrieval on both TUPLE and TEXT
        assert stats.retrieval_cache_hits >= 2
        assert stats.unique_retrievals < 2 * len(workload)

    def test_stats_populated(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload, max_workers=2)
        stats = batch.stats
        assert isinstance(stats, BatchStats)
        assert stats.objects == len(workload)
        assert stats.max_workers == 2
        assert set(stats.stage_seconds) == {"retrieve", "verify", "total"}
        assert stats.stage_seconds["total"] > 0
        assert stats.verifier_cache_size == system.verifier.cache_size
        assert "workers" in stats.summary()

    def test_summary_exposes_verifier_cache(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        assert "verifier cache" in batch.summary()
        assert f"/{system.verifier.cache_size} entries" in batch.summary()

    def test_duplicate_object_hits_verifier_cache(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        # obj-dup verifies the same (content, evidence) pairs as obj-0
        assert batch.stats.verifier_cache_hits > 0
        dup = batch.reports[-1]
        first = batch.reports[0]
        assert dup.final_verdict is first.final_verdict
        assert dup.margin == first.margin


class TestEngineEdges:
    def test_empty_batch(self, bundle):
        system = make_system(bundle)
        batch = system.verify_batch([], max_workers=4)
        assert len(batch) == 0
        assert batch.stats.objects == 0

    def test_bad_worker_count_rejected(self, bundle):
        system = make_system(bundle)
        with pytest.raises(ValueError):
            BatchEngine(system, max_workers=0)

    def test_config_default_workers_used(self, bundle, workload):
        system = make_system(bundle)
        system.config.batch_max_workers = 3
        batch = system.verify_batch(workload[:2])
        assert batch.stats.max_workers == 3
