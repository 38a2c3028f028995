"""The batch engine: one thread, retrieval dedup, and stats."""

import pytest

from repro.core.batch import BatchStats
from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
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
    """Everything that must match between two runs of one campaign."""
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


class TestCampaignEquivalence:
    def test_fresh_systems_give_identical_reports(self, bundle, workload):
        first_system = make_system(bundle)
        second_system = make_system(bundle)
        first = first_system.verify_batch(workload)
        second = second_system.verify_batch(workload, max_workers=1)
        assert report_fingerprint(first) == report_fingerprint(second)
        assert len(first_system.provenance) == len(second_system.provenance)

    def test_provenance_records_complete(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
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
            {"use_reranker": True, "use_semantic_index": True},
        ],
        ids=["default", "full"],
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
        batch = system.verify_batch(workload)
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
        batch = system.verify_batch(workload)
        stats = batch.stats
        assert isinstance(stats, BatchStats)
        assert stats.objects == len(workload)
        assert set(stats.stage_seconds) == {"retrieve", "verify", "total"}
        assert stats.stage_seconds["total"] > 0
        assert stats.summary().startswith(f"{len(workload)} objects (")
        assert "workers" not in stats.summary()
        assert not [
            key for key in stats.to_dict()
            if "verifier" in key or "workers" in key
        ]

    def test_duplicate_object_is_verified_again(self, bundle, workload):
        system = make_system(bundle)
        calls = system.llm.num_calls
        batch = system.verify_batch(workload)
        # obj-dup verifies the same (content, evidence) pairs as obj-0,
        # through the model again, to the same outcomes
        dup = batch.reports[-1]
        first = batch.reports[0]
        assert dup.object_id == "obj-dup" and first.object_id == "obj-0"
        assert dup.outcomes and dup.outcomes == first.outcomes
        assert dup.final_verdict is first.final_verdict
        assert dup.margin == first.margin
        assert system.llm.num_calls - calls == sum(
            len(report.outcomes) for report in batch.reports
        )


class TestEngineEdges:
    def test_empty_batch(self, bundle):
        system = make_system(bundle)
        batch = system.verify_batch([])
        assert len(batch) == 0
        assert batch.stats.objects == 0

    @pytest.mark.parametrize("workers", [-1, 0, 2, 3, 4, 8])
    def test_any_worker_count_but_one_is_rejected(
        self, bundle, workload, workers
    ):
        system = make_system(bundle)
        with pytest.raises(ValueError, match=f"max_workers.*{workers}"):
            system.verify_batch(workload, max_workers=workers)
        # refused before any record was opened or any pair verified
        assert (len(system.provenance), system.llm.num_calls) == (0, 0)


class TestDepthsFromTheConfig:
    """A campaign reads both depths from the system's config: the
    replayed stage spans carry them, and the shortlist is cut at them."""

    @pytest.mark.parametrize("use_reranker", [False, True],
                             ids=["coarse", "reranked"])
    def test_the_replayed_spans_carry_the_configs_depths(
        self, bundle, workload, use_reranker
    ):
        system = make_system(
            bundle, clock=TickClock(), use_reranker=use_reranker,
            k_coarse=17, k_fine={Modality.TUPLE: 4, Modality.TEXT: 2},
        )
        trace = system.verify_batch(workload[:2], trace=True).trace
        depths = {
            (span.name, span.attributes["k"])
            for span in trace.spans
            if span.name.startswith(("retrieve:coarse:", "rerank:"))
        }
        if use_reranker:
            assert depths == {
                ("retrieve:coarse:tuple", 17), ("rerank:tuple", 4),
                ("retrieve:coarse:text", 17), ("rerank:text", 2),
            }
        else:
            # a lone coarse stage retrieves at the shortlist depth
            assert depths == {
                ("retrieve:coarse:tuple", 4), ("retrieve:coarse:text", 2),
            }

    @pytest.mark.parametrize("entry", ["verify", "verify_batch"])
    def test_a_config_shortlist_depth_cuts_the_evidence(
        self, bundle, workload, entry
    ):
        deep = make_system(bundle, k_fine={Modality.TUPLE: 8})
        obj = workload[0]
        if entry == "verify":
            report = deep.verify(obj, modalities=(Modality.TUPLE,))
        else:
            report = deep.verify_batch(
                [obj], modalities=(Modality.TUPLE,)
            ).reports[0]
        shallow = make_system(bundle).verify(obj, modalities=(Modality.TUPLE,))
        assert len(report.evidence_ids) == 8
        assert report.evidence_ids[:3] == shallow.evidence_ids
