"""Fault isolation in the verification pipeline.

One poisoned object must never abort a campaign: its report comes back
FAILED (with the error string and a NOT_RELATED verdict), its provenance
record is finalized with the failure, and every other object completes
normally — identically under serial and parallel execution.  These
tests pin that contract, plus bounded deterministic retries and the
opt-in ``fail_fast`` raise-on-first-error escape hatch.
"""

import pytest

from repro.core.config import VerifAIConfig
from repro.core.pipeline import STATUS_FAILED, STATUS_OK, VerifAI
from repro.datalake.types import Modality
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.obs.events import (
    EventLog,
    install_event_log,
    uninstall_event_log,
)
from repro.obs.export import render_trace_json
from repro.obs.metrics import get_registry
from repro.provenance.store import RECORD_FAILED, RECORD_FINALIZED
from repro.verify.base import VerificationError, Verifier
from repro.verify.objects import TupleObject
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeConfig, build_lake


class PoisonedObject(TupleObject):
    """A TupleObject whose query_text() always raises."""

    def query_text(self) -> str:
        raise RuntimeError(f"poisoned payload in {self.object_id}")


class FlakyVerifier(Verifier):
    """Raises VerificationError for the first ``failures`` calls, then
    verifies everything."""

    name = "flaky"

    def __init__(self, failures: int = 1):
        self.failures = failures
        self.calls = 0

    def supports(self, obj, evidence) -> bool:
        return True

    def verify(self, obj, evidence):
        self.calls += 1
        if self.calls <= self.failures:
            raise VerificationError("transient backend hiccup")
        return self._outcome(Verdict.VERIFIED, "ok after retry", evidence)


@pytest.fixture(scope="module")
def bundle():
    return build_lake(LakeConfig(num_tables=40, seed=21))


#: positions of the poisoned objects in the 50-object campaign
POISONED = {7, 19, 23, 31, 42}


@pytest.fixture(scope="module")
def mixed_workload(bundle):
    """50 objects, 5 of them poisoned, spread through the batch."""
    objects = []
    tables = bundle.tables
    for i in range(50):
        table = tables[i % len(tables)]
        row = table.row(i % table.num_rows)
        cls = PoisonedObject if i in POISONED else TupleObject
        objects.append(cls(f"obj-{i:02d}", row, attribute=table.columns[1]))
    return objects


@pytest.fixture()
def event_log():
    """A flight recorder installed for one test."""
    log = EventLog()
    install_event_log(log)
    yield log
    uninstall_event_log(log)


def make_system(bundle, **config_kwargs):
    llm = SimulatedLLM(knowledge=None, seed=26)
    config = VerifAIConfig(**config_kwargs) if config_kwargs else None
    return VerifAI(bundle.lake, llm=llm, config=config).build_indexes()


def fingerprint(batch):
    return [
        (
            r.object_id, r.status, r.error, r.final_verdict, r.margin,
            [(o.evidence_id, o.verdict, o.verifier) for o in r.outcomes],
            r.record_id,
        )
        for r in batch.reports
    ]


class TestPoisonedBatch:
    def test_campaign_survives_poisoned_objects(self, bundle, mixed_workload):
        system = make_system(bundle)
        batch = system.verify_batch(mixed_workload, max_workers=1)
        assert len(batch) == 50
        assert batch.failed == 5
        statuses = [r.status for r in batch.reports]
        assert [i for i, s in enumerate(statuses) if s == STATUS_FAILED] == (
            sorted(POISONED)
        )
        assert statuses.count(STATUS_OK) == 45

    def test_failed_reports_carry_the_error(self, bundle, mixed_workload):
        system = make_system(bundle)
        batch = system.verify_batch(mixed_workload)
        for report in batch.failures:
            assert report.final_verdict is Verdict.NOT_RELATED
            assert report.margin == 0.0
            assert report.outcomes == []
            assert "RuntimeError" in report.error
            assert report.object_id in report.error
            assert not report.ok
            assert "FAILED" in report.summary()

    def test_serial_and_parallel_identical(self, bundle, mixed_workload):
        serial = make_system(bundle).verify_batch(
            mixed_workload, max_workers=1
        )
        parallel = make_system(bundle).verify_batch(
            mixed_workload, max_workers=4
        )
        assert fingerprint(serial) == fingerprint(parallel)
        assert [r.object_id for r in serial.reports] == [
            o.object_id for o in mixed_workload
        ]

    def test_no_dangling_provenance_records(self, bundle, mixed_workload):
        for workers in (1, 4):
            system = make_system(bundle)
            batch = system.verify_batch(mixed_workload, max_workers=workers)
            assert len(system.provenance) == len(mixed_workload)
            assert system.provenance.open_records() == []
            for report in batch.reports:
                record = system.provenance.get(report.record_id)
                if report.ok:
                    assert record.status == RECORD_FINALIZED
                    assert record.error == ""
                else:
                    assert record.status == RECORD_FAILED
                    assert record.error == report.error
                    assert record.final_verdict == int(Verdict.NOT_RELATED)

    def test_failed_record_explain_mentions_failure(self, bundle,
                                                    mixed_workload):
        system = make_system(bundle)
        batch = system.verify_batch(mixed_workload)
        explanation = system.explain(batch.failures[0])
        assert "FAILED" in explanation
        assert "RuntimeError" in explanation

    def test_stats_and_summaries_surface_failures(self, bundle,
                                                  mixed_workload):
        system = make_system(bundle)
        batch = system.verify_batch(mixed_workload)
        assert batch.stats.failed == 5
        assert batch.stats.retries == 0
        assert "5 failed" in batch.stats.summary()
        assert "(5 FAILED)" in batch.summary()


class TestRetries:
    def test_retry_then_succeed(self, bundle):
        system = make_system(
            bundle, prefer_local=True, batch_max_retries=1
        )
        flaky = FlakyVerifier(failures=1)
        system.verifier.agent.local_verifiers.append(flaky)
        obj = TupleObject(
            "flaky-1", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        batch = system.verify_batch([obj, obj])
        assert all(r.ok for r in batch.reports)
        assert batch.stats.retries == 1
        assert batch.stats.failed == 0
        assert system.provenance.open_records() == []

    def test_retries_exhausted_reports_failure(self, bundle):
        system = make_system(
            bundle, prefer_local=True, batch_max_retries=2
        )
        system.verifier.agent.local_verifiers.append(
            FlakyVerifier(failures=10 ** 6)
        )
        obj = TupleObject(
            "flaky-2", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        batch = system.verify_batch([obj])
        assert batch.failed == 1
        assert batch.stats.retries == 2
        assert "VerificationError" in batch.reports[0].error

    def test_max_retries_argument_overrides_config(self, bundle):
        system = make_system(bundle, prefer_local=True)
        flaky = FlakyVerifier(failures=1)
        system.verifier.agent.local_verifiers.append(flaky)
        obj = TupleObject(
            "flaky-3", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        batch = system.verify_batch([obj], max_retries=3)
        assert batch.failed == 0
        assert batch.stats.retries == 1

    def test_negative_retries_rejected(self, bundle):
        from repro.core.batch import BatchEngine

        with pytest.raises(ValueError):
            BatchEngine(make_system(bundle), max_retries=-1)


class TestFailFast:
    def test_fail_fast_raises(self, bundle, mixed_workload):
        system = make_system(bundle)
        with pytest.raises(RuntimeError, match="poisoned payload"):
            system.verify_batch(mixed_workload, fail_fast=True)

    def test_fail_fast_still_finalizes_the_failing_record(self, bundle):
        system = make_system(bundle)
        poisoned = PoisonedObject(
            "only-bad", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        with pytest.raises(RuntimeError):
            system.verify_batch([poisoned], fail_fast=True)
        records = system.provenance.records_for_object("only-bad")
        assert len(records) == 1
        assert records[0].status == RECORD_FAILED


class TestSerialVerifyBoundary:
    def test_serial_verify_returns_failed_report(self, bundle):
        system = make_system(bundle)
        poisoned = PoisonedObject(
            "bad-serial", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        report = system.verify(poisoned)
        assert report.status == STATUS_FAILED
        assert report.final_verdict is Verdict.NOT_RELATED
        assert "RuntimeError" in report.error
        assert system.provenance.open_records() == []
        record = system.provenance.get(report.record_id)
        assert record.status == RECORD_FAILED

    def test_serial_verify_fail_fast_raises(self, bundle):
        system = make_system(bundle)
        poisoned = PoisonedObject(
            "bad-serial-ff", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        with pytest.raises(RuntimeError):
            system.verify(poisoned, fail_fast=True)
        assert system.provenance.open_records() == []

    def test_solo_fault_is_observable_like_a_campaign_fault(
        self, bundle, event_log
    ):
        """One boundary: a fault through ``verify()`` lands in the
        flight recorder, in ``batch.failed`` and in the generation log
        exactly as the same fault inside a campaign does."""
        system = make_system(bundle)
        system.generation_log.log("prompt", "response", object_id="bad-solo")
        failed_before = get_registry().counter("batch.failed").value
        report = system.verify(
            PoisonedObject(
                "bad-solo", bundle.tables[0].row(0),
                attribute=bundle.tables[0].columns[1],
            )
        )
        assert report.status == STATUS_FAILED
        events = event_log.events(kind="batch.object_failed")
        assert [e.fields for e in events] == [
            {"object_id": "bad-solo", "error": report.error}
        ]
        assert get_registry().counter("batch.failed").value == (
            failed_before + 1
        )
        assert system.provenance.get(report.record_id).status == (
            RECORD_FAILED
        )
        generation = system.generation_log.for_object("bad-solo")
        assert generation.verification_record_ids == [report.record_id]

    def test_solo_verify_honours_batch_max_retries(self, bundle, event_log):
        system = make_system(bundle, prefer_local=True, batch_max_retries=1)
        flaky = FlakyVerifier(failures=1)
        system.verifier.agent.local_verifiers.append(flaky)
        obj = TupleObject(
            "flaky-solo", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        report = system.verify(obj, trace=True)
        assert report.status == STATUS_OK
        assert flaky.calls > 1
        retries = event_log.events(kind="batch.retry")
        assert [e.fields for e in retries] == [
            {"object_id": "flaky-solo", "attempt": 1}
        ]
        assert event_log.events(kind="batch.object_failed") == []
        # the retried attempt's spans were discarded: one attempt's
        # worth, none of them FAILED
        assert len(report.trace.spans_named("verify")) == 1
        assert len(report.trace.spans_named("verify_pool")) == 1
        assert not any(span.failed for span in report.trace.spans)
        assert len(system.provenance.get(report.record_id).outcomes) == (
            len(report.outcomes)
        )

    def test_verification_error_is_a_runtime_error(self):
        assert issubclass(VerificationError, RuntimeError)
        from repro.verify import VerificationError as exported

        assert exported is VerificationError


class TestPrefillFault:
    """A fault inside the matrix prefill leaves that modality's cache
    cold; each object then retrieves for itself inside its own error
    boundary, which pins the fault on the object that caused it."""

    CULPRIT = "obj-02"

    def campaign(self, bundle, mixed_workload, workers=1, choke=True):
        system = VerifAI(
            bundle.lake,
            llm=SimulatedLLM(knowledge=None, seed=26),
            config=VerifAIConfig(use_reranker=True),
            clock=TickClock(),
        ).build_indexes()
        rerank = system.reranker.rerank

        def choking_rerank(obj, modality, *args):
            if obj.object_id == self.CULPRIT and modality is Modality.TEXT:
                raise RuntimeError(f"reranker choked on {obj.object_id}")
            return rerank(obj, modality, *args)

        if choke:
            system.reranker.rerank = choking_rerank
        batch = system.verify_batch(
            mixed_workload[:5], max_workers=workers, trace=True
        )
        return system, batch

    def test_prefill_fault_is_pinned_on_its_object(
        self, bundle, mixed_workload, event_log
    ):
        failures = get_registry().counter("batch.matrix_prefill_failures")
        failures_before = failures.value
        system, batch = self.campaign(bundle, mixed_workload)
        # the text prefill faulted, the tuple prefill did not
        assert failures.value == failures_before + 1
        assert batch.stats.matrix_batches == 1
        events = event_log.events(kind="batch.matrix_prefill_failed")
        assert [e.fields for e in events] == [
            {"modality": "text", "queries": 5}
        ]
        prefills = {
            span.attributes["modality"]: span
            for span in batch.trace.spans
            if span.name.startswith("retrieve:prefill:")
        }
        assert prefills["text"].failed
        assert "reranker choked" in prefills["text"].error
        assert not prefills["tuple"].failed
        # exactly the culprit comes back FAILED ...
        assert [r.object_id for r in batch.failures] == [self.CULPRIT]
        assert "reranker choked" in batch.failures[0].error
        # ... and the other four equal a clean run's, stage for stage
        clean_system, clean = self.campaign(
            bundle, mixed_workload, choke=False
        )
        for report, expected in zip(batch.reports, clean.reports):
            if report.object_id == self.CULPRIT:
                continue
            assert (
                report.final_verdict, report.margin, report.evidence_ids
            ) == (
                expected.final_verdict, expected.margin,
                expected.evidence_ids,
            )
            assert system.provenance.get(report.record_id).retrieval == (
                clean_system.provenance.get(expected.record_id).retrieval
            )

    def test_fallback_traces_are_identical_serial_and_parallel(
        self, bundle, mixed_workload
    ):
        _, serial = self.campaign(bundle, mixed_workload, workers=1)
        _, parallel = self.campaign(bundle, mixed_workload, workers=4)
        assert render_trace_json(serial.trace) == render_trace_json(
            parallel.trace
        )
        assert fingerprint(serial) == fingerprint(parallel)


class TestFailedRecordPersistence:
    def test_failed_records_roundtrip(self, bundle, mixed_workload,
                                      tmp_path):
        from repro.provenance.store import ProvenanceStore

        system = make_system(bundle)
        system.verify_batch(mixed_workload[:10])
        path = tmp_path / "provenance.json"
        system.provenance.save(path)
        loaded = ProvenanceStore.load(path)
        assert len(loaded) == len(system.provenance)
        for record_id, record in loaded._records.items():
            original = system.provenance.get(record_id)
            assert record.status == original.status
            assert record.error == original.error
