"""Span tracing through the pipeline.

The acceptance bar for the observability layer: under a frozen
``TickClock``, two runs of the same campaign export byte-identical
stable-JSON traces (including an object that FAILs), and every
span↔provenance-record reference resolves in both directions.
"""

import pytest

from repro.core.pipeline import VerifAI
from repro.llm.model import SimulatedLLM
from repro.obs.clock import TickClock
from repro.obs.export import (
    TRACE_FORMAT_VERSION,
    load_trace,
    render_trace_json,
    span_to_dict,
    trace_to_dict,
    validate_trace,
    write_trace,
)
from repro.obs.render import render_tree
from repro.obs.trace import (
    NULL_BRANCH,
    SPAN_FAILED,
    SPAN_OK,
    Span,
    Trace,
    Tracer,
    span_id_for,
)
from repro.verify.objects import TupleObject
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeConfig, build_lake


class PoisonedObject(TupleObject):
    """A TupleObject whose query_text() always raises."""

    def query_text(self) -> str:
        raise RuntimeError(f"poisoned payload in {self.object_id}")


@pytest.fixture(scope="module")
def bundle():
    return build_lake(LakeConfig(num_tables=20, seed=21))


@pytest.fixture(scope="module")
def workload(bundle):
    """8 objects: one poisoned, one exact duplicate of the first."""
    objects = []
    for i, table in enumerate(bundle.tables[:7]):
        cls = PoisonedObject if i == 3 else TupleObject
        objects.append(
            cls(f"obj-{i}", table.row(0), attribute=table.columns[1])
        )
    objects.append(
        TupleObject(
            "obj-dup", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
    )
    return objects


def make_system(bundle, clock=None):
    llm = SimulatedLLM(knowledge=None, seed=26)
    return VerifAI(bundle.lake, llm=llm, clock=clock).build_indexes()


def traced_batch(bundle, workload):
    system = make_system(bundle, clock=TickClock())
    batch = system.verify_batch(workload, trace=True)
    return system, batch


# ----------------------------------------------------------------------
# the headline guarantee: byte-identical traces from run to run
# ----------------------------------------------------------------------
class TestByteStability:
    def test_two_runs_export_identical_bytes(self, bundle, workload):
        _, first = traced_batch(bundle, workload)
        _, second = traced_batch(bundle, workload)
        assert first.trace is not None and second.trace is not None
        assert render_trace_json(first.trace) == render_trace_json(
            second.trace
        )
        assert render_tree(first.trace) == render_tree(second.trace)

    def test_span_ids_are_deterministic_digests(self, bundle, workload):
        _, batch = traced_batch(bundle, workload)
        for span in batch.trace.spans:
            assert span.span_id == span_id_for(
                batch.trace.trace_id, span.path
            )


# ----------------------------------------------------------------------
# trace shape
# ----------------------------------------------------------------------
class TestTraceShape:
    def test_root_and_per_object_spans(self, bundle, workload):
        _, batch = traced_batch(bundle, workload)
        trace = batch.trace
        root = trace.root
        assert root.name == "verify_batch"
        assert root.attributes["objects"] == len(workload)
        verifies = trace.spans_named("verify")
        assert [s.attributes["object_id"] for s in verifies] == [
            o.object_id for o in workload
        ]

    def test_retrieval_and_verdict_spans(self, bundle, workload):
        _, batch = traced_batch(bundle, workload)
        trace = batch.trace
        coarse = trace.spans_named("retrieve:coarse:tuple")
        assert coarse, "tuple objects must emit coarse retrieval spans"
        for span in coarse:
            assert span.attributes["hits"] >= 0
            assert span.attributes["k"] > 0
            assert span.attributes["modality"] == "tuple"
        verdicts = trace.spans_named("verdict")
        assert verdicts
        for span in verdicts:
            assert span.attributes["evidence_id"]
            assert span.attributes["verdict"] in Verdict.__members__

    def test_duplicate_object_is_marked_deduped(self, bundle, workload):
        _, batch = traced_batch(bundle, workload)
        by_object = {
            s.attributes["object_id"]: s
            for s in batch.trace.spans_named("verify")
        }
        dup_retrievals = batch.trace.children_of(by_object["obj-dup"])
        dedup_flags = [
            s.attributes["dedup"]
            for s in dup_retrievals
            if "dedup" in s.attributes
        ]
        assert dedup_flags and all(dedup_flags)
        first_retrievals = batch.trace.children_of(by_object["obj-0"])
        assert not any(
            s.attributes.get("dedup") for s in first_retrievals
        )

    def test_a_verifier_fault_fails_the_spans_it_unwinds(self, bundle):
        # the faulting object's spans stay in the trace, once each,
        # FAILED from the verdict up; the next object's are OK
        system = make_system(bundle, clock=TickClock())
        verify = system.verifier.agent.verify

        def choking_verify(obj, evidence):
            if obj.object_id == "chokes":
                raise RuntimeError("model backend down")
            return verify(obj, evidence)

        system.verifier.agent.verify = choking_verify
        table = bundle.tables[0]
        objects = [
            TupleObject(name, table.row(0), attribute=table.columns[1])
            for name in ("chokes", "fine")
        ]
        trace = system.verify_batch(objects, trace=True).trace
        status = {}
        for span in trace.spans:
            if span.name in ("verify", "verify_pool", "verdict"):
                owner = span.path.split("/")[1]
                status.setdefault((owner, span.name), []).append(span.status)
        fine_verdicts = status.pop(("1:verify", "verdict"))
        assert fine_verdicts and set(fine_verdicts) == {SPAN_OK}
        assert status == {
            ("0:verify", "verify"): [SPAN_FAILED],
            ("0:verify", "verify_pool"): [SPAN_FAILED],
            ("0:verify", "verdict"): [SPAN_FAILED],
            ("1:verify", "verify"): [SPAN_OK],
            ("1:verify", "verify_pool"): [SPAN_OK],
        }
        assert "model backend down" in trace.spans_named("verdict")[0].error

    def test_failed_object_span_carries_status_and_error(
        self, bundle, workload
    ):
        system, batch = traced_batch(bundle, workload)
        failed = [s for s in batch.trace.spans_named("verify") if s.failed]
        assert len(failed) == 1
        span = failed[0]
        assert span.status == SPAN_FAILED
        assert span.attributes["object_id"] == "obj-3"
        record = system.provenance.get(span.record_id)
        assert span.error == record.error
        assert "RuntimeError" in span.error


# ----------------------------------------------------------------------
# provenance linkage
# ----------------------------------------------------------------------
class TestProvenanceLinkage:
    def test_bidirectional_resolution(self, bundle, workload):
        system, batch = traced_batch(bundle, workload)
        trace = batch.trace
        # every record id a span carries resolves, and points back
        for record_id in trace.record_ids():
            record = system.provenance.get(record_id)
            assert record.trace_id == trace.trace_id
        # every record of the campaign appears in the trace
        span_records = set(trace.record_ids())
        for report in batch.reports:
            assert report.record_id in span_records

    def test_explain_mentions_the_trace(self, bundle, workload):
        system, batch = traced_batch(bundle, workload)
        explanation = system.explain(batch.reports[0])
        assert f"trace: {batch.trace.trace_id}" in explanation

    def test_untraced_runs_carry_no_linkage(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload[:2])
        assert batch.trace is None
        for report in batch.reports:
            assert system.provenance.get(report.record_id).trace_id == ""


# ----------------------------------------------------------------------
# serial verify(trace=True)
# ----------------------------------------------------------------------
class TestSerialVerifyTrace:
    def test_verify_trace_has_real_durations(self, bundle):
        system = make_system(bundle, clock=TickClock(step=0.25))
        obj = TupleObject(
            "serial-1", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        report = system.verify(obj, trace=True)
        trace = report.trace
        assert trace.root.name == "verify"
        assert trace.root.duration > 0
        assert trace.root.record_id == report.record_id
        assert system.provenance.get(report.record_id).trace_id == (
            trace.trace_id
        )

    def test_failed_serial_verify_still_returns_a_trace(self, bundle):
        system = make_system(bundle, clock=TickClock())
        report = system.verify(
            PoisonedObject(
                "bad", bundle.tables[0].row(0),
                attribute=bundle.tables[0].columns[1],
            ),
            trace=True,
        )
        assert not report.ok
        assert report.trace is not None
        assert report.trace.root.status == SPAN_FAILED
        assert "RuntimeError" in report.trace.root.error

    def test_untraced_verify_returns_no_trace(self, bundle):
        system = make_system(bundle)
        obj = TupleObject(
            "serial-2", bundle.tables[0].row(0),
            attribute=bundle.tables[0].columns[1],
        )
        assert system.verify(obj).trace is None


# ----------------------------------------------------------------------
# export / import / render
# ----------------------------------------------------------------------
class TestExport:
    def test_write_load_roundtrip(self, bundle, workload, tmp_path):
        _, batch = traced_batch(bundle, workload)
        path = tmp_path / "trace.json"
        write_trace(batch.trace, path)
        payload = load_trace(path)
        assert payload["version"] == TRACE_FORMAT_VERSION
        assert payload["trace_id"] == batch.trace.trace_id
        assert payload["span_count"] == len(batch.trace)
        assert render_trace_json(payload) == render_trace_json(batch.trace)

    def test_render_tree_accepts_trace_and_dict(self, bundle, workload):
        _, batch = traced_batch(bundle, workload)
        from_trace = render_tree(batch.trace)
        from_dict = render_tree(trace_to_dict(batch.trace))
        assert from_trace == from_dict
        assert from_trace.startswith(
            f"trace {batch.trace.trace_id} ({len(batch.trace)} spans)"
        )
        assert "!FAILED" in from_trace

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            validate_trace([])
        with pytest.raises(ValueError):
            validate_trace({"version": 99, "trace_id": "t", "spans": []})
        with pytest.raises(ValueError):
            validate_trace(
                {
                    "version": TRACE_FORMAT_VERSION,
                    "trace_id": "t",
                    "span_count": 2,
                    "spans": [],
                }
            )

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(ValueError):
            load_trace(path)

    @pytest.mark.parametrize("change,message", [
        ({"trace_id": ""}, "missing a trace_id"),
        ({"trace_id": 7}, "missing a trace_id"),
        ({"spans": None}, "missing its spans list"),
        ({"spans": ["span"], "span_count": 1}, "span #0 is not an object"),
        ({"spans": [{"span_id": "s", "name": "n"}], "span_count": 1},
         "span #0 is missing key(s): parent_id, index, path"),
    ], ids=["empty-id", "int-id", "no-spans", "string-span", "short-span"])
    def test_validate_names_what_is_wrong(self, change, message):
        payload = {"version": TRACE_FORMAT_VERSION, "trace_id": "t",
                   "span_count": 0, "spans": [], **change}
        with pytest.raises(ValueError) as caught:
            validate_trace(payload)
        assert message in str(caught.value)

    def test_cpu_stamps_are_exported_only_when_profiled(self):
        plain = Span("t", "s1", "", "root", 0, "root", 1.0, end=3.0)
        assert "cpu_duration" not in span_to_dict(plain)
        profiled = Span("t", "s1", "", "root", 0, "root", 1.0, end=3.0,
                        cpu_start=0.5, cpu_end=1.25)
        payload = span_to_dict(profiled)
        assert (payload["cpu_start"], payload["cpu_end"],
                payload["cpu_duration"]) == (0.5, 1.25, 0.75)
        assert payload["duration"] == 2.0
        exported = trace_to_dict(Trace("t", (profiled,)))
        assert validate_trace(exported)["spans"][0]["cpu_duration"] == 0.75


# ----------------------------------------------------------------------
# stats surface riding along with the trace work
# ----------------------------------------------------------------------
class TestStatsSurface:
    def test_stage_seconds_print_sorted(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        line = batch.stats.summary()
        names = sorted(batch.stats.stage_seconds)
        positions = [line.index(f"{name} ") for name in names]
        assert positions == sorted(positions)

    def test_batch_summary_surfaces_failed(self, bundle, workload):
        system = make_system(bundle)
        batch = system.verify_batch(workload)
        assert batch.summary().endswith("(1 FAILED); 1 failed")
        assert "; 1 failed; " in batch.stats.summary()
        assert "retries" not in batch.stats.to_dict()


# ----------------------------------------------------------------------
# null objects
# ----------------------------------------------------------------------
class TestNullBranch:
    def test_null_branch_is_inert(self):
        with NULL_BRANCH.span("anything", attributes={"k": 1}) as span:
            span.set("ignored", True)

    def test_a_branch_span_is_in_the_trace_once_it_opens(self):
        tracer = Tracer("trace-test", clock=TickClock())
        branch = tracer.branch()
        with branch.span("work") as span:
            span.set("k", 1)
            assert [s.name for s in tracer.trace().spans] == ["work"]
        with pytest.raises(KeyError):
            with branch.span("fails"):
                raise KeyError("gone")
        assert [(s.name, s.index, s.status) for s in tracer.trace().spans] \
            == [("work", 0, SPAN_OK), ("fails", 1, SPAN_FAILED)]

    def test_a_branch_numbers_each_parents_children_apart(self):
        tracer = Tracer("trace-test", clock=TickClock())
        root = tracer.root("root")
        branch = tracer.branch()
        with branch.span("a", parent=root) as a:
            with branch.span("a1", parent=a):
                pass
            with branch.span("a2", parent=a):
                pass
        with branch.span("b", parent=root):
            pass
        assert [(s.name, s.path) for s in tracer.trace().spans] == [
            ("root", "0:root"),
            ("a", "0:root/0:a"),
            ("a1", "0:root/0:a/0:a1"),
            ("a2", "0:root/0:a/1:a2"),
            ("b", "0:root/1:b"),
        ]

    def test_a_negative_first_index_sorts_ahead_of_later_spans(self):
        tracer = Tracer("trace-test", clock=TickClock())
        root = tracer.root("root")
        with tracer.branch().span("object", parent=root):
            pass
        setup = tracer.branch(first_index=-2)
        for name in ("build", "prefill"):
            with setup.span(name, parent=root):
                pass
        assert [
            (s.name, s.index) for s in tracer.trace().spans
        ] == [("root", 0), ("build", -2), ("prefill", -1), ("object", 0)]
