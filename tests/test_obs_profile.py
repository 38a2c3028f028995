"""Stage profiler: CPU stamping, self-time attribution, and sampling.

The acceptance bar for PR 9's profiling half: profiling is strictly
opt-in (default traces are byte-identical to an unprofiled run), and a
profiled seeded campaign attributes at least 90% of its wall time to
named pipeline stages in valid collapsed-stack output.
"""

import re

import pytest

from repro.core.pipeline import VerifAI
from repro.obs.clock import ThreadCpuClock, TickClock
from repro.obs.export import render_trace_json
from repro.obs.profile import (
    StackSampler,
    StageProfile,
    sample_callable,
)
from repro.obs.trace import Tracer
from repro.workloads.builder import LakeConfig, build_lake

#: one collapsed-stack line: frame(;frame)* <integer>
COLLAPSED_LINE = re.compile(r"^[^ ;]+(;[^ ;]+)* \d+$")


@pytest.fixture(scope="module")
def lake():
    return build_lake(LakeConfig(num_tables=12, seed=5)).lake


def sample_objects(system, count, seed=3):
    from repro.cli import _sample_objects

    return _sample_objects(system, count, seed, "test")


# ----------------------------------------------------------------------
# CPU stamping through the tracer
# ----------------------------------------------------------------------
class TestCpuStamps:
    def test_spans_carry_cpu_times_only_when_cpu_clock_injected(self):
        plain = Tracer("trace-000001", clock=TickClock())
        span = plain.root("verify_batch")
        plain.close(span)
        assert span.cpu_start is None
        assert span.cpu_duration is None

        cpu = TickClock()
        profiled = Tracer(
            "trace-000001", clock=TickClock(), cpu_clock=cpu
        )
        span = profiled.root("verify_batch")
        cpu.advance(0.25)
        profiled.close(span)
        assert span.cpu_duration == pytest.approx(0.25)

    def test_branch_spans_stamp_cpu_on_success_and_failure(self):
        cpu = TickClock()
        tracer = Tracer("trace-000001", clock=TickClock(), cpu_clock=cpu)
        root = tracer.root("verify_batch")
        branch = tracer.branch()
        with branch.span("verify", parent=root) as span:
            cpu.advance(0.5)
        assert span.cpu_duration == pytest.approx(0.5)
        with pytest.raises(RuntimeError):
            with branch.span("verify", parent=root) as failed:
                cpu.advance(0.125)
                raise RuntimeError("boom")
        assert failed.cpu_duration == pytest.approx(0.125)

    def test_cpu_fields_absent_from_default_export(self):
        tracer = Tracer("trace-000001", clock=TickClock())
        tracer.close(tracer.root("verify_batch"))
        assert "cpu" not in render_trace_json(tracer.trace())

    def test_thread_cpu_clock_is_monotonic(self):
        clock = ThreadCpuClock()
        first = clock.now()
        sum(range(10_000))
        assert clock.now() >= first


# ----------------------------------------------------------------------
# StageProfile
# ----------------------------------------------------------------------
def build_profile_trace():
    """root(4.0s) -> verify(2.0s) -> verify_pool(1.0s), frozen clocks."""
    clock, cpu = TickClock(), TickClock()
    tracer = Tracer("trace-000001", clock=clock, cpu_clock=cpu)
    root = tracer.root("verify_batch")
    branch = tracer.branch()
    with branch.span("verify", parent=root) as span:
        clock.advance(1.0)
        cpu.advance(0.5)
        with branch.span("verify_pool", parent=span):
            clock.advance(1.0)
            cpu.advance(0.75)
    branch.commit()
    clock.advance(2.0)
    tracer.close(root)
    return tracer.trace()


class TestStageProfile:
    def test_self_times_sum_to_the_root_duration(self):
        profile = StageProfile.from_trace(build_profile_trace())
        assert profile.total_wall_seconds == pytest.approx(4.0)
        by_stack = {e.label: e for e in profile.entries()}
        assert by_stack["verify_batch"].wall_seconds == pytest.approx(2.0)
        assert by_stack["verify_batch;verify"].wall_seconds == (
            pytest.approx(1.0)
        )
        assert by_stack[
            "verify_batch;verify;verify_pool"
        ].wall_seconds == pytest.approx(1.0)

    def test_cpu_self_times_follow_the_same_subtraction(self):
        profile = StageProfile.from_trace(build_profile_trace())
        by_stack = {e.label: e for e in profile.entries()}
        assert by_stack["verify_batch;verify"].cpu_seconds == (
            pytest.approx(0.5)
        )
        assert by_stack[
            "verify_batch;verify;verify_pool"
        ].cpu_seconds == pytest.approx(0.75)

    def test_collapsed_output_is_sorted_and_parseable(self):
        profile = StageProfile.from_trace(build_profile_trace())
        lines = profile.collapsed().splitlines()
        assert lines == sorted(lines)
        for line in lines:
            assert COLLAPSED_LINE.match(line), line
        # microsecond values
        assert "verify_batch;verify 1000000" in lines

    def test_attribution_excludes_only_root_self_time(self):
        profile = StageProfile.from_trace(build_profile_trace())
        assert profile.attributed_fraction() == pytest.approx(0.5)

    def test_to_dict_and_table_agree_on_stages(self):
        profile = StageProfile.from_trace(build_profile_trace())
        payload = profile.to_dict()
        stacks = [s["stack"] for s in payload["stages"]]
        assert stacks == sorted(stacks)
        table = profile.table()
        for stack in stacks:
            assert stack in table
        assert "attributed" in table


# ----------------------------------------------------------------------
# verify_batch(profile=True)
# ----------------------------------------------------------------------
class TestProfiledCampaign:
    def test_profile_implies_trace_and_attaches_stage_profile(self, lake):
        system = VerifAI(lake)
        objects = sample_objects(system, 8)
        batch = system.verify_batch(objects, profile=True)
        assert batch.trace is not None
        assert batch.profile is not None
        labels = {e.label for e in batch.profile.entries()}
        assert any("verify_pool" in label for label in labels)

    def test_profiled_run_attributes_90_percent_of_wall_time(self, lake):
        system = VerifAI(lake)
        objects = sample_objects(system, 50)
        batch = system.verify_batch(objects, profile=True)
        assert batch.profile.attributed_fraction() >= 0.90
        for line in batch.profile.collapsed().splitlines():
            assert COLLAPSED_LINE.match(line), line

    def test_default_traces_stay_byte_identical_to_profiled_shape(
        self, lake
    ):
        """profile=True must not change the *trace* relative to
        trace=True under frozen clocks — CPU stamps live outside the
        exported default payload only when absent, so here we assert
        the span tree itself (ids, order, attributes) is unchanged."""
        serial = VerifAI(lake, clock=TickClock(), cpu_clock=TickClock())
        objects = sample_objects(serial, 6)
        plain = serial.verify_batch(objects, trace=True)

        profiled_system = VerifAI(
            lake, clock=TickClock(), cpu_clock=TickClock()
        )
        profiled = profiled_system.verify_batch(objects, profile=True)
        assert [s.span_id for s in plain.trace.spans] == (
            [s.span_id for s in profiled.trace.spans]
        )
        # and the unprofiled export carries no cpu keys at all
        assert "cpu" not in render_trace_json(plain.trace)

    def test_unprofiled_batch_has_no_profile(self, lake):
        system = VerifAI(lake)
        batch = system.verify_batch(sample_objects(system, 2), trace=True)
        assert batch.profile is None


# ----------------------------------------------------------------------
# StackSampler
# ----------------------------------------------------------------------
class TestStackSampler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            StackSampler(interval=0)

    def test_samples_a_busy_callable_into_collapsed_lines(self):
        def busy():
            total = 0
            for _ in range(80):
                total += sum(range(20_000))
            return 0

        run = sample_callable(busy, interval=0.002)
        assert run.exit_code == 0
        assert run.samples > 0
        lines = run.collapsed.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            assert COLLAPSED_LINE.match(line), line

    def test_double_start_is_an_error_and_stop_is_idempotent(self):
        sampler = StackSampler(interval=0.01)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop()
        sampler.stop()  # no-op

    def test_exit_code_passthrough(self):
        run = sample_callable(lambda: 3, interval=0.01)
        assert run.exit_code == 3
