"""Orchestrate-until-pass loop: trail schema, loop mechanics, seeded
determinism (serial vs parallel), and the convergence harness."""

import json

import pytest

from repro.loop import (
    DEFAULT_MIX,
    AuditTrail,
    LoopConfig,
    LoopOrchestrator,
    MixReport,
    Scenario,
    TaskState,
    read_trail,
    run_mix,
    run_scenario,
)
from repro.loop.scenarios import build_scenario_system
from repro.loop.trail import SCHEMA
from repro.obs.clock import TickClock
from repro.obs.events import (
    EventLog,
    install_event_log,
    uninstall_event_log,
)

TINY = Scenario(name="tiny", num_tables=30, num_tasks=8, seed=7)


@pytest.fixture(scope="module")
def tiny_run():
    """One small orchestration run with its system kept around."""
    system, generator, specs = build_scenario_system(TINY)
    orchestrator = LoopOrchestrator(
        system, generator, LoopConfig(max_iters=4, seed=TINY.seed)
    )
    return system, orchestrator.run(specs)


class TestAuditTrail:
    def test_append_stamps_seq_and_time(self):
        trail = AuditTrail(clock=TickClock(5.0))
        entry = trail.append("draft", value="x")
        assert entry == {
            "seq": 1, "time": 5.0, "kind": "draft", "value": "x"
        }
        assert trail.append("verdict")["seq"] == 2

    def test_reserved_fields_rejected(self):
        trail = AuditTrail(clock=TickClock())
        with pytest.raises(ValueError, match="reserved"):
            trail.append("draft", seq=9)

    def test_jsonl_roundtrip(self):
        trail = AuditTrail(clock=TickClock())
        trail.start(tasks=2, max_iters=4, seed=7)
        trail.draft(
            task_id="t1", iteration=1, column="votes", value="1",
            revised=False,
        )
        entries = read_trail(trail.to_jsonl())
        assert [e["kind"] for e in entries] == ["start", "draft"]
        assert entries[0]["schema"] == SCHEMA

    def test_jsonl_is_canonical(self):
        trail = AuditTrail(clock=TickClock())
        trail.append("draft", b="2", a="1")
        line = trail.to_jsonl().strip()
        assert line == json.loads(json.dumps(line))  # ascii-safe
        assert line.index('"a"') < line.index('"b"')
        assert " " not in line.split('"kind"')[0]

    def test_read_trail_rejects_unknown_schema(self):
        bad = json.dumps({"kind": "start", "schema": "loop-trail/v999"})
        with pytest.raises(ValueError, match="unsupported trail schema"):
            read_trail(bad)

    def test_of_kind_and_write(self, tmp_path):
        trail = AuditTrail(clock=TickClock())
        trail.append("draft")
        trail.append("verdict")
        assert len(trail.of_kind("draft")) == 1
        path = tmp_path / "trail.jsonl"
        trail.write(str(path))
        assert read_trail(path.read_text()) == list(trail)


class TestLoopMechanics:
    def test_every_task_reaches_a_terminal_state(self, tiny_run):
        _, result = tiny_run
        assert len(result) == TINY.num_tasks
        assert result.passed + result.exhausted == len(result)
        for outcome in result.outcomes:
            assert outcome.state in (TaskState.PASSED, TaskState.EXHAUSTED)
            assert 1 <= outcome.iterations <= 4
            assert outcome.history[-1][0] == outcome.iterations

    def test_passed_tasks_end_with_a_verified_round(self, tiny_run):
        _, result = tiny_run
        passed = [
            o for o in result.outcomes if o.state is TaskState.PASSED
        ]
        assert passed
        for outcome in passed:
            assert outcome.history[-1][1] == "VERIFIED"

    def test_exhausted_tasks_spent_max_iters(self, tiny_run):
        _, result = tiny_run
        for outcome in result.outcomes:
            if outcome.state is TaskState.EXHAUSTED:
                assert outcome.iterations == 4
                assert all(v != "VERIFIED" for _, v in outcome.history)

    def test_round_stats_are_conserved(self, tiny_run):
        _, result = tiny_run
        for stats in result.rounds:
            assert (
                stats.verified + stats.refuted + stats.unresolved
                == stats.active
            )
        for before, after in zip(result.rounds, result.rounds[1:]):
            assert after.active == before.active - before.verified

    def test_trail_mirrors_the_run(self, tiny_run):
        _, result = tiny_run
        trail = result.trail
        header = trail.entries[0]
        assert header["kind"] == "start"
        assert header["schema"] == SCHEMA
        assert header["tasks"] == TINY.num_tasks
        summary = trail.entries[-1]
        assert summary["kind"] == "summary"
        assert summary["passed"] == result.passed
        assert summary["exhausted"] == result.exhausted
        assert summary["rounds"] == len(result.rounds)
        verdicts = trail.of_kind("verdict")
        assert len(verdicts) == sum(s.active for s in result.rounds)
        ends = trail.of_kind("task_end")
        assert len(ends) == len(result)

    def test_verdicts_cross_link_provenance_and_trace(self, tiny_run):
        system, result = tiny_run
        for entry in result.trail.of_kind("verdict"):
            record = system.provenance.get(entry["record_id"])
            assert record.trace_id == entry["trace_id"]
            assert entry["trace_id"].startswith("trace-")
            assert entry["verdict"] in (
                "VERIFIED", "REFUTED", "NOT_RELATED"
            )

    def test_revision_adopts_the_stated_refuter_value(self, tiny_run):
        """A REFUTED verdict with a stated evidence value must produce a
        revised draft carrying exactly that value."""
        _, result = tiny_run
        entries = result.trail.entries
        stated_feedback = 0
        for index, entry in enumerate(entries):
            if entry["kind"] != "verdict" or entry["stated_value"] is None:
                continue
            follow = [
                e for e in entries[index + 1:]
                if e["kind"] == "draft" and e["task_id"] == entry["task_id"]
            ]
            if follow:
                stated_feedback += 1
                assert follow[0]["revised"] is True
                assert follow[0]["value"] == entry["stated_value"]
                assert follow[0]["iteration"] == entry["iteration"] + 1
        assert stated_feedback > 0

    def test_loop_metrics_are_emitted(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        before = registry.counter("loop.drafts").value
        run_scenario(Scenario(name="m", num_tables=30, num_tasks=4, seed=3))
        assert registry.counter("loop.drafts").value >= before + 4

    def test_loop_events_reach_the_flight_recorder(self):
        log = EventLog(clock=TickClock())
        install_event_log(log)
        try:
            run_scenario(
                Scenario(name="e", num_tables=30, num_tasks=4, seed=3)
            )
        finally:
            uninstall_event_log(log)
        kinds = {event.kind for event in log.events(kind="loop")}
        assert {"loop.start", "loop.verdict", "loop.end"} <= kinds

    def test_max_iters_validation(self):
        with pytest.raises(ValueError, match="max_iters"):
            LoopConfig(max_iters=0)


class TestSeededDeterminism:
    """Satellite: a scenario run twice must agree to the byte."""

    def test_repeated_run_reproduces_bytes(self):
        scenario = Scenario(
            name="det-again", num_tables=30, num_tasks=6, seed=17
        )
        first = run_scenario(scenario).result.trail.to_jsonl()
        second = run_scenario(scenario).result.trail.to_jsonl()
        assert first == second


class TestScenarios:
    def test_default_mix_names_are_unique(self):
        names = [scenario.name for scenario in DEFAULT_MIX]
        assert len(names) == len(set(names))

    def test_lake_coverage_validation(self):
        with pytest.raises(ValueError, match="lake_coverage"):
            Scenario(name="bad", lake_coverage=0.0)

    def test_sparse_lake_drops_tables_but_not_tasks(self):
        scenario = Scenario(
            name="sparse", num_tables=30, num_tasks=6,
            lake_coverage=0.8, seed=7,
        )
        system, _, specs = build_scenario_system(scenario)
        assert system.lake.stats().num_tables == 24
        assert len(specs) == 6

    def test_mix_report_aggregates(self):
        report = run_mix(
            [
                Scenario(name="a", num_tables=30, num_tasks=4, seed=3),
                Scenario(name="b", num_tables=30, num_tasks=4, seed=5),
            ]
        )
        assert report.tasks == 8
        assert 0.0 <= report.first_pass_accuracy <= 1.0
        assert 0.0 <= report.end_accuracy <= 1.0
        payload = report.to_dict()
        assert len(payload["scenarios"]) == 2
        assert "->" in report.summary()
