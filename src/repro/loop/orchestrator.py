"""Orchestrate-until-pass: the verify loop closed over the generator.

Single-pass repair (:mod:`repro.repair`) patches a refuted value from
evidence and stops.  This module instead *re-generates*: refuted or
unrelated drafts go back to the generator as revision prompts carrying
the deciding refuter's stated value (the same
:func:`repro.repair.strongest_refuter` semantics repair uses), and the
loop iterates until every draft verifies or ``max_iters`` rounds are
spent.

State machine per task::

    DRAFTING --draft--> VERIFYING --VERIFIED--> PASSED
                           |  ^
            REFUTED /      |  | revision draft (feedback + iteration)
            NOT_RELATED    v  |
                        REVISING --round == max_iters--> EXHAUSTED

All verification runs through :meth:`VerifAI.verify_batch`, one batch
per round, so the loop inherits the batch engine's dedupe, error
boundary, and — crucially — its determinism: report order matches
input order and record/trace ids are allocated serially.  Every
decision lands in an :class:`~repro.loop.trail.AuditTrail` entry
cross-linking the provenance ``record_id`` and trace id of the verdict
it acted on; under a frozen TickClock the trail is byte-identical for
serial and parallel runs of the same seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.claims.engine import TableQueryEngine
from repro.core.pipeline import VerifAI
from repro.datalake.types import Row
from repro.llm.model import SimulatedLLM
from repro.llm.prompts import (
    parse_completed_table,
    tuple_completion_prompt,
    tuple_revision_prompt,
)
from repro.loop.trail import AuditTrail
from repro.obs.events import get_event_log
from repro.obs.metrics import get_registry
from repro.repair import strongest_refuter
from repro.verify.objects import TupleObject
from repro.verify.verdict import Verdict
from repro.workloads.builder import LakeBundle
from repro.workloads.tuplecomp import TupleCompletionTask

#: placeholder the generator is asked to fill
MASK = "NaN"


class TaskState(enum.Enum):
    """Terminal state of one task after the loop."""

    PASSED = "passed"        # a draft verified within max_iters rounds
    EXHAUSTED = "exhausted"  # max_iters rounds spent without a pass


@dataclass(frozen=True)
class DraftSpec:
    """One cell the loop must impute-and-verify.

    Carries its own ``caption`` (rather than looking it up in the
    serving lake) because scenario harnesses may drop the task's table
    from the lake to model partial coverage — the generator still needs
    to know what table it is completing.  ``true_value`` is optional
    ground truth used only for accuracy reporting, never by the loop
    itself.
    """

    task_id: str
    caption: str
    row: Row                 # the original, complete tuple
    column: str              # the cell to impute
    true_value: str = ""

    @classmethod
    def from_task(
        cls, task: TupleCompletionTask, bundle: LakeBundle
    ) -> "DraftSpec":
        return cls(
            task_id=task.task_id,
            caption=bundle.lake.table(task.row.table_id).caption,
            row=task.row,
            column=task.column,
            true_value=task.true_value,
        )

    def masked_row(self) -> Row:
        return self.row.replace_value(self.column, MASK)

    def completed_row(self, value: str) -> Row:
        return self.row.replace_value(self.column, value)


@dataclass
class TaskOutcome:
    """What the loop concluded about one task."""

    spec: DraftSpec
    first_value: str = ""
    final_value: str = ""
    state: TaskState = TaskState.EXHAUSTED
    iterations: int = 0      # verification rounds consumed
    #: (round, verdict name) per verification, in order
    history: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def first_correct(self) -> bool:
        return TableQueryEngine.values_match(
            self.first_value, self.spec.true_value
        )

    @property
    def final_correct(self) -> bool:
        return TableQueryEngine.values_match(
            self.final_value, self.spec.true_value
        )


@dataclass(frozen=True)
class RoundStats:
    """Verdict counts of one verification round (the per-iteration
    delta the convergence harness reports)."""

    round: int
    active: int
    verified: int
    refuted: int
    unresolved: int


@dataclass
class LoopResult:
    """Aggregate of one orchestration run."""

    outcomes: List[TaskOutcome]
    rounds: List[RoundStats]
    trail: AuditTrail

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.state is TaskState.PASSED)

    @property
    def exhausted(self) -> int:
        return sum(1 for o in self.outcomes if o.state is TaskState.EXHAUSTED)

    @property
    def convergence_rate(self) -> float:
        return self.passed / len(self.outcomes) if self.outcomes else 0.0

    @property
    def first_pass_accuracy(self) -> float:
        """Value accuracy of the round-1 drafts (no feedback yet)."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.first_correct) / len(
            self.outcomes
        )

    @property
    def end_accuracy(self) -> float:
        """Value accuracy of the values the loop settled on."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.final_correct) / len(
            self.outcomes
        )

    @property
    def mean_iterations_to_pass(self) -> float:
        """Mean rounds consumed by tasks that passed (0.0 if none did)."""
        rounds = [
            o.iterations for o in self.outcomes if o.state is TaskState.PASSED
        ]
        return sum(rounds) / len(rounds) if rounds else 0.0

    def summary(self) -> str:
        return (
            f"{len(self.outcomes)} tasks: {self.passed} passed, "
            f"{self.exhausted} exhausted in {len(self.rounds)} rounds; "
            f"accuracy {self.first_pass_accuracy:.2f} -> "
            f"{self.end_accuracy:.2f}"
        )


@dataclass(frozen=True)
class LoopConfig:
    """Knobs of the orchestrate-until-pass loop.

    ``max_iters`` counts *verification rounds* — a task that passes on
    its first draft consumed 1 iteration.  ``max_workers`` is handed to
    ``verify_batch`` (1 = the serial path); the audit trail is
    byte-identical either way under a frozen clock.
    """

    max_iters: int = 4
    max_workers: int = 1
    seed: Optional[int] = None   # stamped into the trail header only

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


#: revision notes for verdicts that state no replacement value
NOTE_NOT_RELATED = "no related evidence was found for the drafted value"
NOTE_REFUTED_NO_VALUE = (
    "the draft was refuted but no refuting tuple states a value"
)
NOTE_FAILED = "verification failed; treat the draft as unsupported"


class LoopOrchestrator:
    """Drives draft -> verify -> revise until pass or exhaustion."""

    def __init__(
        self,
        system: VerifAI,
        generator: SimulatedLLM,
        config: LoopConfig = LoopConfig(),
    ) -> None:
        self.system = system
        self.generator = generator
        self.config = config
        self.metrics = get_registry()

    # ------------------------------------------------------------------
    # drafting
    # ------------------------------------------------------------------
    def _extract_value(self, response: str, column: str) -> str:
        parsed = parse_completed_table(response)
        if parsed is None:
            return ""
        header, rows = parsed
        return dict(zip(header, rows[0])).get(column, "")

    def _draft(self, spec: DraftSpec) -> str:
        """Round-1 draft: the plain tuple-completion prompt."""
        masked = spec.masked_row()
        prompt = tuple_completion_prompt(
            spec.caption, masked.columns, [masked.values]
        )
        self.metrics.counter("loop.drafts").inc()
        return self._extract_value(self.generator.chat(prompt), spec.column)

    def _revise(
        self,
        spec: DraftSpec,
        feedback: List[Tuple[str, Optional[str], str]],
        iteration: int,
    ) -> str:
        """Re-draft with the verifier's feedback quoted back."""
        masked = spec.masked_row()
        prompt = tuple_revision_prompt(
            spec.caption, masked.columns, [masked.values], feedback, iteration
        )
        self.metrics.counter("loop.revisions").inc()
        return self._extract_value(self.generator.chat(prompt), spec.column)

    # ------------------------------------------------------------------
    # feedback construction
    # ------------------------------------------------------------------
    def _feedback_for(
        self, report, column: str
    ) -> Tuple[Optional[str], Optional[str], str]:
        """(stated_value, evidence_id, note) for one failed verdict."""
        if not report.ok:
            return None, None, NOTE_FAILED
        if report.final_verdict is Verdict.REFUTED:
            stated = strongest_refuter(self.system, report, column)
            if stated is not None:
                value, evidence_id = stated
                return value, evidence_id, ""
            return None, None, NOTE_REFUTED_NO_VALUE
        return None, None, NOTE_NOT_RELATED

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def run(self, specs: Sequence[DraftSpec]) -> LoopResult:
        """Orchestrate every spec to a terminal state."""
        config = self.config
        events = get_event_log()
        trail = AuditTrail(clock=self.system.clock)
        trail.start(
            tasks=len(specs), max_iters=config.max_iters, seed=config.seed
        )
        events.emit(
            "loop.start", tasks=len(specs), max_iters=config.max_iters
        )

        outcomes = [TaskOutcome(spec=spec) for spec in specs]
        values: Dict[int, str] = {}
        for index, outcome in enumerate(outcomes):
            value = self._draft(outcome.spec)
            values[index] = value
            outcome.first_value = value
            outcome.final_value = value
            trail.draft(
                task_id=outcome.spec.task_id,
                iteration=1,
                column=outcome.spec.column,
                value=value,
                revised=False,
            )

        active = list(range(len(outcomes)))
        rounds: List[RoundStats] = []
        drafts = len(outcomes)
        revisions = 0
        for round_number in range(1, config.max_iters + 1):
            if not active:
                break
            objects = [
                TupleObject(
                    object_id=f"{outcomes[i].spec.task_id}:r{round_number}",
                    row=outcomes[i].spec.completed_row(values[i]),
                    attribute=outcomes[i].spec.column,
                )
                for i in active
            ]
            batch = self.system.verify_batch(
                objects, max_workers=config.max_workers, trace=True
            )
            self.metrics.counter("loop.rounds").inc()

            verified = refuted = unresolved = 0
            still_active: List[int] = []
            for index, report in zip(active, batch.reports):
                outcome = outcomes[index]
                spec = outcome.spec
                outcome.iterations = round_number
                outcome.history.append(
                    (round_number, report.final_verdict.name)
                )
                stated, evidence_id, note = (None, None, "")
                if report.final_verdict is Verdict.VERIFIED:
                    verified += 1
                elif report.final_verdict is Verdict.REFUTED:
                    refuted += 1
                else:
                    unresolved += 1
                if report.final_verdict is not Verdict.VERIFIED:
                    stated, evidence_id, note = self._feedback_for(
                        report, spec.column
                    )
                record = self.system.provenance.get(report.record_id)
                trail.verdict(
                    task_id=spec.task_id,
                    iteration=round_number,
                    verdict=report.final_verdict.name,
                    margin=report.margin,
                    record_id=report.record_id,
                    trace_id=record.trace_id,
                    evidence=len(report.outcomes),
                    stated_value=stated,
                    stated_evidence_id=evidence_id,
                )
                events.emit(
                    "loop.verdict",
                    task_id=spec.task_id,
                    iteration=round_number,
                    verdict=report.final_verdict.name,
                    record_id=report.record_id,
                )
                if report.final_verdict is Verdict.VERIFIED:
                    outcome.state = TaskState.PASSED
                    self.metrics.counter("loop.passed").inc()
                    self.metrics.histogram(
                        "loop.iterations_to_pass"
                    ).observe(float(round_number))
                    trail.task_end(
                        task_id=spec.task_id,
                        state=TaskState.PASSED.value,
                        iterations=round_number,
                    )
                    continue
                if round_number == config.max_iters:
                    outcome.state = TaskState.EXHAUSTED
                    self.metrics.counter("loop.exhausted").inc()
                    trail.task_end(
                        task_id=spec.task_id,
                        state=TaskState.EXHAUSTED.value,
                        iterations=round_number,
                    )
                    continue
                # revise for the next round, feedback in hand
                feedback = [(spec.column, stated, note)]
                value = self._revise(spec, feedback, round_number)
                revisions += 1
                values[index] = value
                outcome.final_value = value
                trail.draft(
                    task_id=spec.task_id,
                    iteration=round_number + 1,
                    column=spec.column,
                    value=value,
                    revised=True,
                )
                still_active.append(index)
            rounds.append(
                RoundStats(
                    round=round_number,
                    active=len(active),
                    verified=verified,
                    refuted=refuted,
                    unresolved=unresolved,
                )
            )
            active = still_active

        passed = sum(1 for o in outcomes if o.state is TaskState.PASSED)
        trail.summary(
            passed=passed,
            exhausted=len(outcomes) - passed,
            rounds=len(rounds),
            drafts=drafts,
            revisions=revisions,
        )
        events.emit(
            "loop.end",
            passed=passed,
            exhausted=len(outcomes) - passed,
            rounds=len(rounds),
        )
        return LoopResult(outcomes=outcomes, rounds=rounds, trail=trail)
