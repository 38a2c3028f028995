"""Verify-and-repair: turning verification into data cleaning.

The paper motivates VerifAI with generative imputation whose outputs
cannot be trusted; RetClean (which the paper builds on) closes the loop
by *repairing* values from retrieved evidence.  :class:`Repairer` runs
that loop over imputed tuples:

* VERIFIED values are accepted;
* REFUTED values are replaced by the value stated by the tuple
  evidence whose verdict refuted them (the lake counterpart), when
  there is one;
* everything else is left unresolved for human review.

The quickstart measurement: a generator imputing at ~0.52 accuracy ends
up at ~0.88 value accuracy after one repair pass (see
``examples/tuple_cleaning.py`` and the repair tests).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.pipeline import VerifAI
from repro.datalake.types import Row
from repro.verify.objects import TupleObject
from repro.verify.verdict import Verdict


class RepairAction(enum.Enum):
    """What the repair pass did with one imputed value."""

    ACCEPTED = "accepted"      # verified — kept as generated
    REPAIRED = "repaired"      # refuted — replaced from evidence
    UNRESOLVED = "unresolved"  # no usable evidence — flagged for review


@dataclass(frozen=True)
class RepairResult:
    """Outcome of repairing one imputed cell."""

    object_id: str
    column: str
    generated_value: str
    final_value: str
    action: RepairAction
    evidence_id: Optional[str]
    record_id: str


@dataclass
class RepairReport:
    """Aggregate of a repair campaign."""

    results: List[RepairResult] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def count(self, action: RepairAction) -> int:
        return sum(1 for r in self.results if r.action is action)

    @property
    def accepted(self) -> int:
        return self.count(RepairAction.ACCEPTED)

    @property
    def repaired(self) -> int:
        return self.count(RepairAction.REPAIRED)

    @property
    def unresolved(self) -> int:
        return self.count(RepairAction.UNRESOLVED)

    def summary(self) -> str:
        return (
            f"{len(self.results)} values: {self.accepted} accepted, "
            f"{self.repaired} repaired, {self.unresolved} unresolved"
        )


def strongest_refuter(
    system: VerifAI, report, column: str
) -> Optional[tuple]:
    """(value, evidence_id) stated by the tuple whose REFUTED verdict
    decided ``report`` — the vote the verifier's pooling rule took (see
    :meth:`~repro.core.verifier.VerifierModule.deciding_outcome`), so a
    repair quotes the evidence that refuted the draft.  None when the
    report was not decided by a refuting row that states ``column``.

    Shared between single-pass repair (:class:`Repairer`) and the
    orchestrate-until-pass loop (:mod:`repro.loop`), which quotes the
    value back to the generator instead of patching it in place.
    """
    decider = system.verifier.deciding_outcome(report.outcomes)
    if decider is None or decider.verdict is not Verdict.REFUTED:
        return None
    evidence = system.lake.instance(decider.evidence_id)
    value = evidence.get(column) if isinstance(evidence, Row) else None
    if value is None:
        return None
    return value, decider.evidence_id


class Repairer:
    """Verify-and-repair over imputed tuples."""

    def __init__(self, system: VerifAI) -> None:
        self.system = system

    def _evidence_value(self, report, column: str) -> Optional[tuple]:
        """See :func:`strongest_refuter` — kept as a method for callers
        that hold a :class:`Repairer`."""
        return strongest_refuter(self.system, report, column)

    def repair_value(
        self,
        object_id: str,
        row: Row,
        column: str,
    ) -> RepairResult:
        """Verify one imputed cell and repair it if refuted."""
        generated_value = row.get(column) or ""
        obj = TupleObject(object_id=object_id, row=row, attribute=column)
        report = self.system.verify(obj)
        if report.final_verdict is Verdict.VERIFIED:
            return RepairResult(
                object_id=object_id,
                column=column,
                generated_value=generated_value,
                final_value=generated_value,
                action=RepairAction.ACCEPTED,
                evidence_id=(
                    report.supporting[0].evidence_id if report.supporting else None
                ),
                record_id=report.record_id,
            )
        if report.final_verdict is Verdict.REFUTED:
            stated = self._evidence_value(report, column)
            if stated is not None:
                value, evidence_id = stated
                return RepairResult(
                    object_id=object_id,
                    column=column,
                    generated_value=generated_value,
                    final_value=value,
                    action=RepairAction.REPAIRED,
                    evidence_id=evidence_id,
                    record_id=report.record_id,
                )
        return RepairResult(
            object_id=object_id,
            column=column,
            generated_value=generated_value,
            final_value=generated_value,
            action=RepairAction.UNRESOLVED,
            evidence_id=None,
            record_id=report.record_id,
        )

    def repair_batch(
        self, items: Sequence[tuple]
    ) -> RepairReport:
        """Repair many (object_id, row, column) items."""
        report = RepairReport()
        for object_id, row, column in items:
            report.results.append(self.repair_value(object_id, row, column))
        return report
