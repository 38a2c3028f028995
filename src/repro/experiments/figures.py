"""The paper's figure case studies.

* Figure 1(a): tuple completion — VerifAI verifies a correctly imputed
  value against its lake counterpart and refutes an incorrect one with
  both a tuple and a text file.
* Figure 1(b): text generation — a generated sentence about an entity is
  refuted by the entity's text page and the cast tuple.
* Figure 4: a textual claim is checked against retrieved tables; one
  table refutes it via an aggregation query while another is judged not
  related because it covers a different year — with explanations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.pipeline import VerificationReport
from repro.datalake.types import Modality
from repro.experiments.setup import ExperimentContext, GeneratedTuple
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.verdict import Verdict


@dataclass
class Figure1Result:
    """Both panels of Figure 1."""

    verified_report: VerificationReport    # panel (a), correct imputation
    refuted_report: VerificationReport     # panel (a), wrong imputation
    text_report: VerificationReport        # panel (b), wrong generated text
    verified_case: GeneratedTuple
    refuted_case: GeneratedTuple


@dataclass
class Figure4Result:
    """The aggregation-refutation case study."""

    claim_text: str
    report: VerificationReport
    refuting_explanations: List[str]
    unrelated_explanations: List[str]


def _first_case(
    context: ExperimentContext, want_correct: bool
) -> Optional[GeneratedTuple]:
    for generated in context.generated:
        if generated.is_correct == want_correct and generated.generated_value:
            return generated
    return None


def _object_for(context: ExperimentContext, generated: GeneratedTuple) -> TupleObject:
    table = context.bundle.lake.table(generated.table_id)
    row = table.row(generated.row_index).replace_value(
        generated.column, generated.generated_value
    )
    return TupleObject(
        object_id=f"fig1-{generated.task_id}", row=row, attribute=generated.column
    )


def run_figure1(context: ExperimentContext) -> Figure1Result:
    """Reproduce both Figure 1 case studies on the synthetic lake."""
    verified_case = _first_case(context, want_correct=True)
    refuted_case = _first_case(context, want_correct=False)
    if verified_case is None or refuted_case is None:
        raise RuntimeError(
            "the generated workload lacks a correct or incorrect imputation"
        )
    verified_report = context.system.verify(_object_for(context, verified_case))
    refuted_report = context.system.verify(_object_for(context, refuted_case))

    # panel (b): generated text asserting a wrong fact about an entity
    # with a text page (the "Meagan Good / Stomp the Yard" analogue)
    text_report = None
    for table in context.bundle.tables:
        if table.metadata.get("domain") != "films":
            continue
        row = table.row(0)
        actor = row.get("actor")
        true_role = row.get("role")
        wrong_roles = [
            r for r in table.column_values("role") if r != true_role
        ]
        if not actor or not true_role or not wrong_roles:
            continue
        claim = ClaimObject(
            object_id="fig1b",
            text=f"the role of {actor} is {wrong_roles[0]}",
            context=table.caption,
        )
        text_report = context.system.verify(
            claim, modalities=(Modality.TEXT, Modality.TUPLE)
        )
        break
    if text_report is None:
        raise RuntimeError("no films table available for the Figure 1(b) case")
    return Figure1Result(
        verified_report=verified_report,
        refuted_report=refuted_report,
        text_report=text_report,
        verified_case=verified_case,
        refuted_case=refuted_case,
    )


def run_figure4(context: ExperimentContext) -> Figure4Result:
    """Reproduce the Figure 4 scenario: a false aggregation claim refuted
    by one retrieved table while same-family tables of other years are
    explained as not related."""

    # find an olympics table and build a false total-gold claim on it
    for table in context.bundle.tables:
        if table.metadata.get("domain") != "olympics":
            continue
        gold_numbers = [n for n in table.column_numbers("gold") if n is not None]
        wrong_total = int(sum(gold_numbers)) + 7
        claim_text = (
            f"the total gold in {table.caption} is {wrong_total}"
        )
        obj = ClaimObject(
            object_id="fig4", text=claim_text, context=table.caption
        )
        report = context.system.verify(obj, modalities=(Modality.TABLE,))
        refuting = [
            o.explanation for o in report.outcomes if o.verdict is Verdict.REFUTED
        ]
        unrelated = [
            o.explanation
            for o in report.outcomes
            if o.verdict is Verdict.NOT_RELATED
        ]
        if refuting and report.final_verdict is Verdict.REFUTED:
            return Figure4Result(
                claim_text=claim_text,
                report=report,
                refuting_explanations=refuting,
                unrelated_explanations=unrelated,
            )
    raise RuntimeError("no olympics table produced a refutable aggregate claim")
