"""End-to-end pipeline accuracy (retrieval × verification combined).

The paper evaluates retrieval (Table 1) and verification (Table 2)
separately; a deployment cares about their product: *given a generated
object and nothing else, does VerifAI's final pooled verdict match the
ground truth?*  This experiment measures that for both object types and
for two Agent configurations:

* **generic** — the paper's default: every pair goes to the LLM verifier,
  evidence pooled by vote;
* **local** — `prefer_local` with the PASTA verifier behind an
  aggressive reranker (k' = 1 table), the configuration the paper's
  privacy discussion motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.config import VerifAIConfig
from repro.core.pipeline import VerifAI
from repro.datalake.types import Modality
from repro.experiments.setup import ExperimentContext
from repro.verify.objects import ClaimObject, TupleObject
from repro.verify.pasta import PastaVerifier
from repro.verify.verdict import Verdict


@dataclass(frozen=True)
class EndToEndResult:
    """Final-verdict accuracies of one pipeline configuration."""

    configuration: str
    tuple_accuracy: float
    claim_accuracy: float
    tuple_undecided: float   # fraction ending NOT_RELATED (no usable evidence)
    claim_undecided: float


def _tuple_accuracy(context: ExperimentContext, system: VerifAI):
    correct = undecided = total = 0
    for generated in context.generated:
        table = context.bundle.lake.table(generated.table_id)
        row = table.row(generated.row_index).replace_value(
            generated.column, generated.generated_value or "NaN"
        )
        obj = TupleObject(
            object_id=f"e2e-{generated.task_id}", row=row,
            attribute=generated.column,
        )
        report = system.verify(obj)
        gold = Verdict.VERIFIED if generated.is_correct else Verdict.REFUTED
        if report.final_verdict is gold:
            correct += 1
        if report.final_verdict is Verdict.NOT_RELATED:
            undecided += 1
        total += 1
    total = total or 1
    return correct / total, undecided / total


def _claim_accuracy(context: ExperimentContext, system: VerifAI, limit: int):
    correct = undecided = total = 0
    for task in list(context.claim_workload)[:limit]:
        obj = ClaimObject(
            object_id=f"e2e-{task.claim.claim_id}",
            text=task.claim.text,
            context=task.claim.context,
        )
        report = system.verify(obj)
        gold = Verdict.VERIFIED if task.label else Verdict.REFUTED
        if report.final_verdict is gold:
            correct += 1
        if report.final_verdict is Verdict.NOT_RELATED:
            undecided += 1
        total += 1
    total = total or 1
    return correct / total, undecided / total


def run_end_to_end(
    context: ExperimentContext, claim_limit: int = 150
) -> List[EndToEndResult]:
    """Measure final-verdict accuracy for both configurations."""
    results: List[EndToEndResult] = []

    generic = context.system  # built once in the shared context
    tuple_acc, tuple_und = _tuple_accuracy(context, generic)
    claim_acc, claim_und = _claim_accuracy(context, generic, claim_limit)
    results.append(
        EndToEndResult("generic (LLM verifier)", tuple_acc, claim_acc,
                       tuple_und, claim_und)
    )

    local_config = VerifAIConfig(
        prefer_local=True,
        use_reranker=True,
        k_coarse=50,
        k_fine={Modality.TUPLE: 3, Modality.TEXT: 3, Modality.TABLE: 1},
    )
    local = VerifAI(
        context.bundle.lake,
        llm=context.verifier_llm,
        config=local_config,
        local_verifiers=[PastaVerifier()],
    ).build_indexes()
    tuple_acc, tuple_und = _tuple_accuracy(context, local)
    claim_acc, claim_und = _claim_accuracy(context, local, claim_limit)
    results.append(
        EndToEndResult("local (PASTA + reranker k'=1)", tuple_acc, claim_acc,
                       tuple_und, claim_und)
    )
    return results
