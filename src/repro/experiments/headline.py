"""The paper's headline no-evidence accuracies.

"The accuracy of ChatGPT in imputing missing values for tuples and
determining the correctness of claims is only 0.52 and 0.54,
respectively, in the absence of additional data."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.setup import ExperimentContext
from repro.llm.prompts import claim_question_prompt, parse_boolean_response
from repro.metrics.evaluation import accuracy


@dataclass(frozen=True)
class HeadlineResult:
    """Measured no-evidence accuracies vs the paper's."""

    completion_accuracy: float
    claim_accuracy: float
    paper_completion_accuracy: float = 0.52
    paper_claim_accuracy: float = 0.54


def run_headline(context: ExperimentContext) -> HeadlineResult:
    """Measure both no-evidence accuracies on the context's workloads.

    Claims are judged from the claim text alone (the TabFact setting: no
    table, no scope hint), mirroring how the paper prompted ChatGPT.
    """
    answers = [
        parse_boolean_response(
            context.generator.chat(claim_question_prompt(task.claim.text))
        )
        for task in context.claim_workload
    ]
    return HeadlineResult(
        completion_accuracy=context.completion_accuracy,
        claim_accuracy=accuracy(
            answers, [task.label for task in context.claim_workload]
        ),
    )
