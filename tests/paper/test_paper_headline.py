"""Headline experiment: no-evidence generation accuracy.

Paper: "The accuracy of ChatGPT in imputing missing values for tuples
and determining the correctness of claims is only 0.52 and 0.54,
respectively, in the absence of additional data."
"""

from repro.experiments.headline import run_headline
from repro.metrics.tables import format_table


def test_headline(context):
    result = run_headline(context)
    print()
    print(
        format_table(
            ["task", "measured", "paper"],
            [
                ["tuple imputation (no evidence)",
                 result.completion_accuracy, result.paper_completion_accuracy],
                ["claim correctness (no evidence)",
                 result.claim_accuracy, result.paper_claim_accuracy],
            ],
            title="Headline: generation accuracy without evidence",
        )
    )
    # shape: both land near coin-flip, far below the verified accuracies
    assert 0.35 <= result.completion_accuracy <= 0.70
    assert 0.35 <= result.claim_accuracy <= 0.70
