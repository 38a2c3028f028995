"""Sensitivity of the simulated LLM's knobs (see docs/simulation.md).

The reproduction's claim is that the paper's numbers *emerge* from
mechanism knobs rather than being tuned constants — which requires the
measured quantities to vary smoothly and monotonically with the knobs.
"""

from repro.experiments.ablations import (
    run_arithmetic_sensitivity,
    run_coverage_sensitivity,
)
from repro.metrics.tables import format_table


def test_arithmetic_sensitivity(context):
    sweep = run_arithmetic_sensitivity(context)
    print()
    print(
        format_table(
            ["arithmetic_slip", "(text, relevant table) accuracy"],
            [[slip, acc] for slip, acc in sweep],
            title="Sensitivity: verifier accuracy vs arithmetic noise",
        )
    )
    accuracies = [acc for _, acc in sweep]
    # zero noise approaches exact execution; accuracy decreases in noise
    assert accuracies[0] >= 0.85
    assert all(b <= a + 0.03 for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[-1] < accuracies[0]


def test_coverage_sensitivity(context):
    sweep = run_coverage_sensitivity(context)
    print()
    print(
        format_table(
            ["knowledge coverage", "imputation accuracy"],
            [[coverage, acc] for coverage, acc in sweep],
            title="Sensitivity: generation accuracy vs parametric coverage",
        )
    )
    accuracies = [acc for _, acc in sweep]
    # imputation accuracy grows with coverage, roughly tracking it
    assert all(b >= a - 0.03 for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[-1] > accuracies[0] + 0.3
