"""Ablation: retrieval depth for tuple→text.

The paper anticipates: "We anticipate that the retrieval performance
will improve when we expand the number of retrieved files."
"""

from repro.experiments.ablations import run_k_sweep
from repro.metrics.tables import format_table


def test_k_sweep(context):
    sweep = run_k_sweep(context)
    print()
    print(
        format_table(
            ["k", "recall(tuple→text)"],
            [[k, recall] for k, recall in sweep],
            title="Ablation: tuple→text recall vs retrieval depth",
        )
    )
    recalls = [recall for _, recall in sweep]
    # recall is non-decreasing in k and improves materially from 1 to 20
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] > recalls[0]
