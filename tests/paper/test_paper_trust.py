"""Ablation: trustworthiness of data sources (challenge C3).

When unreliable scraped copies pollute the lake, label-free value-level
truth discovery assigns them low trust, and trust-weighted evidence
pooling beats uniform voting.
"""

from repro.experiments.ablations import run_trust_ablation
from repro.metrics.tables import format_table


def test_trust(context):
    results = run_trust_ablation(context)
    print()
    print(
        format_table(
            ["metric", "value"],
            [[name, value] for name, value in results.items()],
            title="Ablation: trust-weighted evidence pooling",
        )
    )
    # the estimator separates clean from dirty sources without labels
    assert results["trust_clean"] > results["trust_dirty_a"] + 0.1
    assert results["trust_clean"] > results["trust_dirty_b"] + 0.1
    # and weighting votes by trust does not lose (usually gains) accuracy
    assert (
        results["trust_weighted_accuracy"]
        >= results["uniform_accuracy"] - 1e-9
    )
