"""Ablation: the Combiner (content + semantic index fusion).

Section 3.1: "Combining these two approaches can enhance recall and
serve as a foundation for indexing data lakes more effectively."
"""

from repro.experiments.ablations import run_combiner_ablation
from repro.metrics.tables import format_table


def test_combiner(context):
    results = run_combiner_ablation(context)
    print()
    print(
        format_table(
            ["configuration", "recall@3 (tuple→text)"],
            [[name, recall] for name, recall in results.items()],
            title="Ablation: Combiner fusion of content and semantic indexes",
        )
    )
    best_single = max(results["content-only"], results["semantic-only"])
    # fused retrieval recovers at least the better single index (and
    # max-fusion typically exceeds it)
    assert results["combined-max"] >= best_single - 0.02
    assert results["combined-max"] >= results["content-only"]
