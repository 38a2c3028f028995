"""Ablation: approximate vector indexes (the Faiss trade-off).

IVF and HNSW trade a little recall for scanning a fraction of the
corpus — the reason the paper points at Faiss/pgvector for the semantic
index at data-lake scale.  The build and search seconds are printed for
the reader and depend on the host; only the recall is asserted.
"""

from repro.experiments.ablations import run_vector_index_ablation
from repro.metrics.tables import format_table


def test_vector_indexes(context):
    results = run_vector_index_ablation(context)
    print()
    print(
        format_table(
            ["index", "recall@10 vs flat", "build (s)", "search (s)"],
            [
                [r.name, r.recall_at_10, round(r.build_seconds, 3),
                 round(r.search_seconds, 4)]
                for r in results
            ],
            title="Ablation: exact vs approximate vector search",
        )
    )
    by_name = {r.name.split("(")[0]: r for r in results}
    assert by_name["flat"].recall_at_10 == 1.0
    # approximate indexes keep most of the recall
    assert by_name["ivf"].recall_at_10 >= 0.7
    assert by_name["hnsw"].recall_at_10 >= 0.7
