"""Table 1: recall of retrieved data instances.

Paper: recall(tuple→tuple)=0.99 @3, recall(tuple→text)=0.58 @3,
recall(claim→table)=0.88 @5.
"""

from repro.experiments.table1 import run_table1
from repro.metrics.tables import format_table


def test_table1(context):
    rows = run_table1(context)
    print()
    print(
        format_table(
            ["generated", "retrieved", "k", "recall", "paper"],
            [
                [r.generated_type, r.retrieved_type, r.k, r.recall, r.paper_recall]
                for r in rows
            ],
            title="Table 1: recall on retrieved data instances",
        )
    )
    tuple_tuple, tuple_text, claim_table = rows
    # shape: tuple→tuple is near-perfect; tuple→text is the clear
    # laggard (mid recall); claim→table sits in between/high
    assert tuple_tuple.recall >= 0.95
    assert 0.35 <= tuple_text.recall <= 0.85
    assert claim_table.recall >= 0.75
    assert tuple_text.recall < claim_table.recall < tuple_tuple.recall + 1e-9
