"""Table 2: evaluation of the Verifier.

Paper: (tuple, tuple+text) ChatGPT 0.88; (text, relevant table) ChatGPT
0.75 vs PASTA 0.89; (text, retrieved table) ChatGPT 0.91 vs PASTA 0.72.
The key *shape* is the crossover: the local specialist wins on relevant
evidence, the generalist wins on retrieved (mostly irrelevant) evidence.
"""

from repro.experiments.table2 import run_table2
from repro.metrics.tables import format_table


def _fmt(value):
    return "NA" if value is None else value


def test_table2(context):
    rows = run_table2(context)
    print()
    print(
        format_table(
            ["pair", "ChatGPT", "paper", "PASTA", "paper"],
            [
                [r.pair, _fmt(r.chatgpt), _fmt(r.paper_chatgpt),
                 _fmt(r.pasta), _fmt(r.paper_pasta)]
                for r in rows
            ],
            title="Table 2: verifier accuracy",
        )
    )
    tuple_row, relevant_row, retrieved_row = rows
    # (tuple, tuple+text): high accuracy, far above the 0.52 baseline
    assert tuple_row.chatgpt >= 0.80
    # crossover, part 1: PASTA beats the LLM on relevant tables
    assert relevant_row.pasta > relevant_row.chatgpt
    # crossover, part 2: the LLM beats PASTA on retrieved tables
    assert retrieved_row.chatgpt > retrieved_row.pasta
    # magnitudes stay in the paper's neighbourhood
    assert relevant_row.chatgpt >= 0.65
    assert retrieved_row.chatgpt >= 0.80
    assert retrieved_row.pasta <= 0.85
