"""Table 1 — recall of retrieved data instances.

| generated data type | retrieved data type | paper recall |
|---------------------|---------------------|--------------|
| tuple               | tuple               | 0.99 (top-3) |
| tuple               | text                | 0.58 (top-3) |
| textual claim       | table               | 0.88 (top-5) |

Relevance ground truth follows Section 4: a tuple's relevant evidence is
its original complete counterpart plus the text pages of the entities in
the tuple; a claim's relevant evidence is its source table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Tuple

from repro.datalake.types import Modality
from repro.experiments.setup import Case, ExperimentContext
from repro.metrics.evaluation import macro_recall_at_k
from repro.verify.objects import ClaimObject


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    generated_type: str
    retrieved_type: str
    k: int
    recall: float
    paper_recall: float


def retrieval_runs(
    context: ExperimentContext, cases: Sequence[Case], modality: Modality, k: int
) -> List[Tuple[List[str], FrozenSet[str]]]:
    """(retrieved ids, relevant ids) per case with a relevant instance of
    ``modality``.  A tuple's query is the generated tuple, with its
    imputed value; a claim's is its text alone (the TabFact setting:
    claims are self-contained sentences, not annotated with their
    table)."""
    runs = []
    for case in cases:
        relevant = case.relevant[modality]
        if not relevant:
            continue
        query = (
            case.obj.text if isinstance(case.obj, ClaimObject)
            else case.obj.query_text()
        )
        hits = context.system.indexer.search(query, modality, k)
        runs.append(([h.instance_id for h in hits], relevant))
    return runs


def run_table1(
    context: ExperimentContext,
    k_tuple: int = 3,
    k_text: int = 3,
    k_table: int = 5,
) -> List[Table1Row]:
    """Reproduce all three rows of Table 1."""
    rows = (
        ("tuple", "tuple", context.tuple_cases, Modality.TUPLE, k_tuple, 0.99),
        ("tuple", "text", context.tuple_cases, Modality.TEXT, k_text, 0.58),
        ("textual claim", "table", context.claim_cases, Modality.TABLE,
         k_table, 0.88),
    )
    return [
        Table1Row(
            generated, retrieved, k,
            macro_recall_at_k(retrieval_runs(context, cases, modality, k), k),
            paper_recall=paper,
        )
        for generated, retrieved, cases, modality, k, paper in rows
    ]
