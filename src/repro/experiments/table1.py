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
from typing import List, Tuple

from repro.datalake.serialize import serialize_row
from repro.datalake.types import Modality
from repro.experiments.setup import ExperimentContext
from repro.metrics.evaluation import macro_recall_at_k


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    generated_type: str
    retrieved_type: str
    k: int
    recall: float
    paper_recall: float


def _query_row_for(context: ExperimentContext, generated) -> str:
    """The retrieval query: the generated tuple (with its imputed value)."""
    table = context.bundle.lake.table(generated.table_id)
    row = table.row(generated.row_index).replace_value(
        generated.column, generated.generated_value or "NaN"
    )
    return serialize_row(row)


def tuple_tuple_runs(
    context: ExperimentContext, k: int
) -> List[Tuple[List[str], List[str]]]:
    """(retrieved ids, relevant ids) per tuple query against the tuple index."""
    runs = []
    for generated in context.generated:
        query = _query_row_for(context, generated)
        hits = context.system.indexer.search(query, Modality.TUPLE, k)
        relevant = [f"{generated.table_id}#r{generated.row_index}"]
        runs.append(([h.instance_id for h in hits], relevant))
    return runs


def tuple_text_runs(
    context: ExperimentContext, k: int
) -> List[Tuple[List[str], List[str]]]:
    """(retrieved ids, relevant page ids) per tuple query against text."""
    runs = []
    for generated in context.generated:
        query = _query_row_for(context, generated)
        hits = context.system.indexer.search(query, Modality.TEXT, k)
        row = context.bundle.lake.table(generated.table_id).row(
            generated.row_index
        )
        relevant = context.bundle.relevant_pages_for_row(row)
        if not relevant:
            continue
        runs.append(([h.instance_id for h in hits], relevant))
    return runs


def claim_table_runs(
    context: ExperimentContext, k: int
) -> List[Tuple[List[str], List[str]]]:
    """(retrieved ids, relevant table id) per claim query against tables."""
    runs = []
    for task in context.claim_workload:
        # the claim text alone is the query (the TabFact setting: claims
        # are self-contained sentences, not annotated with their table)
        hits = context.system.indexer.search(task.claim.text, Modality.TABLE, k)
        runs.append(([h.instance_id for h in hits], [task.table_id]))
    return runs


def run_table1(
    context: ExperimentContext,
    k_tuple: int = 3,
    k_text: int = 3,
    k_table: int = 5,
) -> List[Table1Row]:
    """Reproduce all three rows of Table 1."""
    return [
        Table1Row(
            "tuple", "tuple", k_tuple,
            macro_recall_at_k(tuple_tuple_runs(context, k_tuple), k_tuple),
            paper_recall=0.99,
        ),
        Table1Row(
            "tuple", "text", k_text,
            macro_recall_at_k(tuple_text_runs(context, k_text), k_text),
            paper_recall=0.58,
        ),
        Table1Row(
            "textual claim", "table", k_table,
            macro_recall_at_k(claim_table_runs(context, k_table), k_table),
            paper_recall=0.88,
        ),
    ]
