"""Lake assembly: tables + entity pages.

:func:`build_lake` is the single entry point benchmarks and examples use
to obtain a corpus with ground-truth relevance structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.datalake.lake import DataLake
from repro.datalake.types import Row, Table
from repro.workloads.tables import WebTableGenerator
from repro.workloads.textgen import EntityPageGenerator


@dataclass(frozen=True)
class LakeConfig:
    """Knobs of the synthetic corpus.

    ``num_tables=300`` (seed 0) yields 2,148 tuples and 1,888 entity
    pages — a scaled-down version of the paper's 19,498-table lake with
    the same relevance structure.  The paper's scale is out of reach:
    the generator runs out of unique captions near 2,900 tables and
    raises :class:`~repro.workloads.tables.ScopeExhausted`.
    """

    seed: int = 0
    num_tables: int = 300
    domain_mix: Optional[Dict[str, float]] = None
    boilerplate_level: int = 3
    cross_mention_rate: float = 0.3


@dataclass
class LakeBundle:
    """A built lake plus the ground truth the evaluation needs."""

    lake: DataLake
    tables: List[Table]
    config: LakeConfig

    def pages_of(self, entity_name: str) -> Optional[str]:
        """doc_id of the page about ``entity_name``, if any (the first
        such page, should the lake hold several)."""
        page = self.lake.entity_page(entity_name)
        return None if page is None else page.doc_id

    def relevant_pages_for_row(self, row: Row) -> List[str]:
        """Ground-truth relevant text files for a tuple.

        Per Section 4: "we consider the textual files about entities
        present in a tuple to be relevant evidence".
        """
        table = self.lake.table(row.table_id)
        doc_ids: List[str] = []
        for column in table.entity_columns:
            cell = row.get(column)
            if cell is None:
                continue
            doc_id = self.pages_of(cell)
            if doc_id is not None and doc_id not in doc_ids:
                doc_ids.append(doc_id)
        return doc_ids


def build_lake(config: LakeConfig = LakeConfig()) -> LakeBundle:
    """Build a complete multi-modal lake from a config."""
    table_gen = WebTableGenerator(seed=config.seed)
    tables = table_gen.generate(config.num_tables, domain_mix=config.domain_mix)
    page_gen = EntityPageGenerator(
        seed=config.seed + 1,
        boilerplate_level=config.boilerplate_level,
        cross_mention_rate=config.cross_mention_rate,
    )
    documents = page_gen.generate(table_gen.entities)

    lake = DataLake(name="synthetic-lake")
    for table in tables:
        lake.add_table(table)
    for doc in documents:
        lake.add_document(doc)
    return LakeBundle(lake=lake, tables=tables, config=config)
