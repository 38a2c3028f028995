"""Lake assembly: tables + entity pages + knowledge graph in one bundle.

:func:`build_lake` is the single entry point benchmarks and examples use
to obtain a corpus with ground-truth relevance structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.datalake.lake import DataLake
from repro.datalake.types import Row, Table
from repro.workloads.tables import Entity, WebTableGenerator
from repro.workloads.textgen import EntityPageGenerator


@dataclass(frozen=True)
class LakeConfig:
    """Knobs of the synthetic corpus.

    ``num_tables=300`` yields roughly 2,000 tuples and 1,500 entity pages
    — a scaled-down version of the paper's 19,498-table lake with the
    same relevance structure.  Increase for paper-scale runs.
    """

    seed: int = 0
    num_tables: int = 300
    domain_mix: Optional[Dict[str, float]] = None
    boilerplate_level: int = 3
    cross_mention_rate: float = 0.3
    build_kg: bool = True
    name: str = "synthetic-lake"


@dataclass
class LakeBundle:
    """A built lake plus the ground-truth maps the evaluation needs."""

    lake: DataLake
    tables: List[Table]
    entities: Dict[str, Entity]
    entity_page: Dict[str, str]  # entity name (lower) -> doc_id
    config: LakeConfig

    def pages_of(self, entity_name: str) -> Optional[str]:
        """doc_id of the page about ``entity_name``, if any."""
        return self.entity_page.get(entity_name.lower())

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
            doc_id = self.entity_page.get(cell.lower())
            if doc_id is not None and doc_id not in doc_ids:
                doc_ids.append(doc_id)
        return doc_ids


def _populate_kg(lake: DataLake, entities: Dict[str, Entity]) -> None:
    """Derive triples from entity appearances (Section 5 KG prototype)."""
    for entity in entities.values():
        lake.kg.add(entity.name, "instance of", entity.kind)
        facts = entity.appearances[0] if entity.appearances else {}
        for predicate, obj in facts.items():
            lake.kg.add(entity.name, predicate.replace("_", " "), obj)


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

    lake = DataLake(name=config.name)
    for table in tables:
        lake.add_table(table)
    entity_page: Dict[str, str] = {}
    for doc in documents:
        lake.add_document(doc)
        assert doc.entity is not None
        entity_page[doc.entity.lower()] = doc.doc_id
    if config.build_kg:
        _populate_kg(lake, table_gen.entities)
    return LakeBundle(
        lake=lake,
        tables=tables,
        entities=dict(table_gen.entities),
        entity_page=entity_page,
        config=config,
    )
