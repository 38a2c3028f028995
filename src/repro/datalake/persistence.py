"""JSON persistence for data lakes.

Lakes built by the workload generators can be saved and reloaded so that
benchmarks do not regenerate corpora on every run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.datalake.lake import DataLake
from repro.datalake.types import Source, Table, TextDocument
from repro.snapshot import write_json

_FORMAT_VERSION = 1


def save_lake(lake: DataLake, path: Union[str, Path]) -> None:
    """Serialize ``lake`` to a JSON file at ``path``."""
    payload = {
        "version": _FORMAT_VERSION,
        "name": lake.name,
        "tables": [
            {
                "table_id": t.table_id,
                "caption": t.caption,
                "columns": list(t.columns),
                "rows": [list(row) for row in t.rows],
                "source": {"name": t.source.name, "url": t.source.url},
                "entity_columns": list(t.entity_columns),
                "key_column": t.key_column,
                "metadata": t.metadata,
            }
            for t in lake.tables()
        ],
        "documents": [
            {
                "doc_id": d.doc_id,
                "title": d.title,
                "text": d.text,
                "source": {"name": d.source.name, "url": d.source.url},
                "entity": d.entity,
                "metadata": d.metadata,
            }
            for d in lake.documents()
        ],
        "kg_triples": [
            [t.subject, t.predicate, t.obj]
            for entity in lake.kg.entities()
            for t in entity.triples
        ],
    }
    write_json(payload, Path(path))


def load_lake(path: Union[str, Path]) -> DataLake:
    """Load a lake previously written by :func:`save_lake`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported lake format version: {payload.get('version')!r}"
        )
    lake = DataLake(name=payload["name"])
    for entry in payload["tables"]:
        lake.add_table(
            Table(
                table_id=entry["table_id"],
                caption=entry["caption"],
                columns=tuple(entry["columns"]),
                rows=[tuple(row) for row in entry["rows"]],
                source=Source(**entry["source"]),
                entity_columns=tuple(entry["entity_columns"]),
                key_column=entry["key_column"],
                metadata=entry["metadata"],
            )
        )
    for entry in payload["documents"]:
        lake.add_document(
            TextDocument(
                doc_id=entry["doc_id"],
                title=entry["title"],
                text=entry["text"],
                source=Source(**entry["source"]),
                entity=entry["entity"],
                metadata=entry["metadata"],
            )
        )
    for subject, predicate, obj in payload.get("kg_triples", []):
        lake.kg.add(subject, predicate, obj)
    return lake
