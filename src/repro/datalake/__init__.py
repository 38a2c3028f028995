"""Multi-modal data lake: datatypes, catalog, serialization, persistence.

The paper's lake stores relational tables and textual files.  Every unit
of data the Indexer can retrieve is a :class:`DataInstance` with a stable
id, a modality, and a source tag used by the trust model.
"""

from repro.datalake.lake import DataLake, LakeStats
from repro.datalake.persistence import load_lake, save_lake
from repro.datalake.serialize import (
    serialize_row,
    serialize_table,
    serialize_text,
    serialize_instance,
)
from repro.datalake.types import (
    DataInstance,
    Modality,
    Row,
    Source,
    Table,
    TextDocument,
)

__all__ = [
    "DataInstance",
    "DataLake",
    "LakeStats",
    "Modality",
    "Row",
    "Source",
    "Table",
    "TextDocument",
    "load_lake",
    "save_lake",
    "serialize_instance",
    "serialize_row",
    "serialize_table",
    "serialize_text",
]
