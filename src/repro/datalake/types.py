"""Core datatypes for the multi-modal data lake.

Terminology follows the paper: a *data object* is something a generative
model produced (defined in :mod:`repro.core`); a *data instance* is a unit
of data inside the lake — a tuple (row), a table, or a text file.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.datalake.kg import KGEntity
from repro.text.numbers import parse_number


class Modality(enum.Enum):
    """The modality of a data instance within the lake."""

    TUPLE = "tuple"
    TABLE = "table"
    TEXT = "text"
    KG_ENTITY = "kg_entity"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Source:
    """Provenance tag for a data instance: where it came from in the lake.

    ``name`` identifies the dataset/feed (e.g. ``"tabfact"``,
    ``"wikitable-turl"``); the trust model estimates a reliability score
    per source name.
    """

    name: str
    url: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Row:
    """A single tuple of a table, with its schema attached.

    Cell values are stored as strings exactly as a web table would render
    them; :meth:`numeric` provides typed access.
    """

    table_id: str
    row_index: int
    columns: Tuple[str, ...]
    values: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.values):
            raise ValueError(
                f"row {self.table_id}[{self.row_index}] has {len(self.columns)} "
                f"columns but {len(self.values)} values"
            )

    @property
    def instance_id(self) -> str:
        """Stable lake-wide identifier of this tuple."""
        return f"{self.table_id}#r{self.row_index}"

    def as_dict(self) -> Dict[str, str]:
        """Column -> value mapping."""
        return dict(zip(self.columns, self.values))

    def get(self, column: str) -> Optional[str]:
        """Value of ``column`` or None if the column does not exist."""
        try:
            return self.values[self.columns.index(column)]
        except ValueError:
            return None

    def numeric(self, column: str) -> Optional[float]:
        """Value of ``column`` parsed as a number, or None."""
        raw = self.get(column)
        if raw is None:
            return None
        return parse_number(raw)

    def replace_value(self, column: str, value: str) -> "Row":
        """Return a copy of this row with ``column`` set to ``value``."""
        if column not in self.columns:
            raise KeyError(f"column {column!r} not in {self.columns}")
        idx = self.columns.index(column)
        new_values = self.values[:idx] + (value,) + self.values[idx + 1 :]
        return Row(self.table_id, self.row_index, self.columns, new_values)


@dataclass
class Table:
    """A relational table: caption, column names, and rows of string cells.

    ``entity_columns`` marks columns whose cells are entity mentions that
    may link to text pages (the paper harvests Wikipedia text for linked
    cells); ``key_column`` is the subject column used when imputing
    missing values.
    """

    table_id: str
    caption: str
    columns: Tuple[str, ...]
    rows: List[Tuple[str, ...]]
    source: Source = field(default_factory=lambda: Source("unknown"))
    entity_columns: Tuple[str, ...] = ()
    key_column: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: first row by normalised cell, built on first use by
    #: ``TableQueryEngine.resolve_row`` — a table's rows are replaced
    #: with the table (``update_instance``), never edited in place
    _row_by_cell: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.columns = tuple(self.columns)
        self.rows = [tuple(row) for row in self.rows]
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(
                    f"table {self.table_id} row {i} has {len(row)} cells, "
                    f"expected {len(self.columns)}"
                )
        self.entity_columns = tuple(self.entity_columns)
        if self.key_column is None and self.columns:
            self.key_column = self.columns[0]

    @property
    def instance_id(self) -> str:
        return self.table_id

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def row(self, index: int) -> Row:
        """Row at ``index`` as a typed :class:`Row`."""
        return Row(self.table_id, index, self.columns, self.rows[index])

    def iter_rows(self) -> List[Row]:
        """All rows as typed :class:`Row` objects."""
        return [self.row(i) for i in range(len(self.rows))]

    def column_values(self, column: str) -> List[str]:
        """All cell values of ``column`` in row order."""
        idx = self.columns.index(column)
        return [row[idx] for row in self.rows]

    def column_numbers(self, column: str) -> List[Optional[float]]:
        """All cell values of ``column`` parsed as numbers (None on failure)."""
        return [parse_number(value) for value in self.column_values(column)]

    def has_column(self, column: str) -> bool:
        return column in self.columns


@dataclass
class TextDocument:
    """A textual file in the lake (e.g. the text of a Wikipedia page).

    ``entity`` is the page subject when the document is an entity page.
    """

    doc_id: str
    title: str
    text: str
    source: Source = field(default_factory=lambda: Source("unknown"))
    entity: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def instance_id(self) -> str:
        return self.doc_id


DataInstance = Union[Row, Table, TextDocument, KGEntity]


def modality_of(instance: DataInstance) -> Modality:
    """Modality of a lake instance."""
    if isinstance(instance, Row):
        return Modality.TUPLE
    if isinstance(instance, Table):
        return Modality.TABLE
    if isinstance(instance, TextDocument):
        return Modality.TEXT
    if isinstance(instance, KGEntity):
        return Modality.KG_ENTITY
    raise TypeError(f"not a data instance: {type(instance).__name__}")


def instance_id_of(instance: DataInstance) -> str:
    """Lake-wide identifier of a data instance."""
    return instance.instance_id
