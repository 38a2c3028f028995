"""Serialization of lake instances to flat strings, and its inverse.

The paper's content-based index "serializes tables or text files as
strings and then indexes them" — these functions define that
serialization, shared by the BM25 index, the embedders, and the prompt
templates so that all components see a consistent rendering.  The form
is read back here and nowhere else (:func:`parse_row`,
:func:`parse_table`); nothing is escaped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.datalake.kg import KGEntity
from repro.datalake.types import DataInstance, Row, Table, TextDocument


def serialize_row(row: Row, include_table_id: bool = False) -> str:
    """Render a tuple as ``col1: v1 ; col2: v2 ; ...``.

    >>> from repro.datalake.types import Row
    >>> serialize_row(Row("t1", 0, ("district", "incumbent"), ("ohio 1", "tom")))
    'district: ohio 1 ; incumbent: tom'
    """
    parts = [f"{col}: {val}" for col, val in zip(row.columns, row.values)]
    body = " ; ".join(parts)
    if include_table_id:
        return f"[{row.table_id}] {body}"
    return body


def parse_row(text: str) -> Optional[Dict[str, str]]:
    """Inverse of :func:`serialize_row`: ``{column: value}``, stripped,
    or None when ``text`` is not one ``str.splitlines`` line of that
    shape (the line rule of the prompt the text is pasted into).

    >>> parse_row("district: ohio 1 ; incumbent: tom")
    {'district': 'ohio 1', 'incumbent': 'tom'}
    """
    if ": " not in text or len(text.strip().splitlines()) > 1:
        return None
    fields: Dict[str, str] = {}
    for part in text.split(" ; "):
        column, sep, value = part.partition(": ")
        if not sep:
            return None
        fields[column.strip()] = value.strip()
    return fields


def is_representable(row: Row) -> bool:
    """Does ``row`` read back as itself?  Not with `` ; `` or a line
    break in a value, or a blank at either end of one."""
    return parse_row(serialize_row(row)) == row.as_dict()


def serialize_table(table: Table, max_rows: Optional[int] = None) -> str:
    """Render a whole table: caption, header, then pipe-separated rows."""
    lines = [table.caption, " | ".join(table.columns)]
    rows = table.rows if max_rows is None else table.rows[:max_rows]
    lines.extend(" | ".join(row) for row in rows)
    return "\n".join(lines)


def parse_table(
    text: str,
) -> Tuple[str, Tuple[str, ...], List[Tuple[str, ...]]]:
    """Inverse of :func:`serialize_table`: ``(caption, header, rows)``,
    cells stripped.  The first line is the caption unless it holds a
    `` | ``; of the lines that do, the first is the header (``()`` if
    none) and the rest are the rows as written, whatever their width.
    """
    lines = text.splitlines()
    caption = lines[0] if lines and " | " not in lines[0] else ""
    cells = [
        tuple(cell.strip() for cell in line.split(" | "))
        for line in lines
        if " | " in line
    ]
    return caption, cells[0] if cells else (), cells[1:]


def serialize_text(doc: TextDocument) -> str:
    """Render a text document: title followed by the body."""
    if doc.title:
        return f"{doc.title}\n{doc.text}"
    return doc.text


def serialize_instance(instance: DataInstance) -> str:
    """Serialize any lake instance for indexing or prompting."""
    if isinstance(instance, Row):
        return serialize_row(instance)
    if isinstance(instance, Table):
        return serialize_table(instance)
    if isinstance(instance, TextDocument):
        return serialize_text(instance)
    if isinstance(instance, KGEntity):
        return instance.serialize()
    raise TypeError(f"not a data instance: {type(instance).__name__}")
