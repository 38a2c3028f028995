"""The multi-modal data lake catalog.

A :class:`DataLake` is the single repository from which VerifAI's Indexer
retrieves evidence.  It stores tables and text documents, exposes every
unit as a uniformly addressable :class:`~repro.datalake.types.DataInstance`,
and tracks per-source statistics for the trust model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Union

from repro.datalake.types import (
    DataInstance,
    Modality,
    Row,
    Source,
    Table,
    TextDocument,
)


@dataclass(frozen=True)
class LakeStats:
    """Size summary of a lake (mirrors the corpus statistics in Section 4)."""

    num_tables: int
    num_tuples: int
    num_text_files: int
    num_sources: int


class DataLake:
    """In-memory multi-modal data lake with id-addressable instances."""

    def __init__(self, name: str = "lake") -> None:
        self.name = name
        self._tables: Dict[str, Table] = {}
        self._documents: Dict[str, TextDocument] = {}
        #: entity name -> the id of the one document about it, or the
        #: ids of the several, in ``_documents`` order: the first is the
        #: entity's page (a list only where one is needed)
        self._entity_docs: Dict[str, Union[str, List[str]]] = {}

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Register a table (and thereby all its tuples)."""
        if table.table_id in self._tables:
            raise ValueError(f"duplicate table id: {table.table_id}")
        self._tables[table.table_id] = table

    def add_document(self, doc: TextDocument) -> None:
        """Register a text document; entity pages become entity-addressable."""
        if doc.doc_id in self._documents:
            raise ValueError(f"duplicate document id: {doc.doc_id}")
        self._documents[doc.doc_id] = doc
        if doc.entity:
            entity = doc.entity.lower()
            ids = self._entity_docs.get(entity)
            if ids is None:
                self._entity_docs[entity] = doc.doc_id
            elif isinstance(ids, str):
                self._entity_docs[entity] = [ids, doc.doc_id]
            else:
                ids.append(doc.doc_id)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def remove_table(self, table_id: str) -> Table:
        """Deregister a table (and thereby all its tuples); returns it.

        Raises ``KeyError`` when absent.
        """
        return self._tables.pop(table_id)

    def remove_document(self, doc_id: str) -> TextDocument:
        """Deregister a text document; returns it (KeyError when absent).

        If the document was the page for its entity, the entity's page is
        now the earliest remaining document with the same entity —
        exactly what rebuilding the mapping from the remaining documents
        would produce — read off the entity's own id list, not found by
        a walk of every document.
        """
        doc = self._documents.pop(doc_id)
        if doc.entity:
            entity = doc.entity.lower()
            ids = self._entity_docs[entity]
            if isinstance(ids, str):
                del self._entity_docs[entity]
            else:
                ids.remove(doc_id)
                if len(ids) == 1:
                    self._entity_docs[entity] = ids[0]
        return doc

    def remove_instance(self, instance_id: str) -> DataInstance:
        """Remove a top-level instance (table or document) by id.

        Returns the removed instance so callers (the Indexer) can
        unindex its derived entries — a table's tuples.  Tuples are not
        individually removable: they live and die with their table, and
        raise ``ValueError``.
        """
        if instance_id in self._tables:
            return self.remove_table(instance_id)
        if instance_id in self._documents:
            return self.remove_document(instance_id)
        if "#r" in instance_id:
            raise ValueError(
                f"cannot remove {instance_id!r}: only top-level tables "
                "and documents are removable"
            )
        raise KeyError(
            f"no instance with id {instance_id!r} in lake {self.name!r}"
        )

    def update_instance(self, instance: DataInstance) -> DataInstance:
        """Replace the table/document with ``instance``'s id; returns
        the old version.  The id must already be registered (KeyError
        otherwise) and the modality must match (ValueError otherwise).
        """
        if isinstance(instance, Table):
            if instance.table_id not in self._tables:
                raise KeyError(
                    f"no table with id {instance.table_id!r} to update"
                )
            old = self.remove_table(instance.table_id)
            self.add_table(instance)
            return old
        if isinstance(instance, TextDocument):
            if instance.doc_id not in self._documents:
                raise KeyError(
                    f"no document with id {instance.doc_id!r} to update"
                )
            old = self.remove_document(instance.doc_id)
            self.add_document(instance)
            return old
        raise ValueError(
            f"cannot update a {type(instance).__name__}: only tables "
            "and documents are updatable"
        )

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def table(self, table_id: str) -> Table:
        """Table by id; raises KeyError when absent."""
        return self._tables[table_id]

    def document(self, doc_id: str) -> TextDocument:
        """Document by id; raises KeyError when absent."""
        return self._documents[doc_id]

    def entity_page(self, entity: str) -> Optional[TextDocument]:
        """The text page whose subject is ``entity``, if one exists."""
        ids = self._entity_docs.get(entity.lower())
        if ids is None:
            return None
        return self._documents[ids if isinstance(ids, str) else ids[0]]

    def instance(self, instance_id: str) -> DataInstance:
        """Resolve any instance id: table id, ``table#rN`` tuple id, or
        doc id."""
        if instance_id in self._tables:
            return self._tables[instance_id]
        if instance_id in self._documents:
            return self._documents[instance_id]
        if "#r" in instance_id:
            table_id, _, row_part = instance_id.rpartition("#r")
            table = self._tables.get(table_id)
            if table is not None:
                try:
                    index = int(row_part)
                except ValueError:
                    # a malformed row suffix ("t#rfoo") is a lookup miss,
                    # not a caller error — fall through to KeyError
                    index = -1
                if 0 <= index < table.num_rows:
                    return table.row(index)
        raise KeyError(f"no instance with id {instance_id!r} in lake {self.name!r}")

    def __contains__(self, instance_id: str) -> bool:
        try:
            self.instance(instance_id)
        except (KeyError, ValueError):
            return False
        return True

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def tables(self) -> List[Table]:
        """All tables, in insertion order."""
        return list(self._tables.values())

    def documents(self) -> List[TextDocument]:
        """All text documents, in insertion order."""
        return list(self._documents.values())

    def iter_tuples(self) -> Iterator[Row]:
        """Every tuple of every table."""
        for table in self._tables.values():
            yield from table.iter_rows()

    def iter_instances(self, modality: Modality) -> Iterator[DataInstance]:
        """All instances of one modality."""
        if modality is Modality.TABLE:
            yield from self._tables.values()
        elif modality is Modality.TUPLE:
            yield from self.iter_tuples()
        elif modality is Modality.TEXT:
            yield from self._documents.values()
        else:
            raise ValueError(f"cannot iterate modality {modality}")

    def sources(self) -> List[Source]:
        """Distinct sources appearing in the lake."""
        seen: Dict[str, Source] = {}
        for table in self._tables.values():
            seen.setdefault(table.source.name, table.source)
        for doc in self._documents.values():
            seen.setdefault(doc.source.name, doc.source)
        return list(seen.values())

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> LakeStats:
        """Corpus statistics of this lake."""
        return LakeStats(
            num_tables=len(self._tables),
            num_tuples=sum(t.num_rows for t in self._tables.values()),
            num_text_files=len(self._documents),
            num_sources=len(self.sources()),
        )

    def __len__(self) -> int:
        stats = self.stats()
        return stats.num_tables + stats.num_text_files

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"DataLake({self.name!r}, tables={stats.num_tables}, "
            f"tuples={stats.num_tuples}, texts={stats.num_text_files})"
        )
