"""Generated data objects — the things VerifAI verifies.

Per Section 2, a *data object* is something a generative model produced:
a (partially) generated tuple, or generated text (a claim/answer).  The
optional verification metadata ("the verification requirement could be
... on a specific column") lives on the object as ``attribute``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.datalake.serialize import serialize_row
from repro.datalake.types import Row


@dataclass(frozen=True)
class TupleObject:
    """A generated/imputed tuple, optionally scoped to one attribute."""

    object_id: str
    row: Row
    attribute: Optional[str] = None

    def query_text(self) -> str:
        """Serialized form used for retrieval and prompting, rendered on
        the first call and kept: the row is frozen, and an object is
        asked for its text by every stage and every pair."""
        text = self.__dict__.get("_query_text")
        if text is None:
            text = serialize_row(self.row)
            # not a field: equality, hashing and repr see the row alone
            object.__setattr__(self, "_query_text", text)
        return text


@dataclass(frozen=True)
class ClaimObject:
    """Generated text to verify (a claim or an answer sentence)."""

    object_id: str
    text: str
    context: str = ""

    def query_text(self) -> str:
        """Text used for retrieval (claim plus its scope context)."""
        if self.context:
            return f"{self.text} ({self.context})"
        return self.text


DataObject = Union[TupleObject, ClaimObject]
