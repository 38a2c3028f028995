"""Structured claim representation.

A natural-language claim about a table is normalized into a
:class:`ClaimSpec` — one of five operation classes (the operation types
PASTA pre-trains on: filter/lookup, comparatives, aggregation,
superlatives, and counting).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ClaimOp(enum.Enum):
    """The table operation a claim asserts something about."""

    LOOKUP = "lookup"          # the <col> of <subject> is <value>
    COMPARE = "compare"        # <a> has a higher/lower <col> than <b>
    AGGREGATE = "aggregate"    # the total/average <col> is <value>
    SUPERLATIVE = "superlative"  # <subject> has the highest/lowest <col>
    COUNT = "count"            # <n> rows have <col> of <value>


class Aggregate(enum.Enum):
    """Aggregation function for AGGREGATE claims."""

    SUM = "total"
    AVG = "average"
    MIN = "minimum"
    MAX = "maximum"


class Comparison(enum.Enum):
    """Direction for COMPARE / SUPERLATIVE claims."""

    HIGHER = "higher"
    LOWER = "lower"


@dataclass(frozen=True)
class ClaimSpec:
    """A parsed claim, ready for execution against a table.

    Fields are populated per op:

    * LOOKUP:       subject, column, value
    * COMPARE:      subject, subject_b, column, comparison
    * AGGREGATE:    column, aggregate, value  (scope = whole table)
    * SUPERLATIVE:  subject, column, comparison
    * COUNT:        column, value, count
    """

    op: ClaimOp
    column: str
    subject: Optional[str] = None
    subject_b: Optional[str] = None
    value: Optional[str] = None
    aggregate: Optional[Aggregate] = None
    comparison: Optional[Comparison] = None
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op is ClaimOp.LOOKUP and (self.subject is None or self.value is None):
            raise ValueError("LOOKUP claims need subject and value")
        if self.op is ClaimOp.COMPARE and (
            self.subject is None or self.subject_b is None or self.comparison is None
        ):
            raise ValueError("COMPARE claims need two subjects and a direction")
        if self.op is ClaimOp.AGGREGATE and (
            self.aggregate is None or self.value is None
        ):
            raise ValueError("AGGREGATE claims need an aggregate and a value")
        if self.op is ClaimOp.SUPERLATIVE and (
            self.subject is None or self.comparison is None
        ):
            raise ValueError("SUPERLATIVE claims need a subject and a direction")
        if self.op is ClaimOp.COUNT and (self.value is None or self.count is None):
            raise ValueError("COUNT claims need a value and a count")


@dataclass(frozen=True)
class Claim:
    """A natural-language claim, optionally carrying its parsed spec.

    ``claim_id`` identifies the claim in workloads and provenance;
    ``context`` is free text naming the claim's scope (usually a table
    caption), kept separate so retrieval sees it but execution does not.
    """

    claim_id: str
    text: str
    context: str = ""
    spec: Optional[ClaimSpec] = None

    @property
    def full_text(self) -> str:
        """Claim text with its context appended (what gets indexed/retrieved)."""
        if self.context:
            return f"{self.text} ({self.context})"
        return self.text
