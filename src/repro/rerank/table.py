"""OpenTFV-style (text, table) reranking.

OpenTFV (Gu et al., SIGMOD 2022) retrieves and reranks tables for
open-domain table fact verification.  This reranker scores a claim
against a serialized table by mixing four signals:

1. caption match — token overlap between the claim and the caption line;
2. year agreement — a claim naming a year that the caption contradicts
   is heavily penalized (the Figure 4 "E2 is for 1959" case);
3. schema grounding — does the claim mention a column of the table;
4. cell grounding — are the claim's entities/values present in cells.
"""

from __future__ import annotations

from typing import FrozenSet, NamedTuple, Set, Tuple

from repro.datalake.serialize import parse_table
from repro.rerank.base import Reranker
from repro.text import analyze
from repro.text.numbers import years_in


#: a read claim: its tokens and the years it names
_Claim = Tuple[FrozenSet[str], Set[int]]


class _Table(NamedTuple):
    """What the scorer reads in one serialized table."""

    caption_tokens: FrozenSet[str]
    header_tokens: FrozenSet[str]
    #: every token a claim can be grounded in: cells, caption, header
    all_tokens: FrozenSet[str]
    caption_years: Set[int]


class TableReranker(Reranker):
    """Claim-vs-table mixture scorer."""

    name = "opentfv"

    def __init__(
        self,
        caption_weight: float = 0.4,
        schema_weight: float = 0.2,
        cell_weight: float = 0.4,
        year_penalty: float = 0.5,
    ) -> None:
        super().__init__()
        self.caption_weight = caption_weight
        self.schema_weight = schema_weight
        self.cell_weight = cell_weight
        self.year_penalty = year_penalty

    def _read_query(self, query: str) -> _Claim:
        return frozenset(analyze(query)), years_in(query)

    def _read_payload(self, payload: str) -> _Table:
        """Read a serialized table: every body row's tokens count,
        whatever its width."""
        caption, header, rows = parse_table(payload)
        caption_tokens = frozenset(analyze(caption))
        header_tokens = frozenset(analyze(" ".join(header)))
        cell_tokens = frozenset(
            analyze(" ".join(cell for row in rows for cell in row))
        )
        return _Table(
            caption_tokens,
            header_tokens,
            cell_tokens | caption_tokens | header_tokens,
            years_in(caption),
        )

    def _score(self, query: _Claim, payload: _Table) -> float:
        """Score a read claim against a read table."""
        claim_tokens, claim_years = query
        if not claim_tokens:
            return 0.0

        caption_tokens = payload.caption_tokens
        # fraction of the caption covered by the claim — a claim naming the
        # table's full scope scores 1.0
        caption_score = (
            len(claim_tokens & caption_tokens) / len(caption_tokens)
            if caption_tokens
            else 0.0
        )

        header_tokens = payload.header_tokens
        schema_score = (
            len(claim_tokens & header_tokens) / len(header_tokens)
            if header_tokens
            else 0.0
        )

        grounding = len(claim_tokens & payload.all_tokens) / len(claim_tokens)

        score = (
            self.caption_weight * caption_score
            + self.schema_weight * schema_score
            + self.cell_weight * grounding
        )

        caption_years = payload.caption_years
        if claim_years and caption_years and not claim_years & caption_years:
            score -= self.year_penalty
        return score
