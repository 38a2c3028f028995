"""Execution of structured claims against tables.

The engine resolves the claim's column and subject(s) against the actual
table schema with fuzzy matching, executes the operation, and reports
true / false / *not executable*.  Not-executable outcomes (the table has
no such column, or no row mentions the subject) are how a table-side
verifier discovers that evidence is NOT_RELATED to a claim.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis import sanitizer as _sanitizer
from repro.claims.model import Aggregate, ClaimOp, ClaimSpec, Comparison
from repro.datalake.types import Row, Table
from repro.text import analyze, normalize
from repro.text.numbers import numbers_equal, parse_number
from repro.text.similarity import jaccard


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing a claim spec against one table.

    ``verdict`` is True/False when the table answers the claim, None when
    the claim is not executable against this table.  ``trace`` records
    the reasoning steps (used by provenance and the Figure 4 example).
    """

    verdict: Optional[bool]
    trace: Tuple[str, ...] = ()

    @property
    def executable(self) -> bool:
        return self.verdict is not None


def _not_related(reason: str) -> ExecutionResult:
    return ExecutionResult(verdict=None, trace=(reason,))


_ROW_INDEX_LOCK = threading.Lock()


def _index_rows(table: Table) -> Dict[str, int]:
    """Build (once per table) ``normalize(cell)`` -> index of the first
    row holding such a cell, over the cells ``Row.get`` can reach: the
    first column of each name."""
    with _ROW_INDEX_LOCK:
        index = table._row_by_cell
        if index is None:
            reachable = sorted({table.columns.index(c) for c in table.columns})
            index = {}
            for row_index, row in enumerate(table.rows):
                for position in reachable:
                    cell = row[position]
                    key = normalize(cell)
                    # an already-normal cell is its own key: no second copy
                    index.setdefault(cell if key == cell else key, row_index)
            table._row_by_cell = index
            _sanitizer.note_write(table, "_row_by_cell", lock=_ROW_INDEX_LOCK)
    return index


class TableQueryEngine:
    """Fuzzy-schema claim execution over :class:`~repro.datalake.types.Table`.

    ``column_threshold`` / ``subject_threshold`` control how aggressively
    claim strings are matched to table columns / cells; lower thresholds
    execute more claims (higher coverage) at the cost of misbinding.
    """

    def __init__(
        self,
        column_threshold: float = 0.5,
        subject_threshold: float = 0.6,
    ) -> None:
        self.column_threshold = column_threshold
        self.subject_threshold = subject_threshold

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve_column(self, table: Table, name: str) -> Optional[str]:
        """Best-matching table column for a claim's column string."""
        target = normalize(name)
        for column in table.columns:
            if normalize(column) == target:
                return column
        target_tokens = set(analyze(name))
        if not target_tokens:
            return None
        best: Tuple[float, Optional[str]] = (0.0, None)
        for column in table.columns:
            score = jaccard(target_tokens, analyze(column))
            if score > best[0]:
                best = (score, column)
        if best[0] >= self.column_threshold:
            return best[1]
        return None

    def resolve_row(self, table: Table, subject: str) -> Optional[Row]:
        """Row whose key/entity cell best matches ``subject``."""
        index = table._row_by_cell
        if index is None:
            index = _index_rows(table)
        exact = index.get(normalize(subject))
        if exact is not None:
            return table.row(exact)
        target_tokens = set(analyze(subject))
        if not target_tokens:
            return None
        # no cell equals the subject: best token overlap, the first row
        # (then the first candidate column) winning ties
        candidate_columns = list(
            dict.fromkeys(
                [c for c in (table.key_column,) if c]
                + list(table.entity_columns)
                + list(table.columns)
            )
        )
        best: Tuple[float, Optional[Row]] = (0.0, None)
        for row in table.iter_rows():
            for column in candidate_columns:
                cell = row.get(column)
                if cell is None:
                    continue
                score = jaccard(target_tokens, analyze(cell))
                if score > best[0]:
                    best = (score, row)
        if best[0] >= self.subject_threshold:
            return best[1]
        return None

    # ------------------------------------------------------------------
    # value comparison
    # ------------------------------------------------------------------
    @staticmethod
    def values_match(cell: str, claimed: str) -> bool:
        """Compare a table cell against a claimed value (numeric-aware)."""
        cell_num = parse_number(cell)
        claim_num = parse_number(claimed)
        if cell_num is not None and claim_num is not None:
            return numbers_equal(cell_num, claim_num)
        return normalize(cell) == normalize(claimed)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, spec: ClaimSpec, table: Table) -> ExecutionResult:
        """Run ``spec`` against ``table``."""
        handlers = {
            ClaimOp.LOOKUP: self._execute_lookup,
            ClaimOp.COMPARE: self._execute_compare,
            ClaimOp.AGGREGATE: self._execute_aggregate,
            ClaimOp.SUPERLATIVE: self._execute_superlative,
            ClaimOp.COUNT: self._execute_count,
        }
        return handlers[spec.op](spec, table)

    def _execute_lookup(self, spec: ClaimSpec, table: Table) -> ExecutionResult:
        column = self.resolve_column(table, spec.column)
        if column is None:
            return _not_related(f"no column matching {spec.column!r}")
        assert spec.subject is not None and spec.value is not None
        row = self.resolve_row(table, spec.subject)
        if row is None:
            return _not_related(f"no row mentioning {spec.subject!r}")
        cell = row.get(column)
        assert cell is not None
        matches = self.values_match(cell, spec.value)
        return ExecutionResult(
            verdict=matches,
            trace=(
                f"row {row.instance_id} has {column} = {cell!r}; "
                f"claim says {spec.value!r} -> {matches}",
            ),
        )

    def _numeric_column(
        self, spec: ClaimSpec, table: Table
    ) -> Tuple[Optional[str], List[float], ExecutionResult]:
        """Resolve a numeric column; third element is the failure result."""
        column = self.resolve_column(table, spec.column)
        if column is None:
            return None, [], _not_related(f"no column matching {spec.column!r}")
        numbers = [n for n in table.column_numbers(column) if n is not None]
        if not numbers:
            return None, [], _not_related(f"column {column!r} is not numeric")
        return column, numbers, ExecutionResult(verdict=None)

    def _execute_compare(self, spec: ClaimSpec, table: Table) -> ExecutionResult:
        column = self.resolve_column(table, spec.column)
        if column is None:
            return _not_related(f"no column matching {spec.column!r}")
        assert spec.subject is not None and spec.subject_b is not None
        row_a = self.resolve_row(table, spec.subject)
        if row_a is None:
            return _not_related(f"no row mentioning {spec.subject!r}")
        row_b = self.resolve_row(table, spec.subject_b)
        if row_b is None:
            return _not_related(f"no row mentioning {spec.subject_b!r}")
        value_a = row_a.numeric(column)
        value_b = row_b.numeric(column)
        if value_a is None or value_b is None:
            return _not_related(f"column {column!r} is not numeric for both rows")
        if spec.comparison is Comparison.HIGHER:
            verdict = value_a > value_b
        else:
            verdict = value_a < value_b
        return ExecutionResult(
            verdict=verdict,
            trace=(
                f"{spec.subject}: {column} = {value_a}; "
                f"{spec.subject_b}: {column} = {value_b}; "
                f"claimed {spec.comparison.value} -> {verdict}",
            ),
        )

    def _execute_aggregate(self, spec: ClaimSpec, table: Table) -> ExecutionResult:
        column, numbers, failure = self._numeric_column(spec, table)
        if column is None:
            return failure
        assert spec.aggregate is not None and spec.value is not None
        claimed = parse_number(spec.value)
        if claimed is None:
            return _not_related(f"claimed value {spec.value!r} is not numeric")
        if spec.aggregate is Aggregate.SUM:
            actual = sum(numbers)
        elif spec.aggregate is Aggregate.AVG:
            actual = sum(numbers) / len(numbers)
        elif spec.aggregate is Aggregate.MIN:
            actual = min(numbers)
        else:
            actual = max(numbers)
        verdict = numbers_equal(actual, claimed, rel_tol=5e-3)
        return ExecutionResult(
            verdict=verdict,
            trace=(
                f"{spec.aggregate.value}({column}) over {len(numbers)} rows "
                f"= {actual:g}; claim says {claimed:g} -> {verdict}",
            ),
        )

    def _execute_superlative(self, spec: ClaimSpec, table: Table) -> ExecutionResult:
        column = self.resolve_column(table, spec.column)
        if column is None:
            return _not_related(f"no column matching {spec.column!r}")
        assert spec.subject is not None
        row = self.resolve_row(table, spec.subject)
        if row is None:
            return _not_related(f"no row mentioning {spec.subject!r}")
        subject_value = row.numeric(column)
        if subject_value is None:
            return _not_related(f"{column!r} of {spec.subject!r} is not numeric")
        numbers = [n for n in table.column_numbers(column) if n is not None]
        if spec.comparison is Comparison.HIGHER:
            extreme = max(numbers)
        else:
            extreme = min(numbers)
        verdict = numbers_equal(subject_value, extreme)
        direction = "highest" if spec.comparison is Comparison.HIGHER else "lowest"
        return ExecutionResult(
            verdict=verdict,
            trace=(
                f"{direction}({column}) = {extreme:g}; "
                f"{spec.subject} has {subject_value:g} -> {verdict}",
            ),
        )

    def _execute_count(self, spec: ClaimSpec, table: Table) -> ExecutionResult:
        column = self.resolve_column(table, spec.column)
        if column is None:
            return _not_related(f"no column matching {spec.column!r}")
        assert spec.value is not None and spec.count is not None
        actual = sum(
            1
            for cell in table.column_values(column)
            if self.values_match(cell, spec.value)
        )
        verdict = actual == spec.count
        return ExecutionResult(
            verdict=verdict,
            trace=(
                f"count({column} = {spec.value!r}) = {actual}; "
                f"claim says {spec.count} -> {verdict}",
            ),
        )
