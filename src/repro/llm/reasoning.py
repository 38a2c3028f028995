"""Noisy table reasoning — how an LLM actually executes a claim.

The simulated model resolves columns and rows the same way the exact
engine does (LLMs are *good* at schema/entity linking) but its
arithmetic slips: every number handled during an aggregation, scan, or
count independently has a chance of being misread.  Consequently lookup
claims verify near-perfectly while sum/average claims over long columns
degrade — which is why ChatGPT trails the exact-execution verifier on
relevant tables in the paper's Table 2.

A slip perturbs the *computed* value, so true claims become refutable
(computed no longer equals claimed) while false claims usually stay
false — the asymmetry seen in practice.
"""

from __future__ import annotations

import random
from typing import List

from repro.claims.engine import ExecutionResult, TableQueryEngine
from repro.claims.model import Aggregate, ClaimOp, ClaimSpec, Comparison
from repro.datalake.types import Table
from repro.llm.profile import LLMProfile
from repro.text import normalize
from repro.text.numbers import numbers_equal, parse_number

_UNKNOWN = "unknown"


def _is_unknown(cell: str) -> bool:
    return normalize(cell) == _UNKNOWN


class NoisyClaimReasoner:
    """Claim execution with per-item arithmetic noise."""

    def __init__(self, profile: LLMProfile = LLMProfile()) -> None:
        self.profile = profile
        self._engine = TableQueryEngine()

    # ------------------------------------------------------------------
    # noisy primitives
    # ------------------------------------------------------------------
    def _misread(self, value: float, rng: random.Random) -> float:
        """Perturb a number the way a careless reader would."""
        factor = rng.uniform(1.02, 1.3)
        if rng.random() < 0.5:
            factor = 1.0 / factor
        return value * factor

    def _noisy_numbers(
        self, numbers: List[float], slip: float, rng: random.Random
    ) -> List[float]:
        return [
            self._misread(n, rng) if rng.random() < slip else n for n in numbers
        ]

    def _resolve_row_noisy(self, table: Table, subject: str, rng: random.Random):
        """Row resolution with a chance of binding the wrong row."""
        row = self._engine.resolve_row(table, subject)
        if (
            row is not None
            and table.num_rows > 1
            and rng.random() < self.profile.binding_slip
        ):
            other_indexes = [
                i for i in range(table.num_rows) if i != row.row_index
            ]
            return table.row(rng.choice(other_indexes))
        return row

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, spec: ClaimSpec, table: Table, rng: random.Random
    ) -> ExecutionResult:
        """Execute ``spec`` against ``table`` with the profile's noise."""
        if spec.op is ClaimOp.LOOKUP:
            return self._lookup(spec, table, rng)
        if spec.op is ClaimOp.COMPARE:
            return self._compare(spec, table, rng)
        if spec.op is ClaimOp.AGGREGATE:
            return self._aggregate(spec, table, rng)
        if spec.op is ClaimOp.SUPERLATIVE:
            return self._superlative(spec, table, rng)
        if spec.op is ClaimOp.COUNT:
            return self._count(spec, table, rng)
        raise ValueError(f"unknown op: {spec.op}")  # pragma: no cover

    def _lookup(
        self, spec: ClaimSpec, table: Table, rng: random.Random
    ) -> ExecutionResult:
        column = self._engine.resolve_column(table, spec.column)
        if column is None:
            return ExecutionResult(None, (f"no column matching {spec.column!r}",))
        assert spec.subject is not None and spec.value is not None
        row = self._resolve_row_noisy(table, spec.subject, rng)
        if row is None:
            return ExecutionResult(None, (f"no row mentioning {spec.subject!r}",))
        cell = row.get(column)
        assert cell is not None
        if _is_unknown(cell):
            return ExecutionResult(None, (f"{column!r} is not grounded",))
        verdict = self._engine.values_match(cell, spec.value)
        if rng.random() < self.profile.lookup_slip:
            verdict = not verdict
        return ExecutionResult(
            verdict,
            (f"read {column} = {cell!r}; claim says {spec.value!r} -> {verdict}",),
        )

    def _compare(
        self, spec: ClaimSpec, table: Table, rng: random.Random
    ) -> ExecutionResult:
        column = self._engine.resolve_column(table, spec.column)
        if column is None:
            return ExecutionResult(None, (f"no column matching {spec.column!r}",))
        assert spec.subject is not None and spec.subject_b is not None
        row_a = self._resolve_row_noisy(table, spec.subject, rng)
        row_b = self._resolve_row_noisy(table, spec.subject_b, rng)
        if row_a is None or row_b is None:
            missing = spec.subject if row_a is None else spec.subject_b
            return ExecutionResult(None, (f"no row mentioning {missing!r}",))
        value_a, value_b = row_a.numeric(column), row_b.numeric(column)
        if value_a is None or value_b is None:
            return ExecutionResult(None, (f"column {column!r} is not numeric",))
        noisy_a, noisy_b = self._noisy_numbers(
            [value_a, value_b], self.profile.lookup_slip, rng
        )
        if spec.comparison is Comparison.HIGHER:
            verdict = noisy_a > noisy_b
        else:
            verdict = noisy_a < noisy_b
        return ExecutionResult(
            verdict,
            (f"read {noisy_a:g} vs {noisy_b:g}; claimed "
             f"{spec.comparison.value} -> {verdict}",),
        )

    def _aggregate(
        self, spec: ClaimSpec, table: Table, rng: random.Random
    ) -> ExecutionResult:
        column = self._engine.resolve_column(table, spec.column)
        if column is None:
            return ExecutionResult(None, (f"no column matching {spec.column!r}",))
        if any(_is_unknown(cell) for cell in table.column_values(column)):
            return ExecutionResult(None, (f"column {column!r} is not fully grounded",))
        numbers = [n for n in table.column_numbers(column) if n is not None]
        if not numbers:
            return ExecutionResult(None, (f"column {column!r} is not numeric",))
        assert spec.aggregate is not None and spec.value is not None
        claimed = parse_number(spec.value)
        if claimed is None:
            return ExecutionResult(None, (f"claimed value {spec.value!r} is not numeric",))
        noisy = self._noisy_numbers(numbers, self.profile.arithmetic_slip, rng)
        if spec.aggregate is Aggregate.SUM:
            computed = sum(noisy)
        elif spec.aggregate is Aggregate.AVG:
            computed = sum(noisy) / len(noisy)
        elif spec.aggregate is Aggregate.MIN:
            computed = min(noisy)
        else:
            computed = max(noisy)
        verdict = numbers_equal(computed, claimed, rel_tol=5e-3)
        return ExecutionResult(
            verdict,
            (f"computed {spec.aggregate.value}({column}) = {computed:g} over "
             f"{len(noisy)} rows; claim says {claimed:g} -> {verdict}",),
        )

    def _superlative(
        self, spec: ClaimSpec, table: Table, rng: random.Random
    ) -> ExecutionResult:
        column = self._engine.resolve_column(table, spec.column)
        if column is None:
            return ExecutionResult(None, (f"no column matching {spec.column!r}",))
        assert spec.subject is not None
        row = self._resolve_row_noisy(table, spec.subject, rng)
        if row is None:
            return ExecutionResult(None, (f"no row mentioning {spec.subject!r}",))
        subject_value = row.numeric(column)
        if subject_value is None:
            return ExecutionResult(None, (f"{column!r} is not numeric",))
        if any(_is_unknown(cell) for cell in table.column_values(column)):
            return ExecutionResult(None, (f"column {column!r} is not fully grounded",))
        numbers = [n for n in table.column_numbers(column) if n is not None]
        noisy = self._noisy_numbers(numbers, self.profile.arithmetic_slip, rng)
        extreme = max(noisy) if spec.comparison is Comparison.HIGHER else min(noisy)
        verdict = numbers_equal(subject_value, extreme)
        return ExecutionResult(
            verdict,
            (f"scanned {len(noisy)} rows; extreme = {extreme:g}, subject has "
             f"{subject_value:g} -> {verdict}",),
        )

    def _count(
        self, spec: ClaimSpec, table: Table, rng: random.Random
    ) -> ExecutionResult:
        column = self._engine.resolve_column(table, spec.column)
        if column is None:
            return ExecutionResult(None, (f"no column matching {spec.column!r}",))
        assert spec.value is not None and spec.count is not None
        if any(_is_unknown(cell) for cell in table.column_values(column)):
            return ExecutionResult(None, (f"column {column!r} is not fully grounded",))
        actual = 0
        for cell in table.column_values(column):
            matched = self._engine.values_match(cell, spec.value)
            if rng.random() < self.profile.arithmetic_slip:
                matched = not matched  # skimmed past / double-counted a row
            if matched:
                actual += 1
        verdict = actual == spec.count
        return ExecutionResult(
            verdict,
            (f"counted {actual} rows with {column} = {spec.value!r}; "
             f"claim says {spec.count} -> {verdict}",),
        )
