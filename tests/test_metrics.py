"""Evaluation metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.evaluation import (
    accuracy,
    macro_recall_at_k,
    recall_at_k,
)
from repro.metrics.tables import format_table


class TestRecallAtK:
    def test_full_recall(self):
        assert recall_at_k(["a", "b", "c"], ["a", "b"], 3) == 1.0

    def test_partial(self):
        assert recall_at_k(["a", "x", "y"], ["a", "b"], 3) == 0.5

    def test_k_truncates(self):
        assert recall_at_k(["x", "a"], ["a"], 1) == 0.0

    def test_empty_relevant(self):
        assert recall_at_k(["a"], [], 3) == 1.0

    def test_macro(self):
        runs = [(["a"], ["a"]), (["x"], ["a"])]
        assert macro_recall_at_k(runs, 1) == 0.5

    def test_macro_empty(self):
        assert macro_recall_at_k([], 3) == 0.0

    @given(st.lists(st.text(max_size=3), max_size=10),
           st.lists(st.text(max_size=3), max_size=5),
           st.integers(min_value=1, max_value=10))
    def test_range(self, retrieved, relevant, k):
        assert 0.0 <= recall_at_k(retrieved, relevant, k) <= 1.0


class TestAccuracy:
    def test_basic(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 2])

    def test_empty(self):
        assert accuracy([], []) == 0.0


class TestFormatTable:
    def test_alignment_and_floats(self):
        rendered = format_table(
            ["name", "value"], [["a", 0.123456], ["bb", 7]], title="T"
        )
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert "0.12" in rendered
        assert "7" in rendered

    def test_no_title(self):
        rendered = format_table(["x"], [["1"]])
        assert rendered.splitlines()[0].startswith("x")

    def test_columns_pad_to_the_widest_cell(self):
        rendered = format_table(["a", "long"], [["xyz", 1.5], ["b", "c"]])
        assert rendered.splitlines() == [
            "a   | long",
            "----+-----",
            "xyz | 1.50",
            "b   | c   ",
        ]
