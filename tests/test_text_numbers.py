"""Numeric token parsing and comparison."""

import pytest
from hypothesis import given, strategies as st

from repro.text.numbers import (
    format_number,
    numbers_equal,
    numbers_in,
    parse_number,
    years_in,
)


class TestParseNumber:
    def test_thousand_separators(self):
        assert parse_number("1,234") == 1234.0

    def test_decimal(self):
        assert parse_number("51.2") == 51.2

    def test_percent_suffix(self):
        assert parse_number("51.2%") == 51.2

    def test_signed(self):
        assert parse_number("-3.5") == -3.5

    def test_not_a_number(self):
        assert parse_number("abc") is None

    def test_mixed_token_rejected(self):
        assert parse_number("12abc") is None

    def test_whitespace_tolerated(self):
        assert parse_number("  42 ") == 42.0

    @given(st.integers(min_value=-10**9, max_value=10**9))
    def test_int_round_trip(self, value):
        assert parse_number(str(value)) == float(value)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_comma_format_round_trip(self, value):
        assert parse_number(f"{value:,}") == float(value)


class TestNumbersIn:
    def test_finds_all(self):
        assert numbers_in("10 gold, 5 silver and 3 bronze") == [10.0, 5.0, 3.0]

    def test_commas(self):
        assert numbers_in("won 102,000 votes") == [102000.0]

    def test_none(self):
        assert numbers_in("no digits here") == []


class TestNumbersEqual:
    def test_exact(self):
        assert numbers_equal(1.0, 1.0)

    def test_tolerance(self):
        assert numbers_equal(1000.0, 1000.0000001)

    def test_different(self):
        assert not numbers_equal(10.0, 11.0)

    @given(st.floats(allow_nan=False, allow_infinity=False,
                     min_value=-1e12, max_value=1e12))
    def test_reflexive(self, value):
        assert numbers_equal(value, value)


class TestFormatNumber:
    def test_integer_without_decimal(self):
        assert format_number(42.0) == "42"

    def test_decimal_kept(self):
        assert format_number(3.5) == "3.5"

    @given(st.integers(min_value=-10**6, max_value=10**6))
    def test_int_round_trip(self, value):
        assert parse_number(format_number(float(value))) == float(value)


class TestYearsIn:
    def test_finds_each_year_once(self):
        assert years_in("elected in 1946, re-elected in 1950 and 1946") == {
            1946, 1950
        }

    def test_range_bounds_are_inclusive(self):
        assert years_in("from 1900 to 2100") == {1900, 2100}
        assert years_in("from 1899 to 2101") == set()

    def test_fractions_and_small_numbers_are_not_years(self):
        assert years_in("1950.5 votes in district 12") == set()
