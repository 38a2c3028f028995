"""String/token similarity measures and their invariants."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.text import (
    jaccard,
    levenshtein,
    levenshtein_ratio,
    ngrams,
    trigram_similarity,
)

short_text = st.text(max_size=25)
#: few letters, so long strings share runs and the distance is far from
#: ``max(len)``; an accent and an astral character keep non-ASCII and
#: non-BMP code points in play; up to 150 characters crosses the
#: 64-character word a fixed-width bit-parallel pattern would need
#: blocks for
FEW_LETTERS = "abé😀"
long_text = st.text(alphabet=FEW_LETTERS, max_size=150)
splice = st.text(alphabet=FEW_LETTERS, max_size=3)


def dp_levenshtein(a: str, b: str) -> int:
    """The two-row dynamic programme ``levenshtein`` was before it
    became bit-parallel; kept as the reference it must equal."""
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        for j, ch_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ch_a != ch_b),
                )
            )
        previous = current
    return previous[-1]


class TestLevenshteinEqualsTheDP:
    """``levenshtein`` (Myers' bit-parallel recurrence on Python ints,
    after a shared prefix/suffix strip) returns the DP's integer."""

    @pytest.mark.parametrize(
        "a, b",
        [
            ("", ""),
            ("", "a"),
            ("a", ""),
            ("a", "a"),
            ("a", "b"),
            ("kitten", "sitting"),
            ("flaw", "lawn"),
            ("abc", "xabcx"),  # nothing to strip, pattern inside the text
            ("prefix-a-suffix", "prefix-b-suffix"),  # strip leaves one char
            ("aaaa", "aa"),  # strip empties the shorter string
            ("ab" * 40, "ba" * 40),  # 80-bit pattern
            ("a" * 64 + "b", "b" + "a" * 64),  # pattern of exactly 65 bits
            ("x" * 200, "y" * 130),
            ("café", "cafe"),
            ("😀😃😄", "😀😄"),
            ("e\u0301", "é"),  # combining sequence vs precomposed
        ],
    )
    def test_named_cases(self, a, b):
        assert levenshtein(a, b) == dp_levenshtein(a, b)
        assert levenshtein(b, a) == dp_levenshtein(a, b)

    @given(short_text, short_text)
    def test_any_short_text(self, a, b):
        assert levenshtein(a, b) == dp_levenshtein(a, b)

    @given(long_text, long_text)
    def test_long_patterns_over_few_letters(self, a, b):
        assert levenshtein(a, b) == dp_levenshtein(a, b)

    @given(long_text, st.integers(0, 150), splice)
    def test_near_equal_strings(self, a, position, patch):
        # one splice into an otherwise equal string: the strip does
        # almost all of the work and the pattern is at most the patch
        b = a[:position] + patch + a[position + 1:]
        assert levenshtein(a, b) == dp_levenshtein(a, b)

    def test_seeded_random_pairs(self):
        rng = random.Random(17)
        for _ in range(2000):
            alphabet = rng.choice(["ab", "abcdefgh", "abcdefghij 0123456789"])
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 30)))
            assert levenshtein(a, b) == dp_levenshtein(a, b), (a, b)


class TestLevenshtein:
    def test_identical(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_vs_word(self):
        assert levenshtein("", "abc") == 3

    def test_substitution(self):
        assert levenshtein("cat", "car") == 1

    def test_insertion(self):
        assert levenshtein("cat", "cart") == 1

    @given(short_text, short_text)
    def test_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(short_text, short_text)
    def test_bounded_by_longer_length(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))

    @given(short_text, short_text, short_text)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(short_text, short_text)
    def test_zero_iff_equal(self, a, b):
        assert (levenshtein(a, b) == 0) == (a == b)


class TestLevenshteinRatio:
    def test_identical(self):
        assert levenshtein_ratio("abc", "abc") == 1.0

    def test_both_empty(self):
        assert levenshtein_ratio("", "") == 1.0

    @given(short_text, short_text)
    def test_range(self, a, b):
        assert 0.0 <= levenshtein_ratio(a, b) <= 1.0


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard(["a", "b"], ["b", "a"]) == 1.0

    def test_disjoint(self):
        assert jaccard(["a"], ["b"]) == 0.0

    def test_both_empty(self):
        assert jaccard([], []) == 1.0

    @given(st.lists(st.text(max_size=5)), st.lists(st.text(max_size=5)))
    def test_range_and_symmetry(self, a, b):
        value = jaccard(a, b)
        assert 0.0 <= value <= 1.0
        assert value == jaccard(b, a)


class TestNgrams:
    def test_padded(self):
        assert sorted(ngrams("ab", 3)) == ["$$a", "$ab", "ab$", "b$$"]

    def test_unpadded(self):
        assert ngrams("abcd", 3, pad=False) == {"abc", "bcd"}

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngrams("abc", 0)

    def test_empty_string(self):
        grams = ngrams("", 3)
        assert grams == {"$$$$"} or all("$" in g for g in grams)


class TestTrigramSimilarity:
    def test_identical(self):
        assert trigram_similarity("ohio", "ohio") == 1.0

    def test_typo_still_similar(self):
        assert trigram_similarity("jenkins", "jenkinz") > 0.4

    def test_unrelated(self):
        assert trigram_similarity("aaaa", "zzzz") == 0.0

    @given(short_text, short_text)
    def test_range(self, a, b):
        assert 0.0 <= trigram_similarity(a, b) <= 1.0
