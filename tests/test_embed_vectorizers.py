"""Hashing and TF-IDF vectorizers.

One of ``make coverage``'s suites for ``embed/vectorizers.py``.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.embed import vectorizers
from repro.embed.vectorizers import (
    HashingVectorizer, TfidfVectorizer, _hash_index_sign,
)

words = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=6), min_size=1, max_size=12
)


class TestHashingVectorizer:
    def test_deterministic(self):
        a = HashingVectorizer(dim=64).transform("tom jenkins ohio")
        b = HashingVectorizer(dim=64).transform("tom jenkins ohio")
        assert np.allclose(a, b)

    def test_unit_norm(self):
        vec = HashingVectorizer(dim=64).transform("some words here")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_empty_text_zero_vector(self):
        vec = HashingVectorizer(dim=64).transform("")
        assert np.allclose(vec, 0.0)

    def test_similar_texts_close(self):
        hv = HashingVectorizer(dim=256)
        a = hv.transform("tom jenkins republican ohio district")
        b = hv.transform("tom jenkins republican ohio incumbent")
        c = hv.transform("completely different basketball words")
        assert a @ b > a @ c

    def test_salt_changes_embedding(self):
        a = HashingVectorizer(dim=64, salt="x").transform("hello world")
        b = HashingVectorizer(dim=64, salt="y").transform("hello world")
        assert not np.allclose(a, b)

    def test_transform_many_shape(self):
        hv = HashingVectorizer(dim=32)
        matrix = hv.transform_many(["a b", "c d", "e f"])
        assert matrix.shape == (3, 32)

    def test_transform_many_empty(self):
        assert HashingVectorizer(dim=32).transform_many([]).shape == (0, 32)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashingVectorizer(dim=0)

    @given(words)
    def test_norm_bounded(self, tokens):
        vec = HashingVectorizer(dim=64).transform_tokens(tokens)
        assert np.linalg.norm(vec) <= 1.0 + 1e-9


class TestTfidfVectorizer:
    def corpus(self):
        return [
            "tom jenkins republican ohio",
            "bill hess republican ohio",
            "anne clark democratic ohio",
            "basketball season statistics",
        ]

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer(dim=32).transform("anything")

    def test_fit_transform_norm(self):
        vec = TfidfVectorizer(dim=64).fit(self.corpus()).transform("tom ohio")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_rare_tokens_weighted_up(self):
        tv = TfidfVectorizer(dim=64).fit(self.corpus())
        # 'ohio' appears in 3 docs, 'basketball' in 1
        assert tv.idf("basketball") > tv.idf("ohio")

    def test_unknown_token_max_idf(self):
        tv = TfidfVectorizer(dim=64).fit(self.corpus())
        assert tv.idf("zzzunknown") >= tv.idf("basketball")

    def test_discrimination(self):
        tv = TfidfVectorizer(dim=256).fit(self.corpus())
        query = tv.transform("tom jenkins")
        same = tv.transform("tom jenkins republican ohio")
        other = tv.transform("basketball season statistics")
        assert query @ same > query @ other

    def test_transform_many(self):
        tv = TfidfVectorizer(dim=32).fit(self.corpus())
        assert tv.transform_many(self.corpus()).shape == (4, 32)

    def test_is_fitted_flag(self):
        tv = TfidfVectorizer(dim=32)
        assert not tv.is_fitted
        tv.fit(["one doc"])
        assert tv.is_fitted


# ----------------------------------------------------------------------
# the block kernel against the per-token loop it replaced
# ----------------------------------------------------------------------
def reference_row(tokens, dim, salt="hv"):
    """``transform_tokens`` as a per-token loop: each distinct token, in
    first-occurrence order, adds ``sign * (1 + log count)`` to its
    bucket, then the row is divided by its norm unless that is zero."""
    vec = np.zeros(dim, dtype=np.float64)
    if not tokens:
        return vec
    for token, count in Counter(tokens).items():
        index, sign = _hash_index_sign(token, dim, salt)
        vec[index] += sign * (1.0 + math.log(count))
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def opposite_pair(dim):
    """Two tokens in one bucket with opposite signs at ``dim``."""
    seen = {}
    for rank in range(1000):
        token = f"t{rank}"
        index, sign = _hash_index_sign(token, dim, "hv")
        other = seen.get((index, -sign))
        if other is not None:
            return other, token
        seen.setdefault((index, sign), token)
    raise AssertionError("no opposite pair")


#: few distinct tokens, so that lists repeat them
token_lists = st.lists(
    st.lists(st.sampled_from([f"k{i}" for i in range(12)] + ["the", "é"]),
             max_size=30),
    max_size=6,
)


class TestBlockKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=token_lists,
        dim=st.sampled_from([1, 2, 3, 64, 256]),
        memo=st.sampled_from([65536, 3, 0]),
    )
    @example(rows=[[]], dim=64, memo=65536)
    @example(rows=[[], ["k1"], []], dim=2, memo=0)
    def test_every_row_is_the_per_token_loop_to_the_bit(self, rows, dim, memo):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(vectorizers, "HASH_MEMO_SIZE", memo)
            vectorizer = HashingVectorizer(dim=dim)
            block = vectorizer.transform_counts([Counter(row) for row in rows])
            assert block.shape == (len(rows), dim)
            for tokens, got in zip(rows, block):
                assert got.tobytes() == reference_row(tokens, dim).tobytes()
                one = vectorizer.transform_tokens(tokens)
                assert one.tobytes() == got.tobytes()
            assert len(vectorizer._slots) <= memo

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_opposite_signs_in_one_bucket_cancel_to_a_zero_row(self, dim):
        plus, minus = opposite_pair(dim)
        vectorizer = HashingVectorizer(dim=dim)
        rows = [[plus, minus], [plus, plus, minus, minus], [plus, minus, minus]]
        block = vectorizer.transform_counts([Counter(row) for row in rows])
        for tokens, got in zip(rows, block):
            assert got.tobytes() == reference_row(tokens, dim).tobytes()
        assert not block[0].any() and not block[1].any() and block[2].any()

    def test_a_count_past_the_weight_table_grows_it(self):
        vectorizer = HashingVectorizer(dim=16)
        for count in (1, 3, 2, 40, 7, 41):
            tokens = ["a"] * count + ["b"] * (count // 2 + 1)
            got = vectorizer.transform_tokens(tokens)
            assert got.tobytes() == reference_row(tokens, 16).tobytes()
        assert len(vectorizer._tf_weight) == 42

    def test_a_full_memo_still_embeds_and_stays_full(self, monkeypatch):
        monkeypatch.setattr(vectorizers, "HASH_MEMO_SIZE", 2)
        vectorizer = HashingVectorizer(dim=8)
        tokens = ["a", "b", "c", "d", "c", "e"]
        for _ in range(3):
            got = vectorizer.transform_tokens(tokens)
            assert got.tobytes() == reference_row(tokens, 8).tobytes()
        assert list(vectorizer._slots) == ["a", "b"]

    def test_an_empty_block(self):
        assert HashingVectorizer(dim=8).transform_counts([]).shape == (0, 8)

    def test_transform_many_is_one_block_of_transforms(self):
        vectorizer = HashingVectorizer(dim=32)
        texts = ["tom jenkins ohio ohio", "", "votes of the district"]
        block = vectorizer.transform_many(texts)
        assert [row.tobytes() for row in block] == [
            vectorizer.transform(text).tobytes() for text in texts
        ]

    def test_tfidf_transform_many_needs_a_fit_too(self):
        with pytest.raises(RuntimeError, match="before fit"):
            TfidfVectorizer(dim=8).transform_many(["a"])
