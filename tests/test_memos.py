"""The three content-keyed memos, each a per-instance ``functools.lru_cache``.

``SimulatedLLM._readings`` (an Evidence section's reading),
``Reranker._readings`` (a payload's reading) and
``TokenEmbedder._feature_cache`` (an n-gram's vector) are bounded by
their module's constant, evict the least recently used key, belong to
one instance, and hand eight threads what a serial read hands one
(``make sanitize`` runs this file).
"""

import random
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.embed import token_embed
from repro.embed.token_embed import TokenEmbedder, _feature_vector
from repro.llm import model as llm_model
from repro.llm.model import SimulatedLLM
from repro.rerank import base as rerank_base
from repro.rerank import features as rerank_features
from repro.rerank.features import FeatureReranker
from tests.test_llm_readings import hammer


class Memo(NamedTuple):
    module: Any  # where the bound lives
    constant: str  # its name there
    bound: int  # its value
    make: Callable[[], Any]  # a fresh owner
    attribute: str  # the owner's memo
    key: Callable[[int], str]  # the i-th distinct key
    reference: Callable[[str], Any]  # the value, read without the memo
    same: Callable[[Any, Any], bool]


MEMOS = {
    "llm-evidence": Memo(
        llm_model, "READINGS_SIZE", 1024,
        lambda: SimulatedLLM(knowledge=None, seed=7), "_readings",
        lambda i: f"Page {i}\nthe {i} votes of ohio {i} went to ann lee",
        llm_model._read_evidence, lambda a, b: a == b,
    ),
    "rerank-payload": Memo(
        rerank_base, "READINGS_SIZE", 4096, FeatureReranker, "_readings",
        lambda i: f"tom jenkins of ohio {i} won {i * 7} votes in 19{i % 100}",
        rerank_features._read_text, lambda a, b: a == b,
    ),
    "token-features": Memo(
        token_embed, "FEATURES_SIZE", 8192, TokenEmbedder, "_feature_cache",
        lambda i: f"g{i:03d}",
        lambda feature: _feature_vector(feature, 64, "tok"), np.array_equal,
    ),
}


@pytest.fixture(params=sorted(MEMOS))
def memo(request):
    return MEMOS[request.param]


def memo_of(spec, owner):
    return getattr(owner, spec.attribute)


class TestTheMemos:
    def test_bounded_by_the_module_constant(self, memo):
        assert getattr(memo.module, memo.constant) == memo.bound
        info = memo_of(memo, memo.make()).cache_info()
        assert (info.maxsize, info.currsize) == (memo.bound, 0)

    def test_the_least_recently_used_key_goes_first(self, memo, monkeypatch):
        monkeypatch.setattr(memo.module, memo.constant, 2)
        read = memo_of(memo, memo.make())
        first, second, third = (memo.key(i) for i in range(3))
        for key in (first, second, first, third):  # ``second`` is evicted
            read(key)
        info = read.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 3, 2)
        assert memo.same(read(first), memo.reference(first))
        assert read.cache_info().hits == 2
        assert memo.same(read(second), memo.reference(second))
        assert read.cache_info().misses == 4

    def test_one_memo_per_instance(self, memo):
        a, b = memo.make(), memo.make()
        assert memo_of(memo, a) is not memo_of(memo, b)
        memo_of(memo, a)(memo.key(0))
        assert memo_of(memo, a).cache_info().currsize == 1
        assert memo_of(memo, b).cache_info().currsize == 0

    def test_eight_threads_read_what_one_reads(self, memo, monkeypatch):
        """A memo smaller than the keys, so every miss races an
        eviction."""
        keys = [memo.key(i) for i in range(48)]
        expected = [memo.reference(key) for key in keys]
        monkeypatch.setattr(memo.module, memo.constant, 8)
        read = memo_of(memo, memo.make())
        wrong = []

        def worker(thread_number):
            order = list(range(len(keys))) * 3
            random.Random(thread_number).shuffle(order)
            for position in order:
                if not memo.same(read(keys[position]), expected[position]):
                    wrong.append((thread_number, keys[position]))

        hammer(worker)
        assert not wrong
        info = read.cache_info()
        assert info.currsize == 8
        assert info.hits + info.misses == 8 * 3 * len(keys)
