"""Per-token character n-gram embeddings (late-interaction substrate)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.embed.token_embed import TokenEmbedder
from repro.text import analyze

token_strategy = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
                         min_size=1, max_size=12)


class TestTokenEmbedder:
    def test_unit_norm(self):
        vec = TokenEmbedder(dim=32).embed_token("election")
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_deterministic_across_instances(self):
        a = TokenEmbedder(dim=32).embed_token("ohio")
        b = TokenEmbedder(dim=32).embed_token("ohio")
        assert np.allclose(a, b)

    def test_morphological_neighbours(self):
        emb = TokenEmbedder(dim=64)
        sim_close = emb.embed_token("election") @ emb.embed_token("elections")
        sim_far = emb.embed_token("election") @ emb.embed_token("basketball")
        assert sim_close > 0.5
        assert sim_close > sim_far + 0.3

    def test_exact_token_dominates(self):
        emb = TokenEmbedder(dim=64)
        self_sim = emb.embed_token("votes") @ emb.embed_token("votes")
        assert self_sim == pytest.approx(1.0)

    def test_embed_tokens_matrix(self):
        matrix = TokenEmbedder(dim=32).embed_tokens(["a", "b", "c"])
        assert matrix.shape == (3, 32)

    def test_embed_tokens_empty(self):
        assert TokenEmbedder(dim=32).embed_tokens([]).shape == (0, 32)

    def test_embed_text_analyzes(self):
        matrix = TokenEmbedder(dim=32).embed_tokens(analyze("the elections"))
        # stopword removed, one token remains
        assert matrix.shape[0] == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TokenEmbedder(dim=0)
        with pytest.raises(ValueError):
            TokenEmbedder(min_n=4, max_n=3)

    @pytest.mark.parametrize("min_n", [0, -1])
    def test_min_n_must_be_positive(self, min_n):
        # it used to construct and then fail at the first token embedded
        with pytest.raises(ValueError, match="min_n must be positive"):
            TokenEmbedder(min_n=min_n)

    @given(token_strategy, token_strategy)
    def test_cosine_bounded(self, a, b):
        emb = TokenEmbedder(dim=32)
        sim = float(emb.embed_token(a) @ emb.embed_token(b))
        assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9

    def test_cache_reused(self):
        emb = TokenEmbedder(dim=32)
        emb.embed_token("ohio")
        before = emb._feature_cache.cache_info()
        emb.embed_token("ohio")
        assert emb._feature_cache.cache_info() == before
        assert before.currsize > 0
