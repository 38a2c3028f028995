"""``TfidfVectorizer.fit`` as ``src/repro/embed/vectorizers.py`` held
it at a502626: it iterates a bare set, so ``_doc_freq``'s insertion
order is hash-randomized across processes (DET003)."""

from typing import Dict, Iterable

from repro.text import analyze


class TfidfVectorizer:
    def __init__(self, dim: int = 256) -> None:
        self.dim = dim
        self._doc_freq: Dict[str, int] = {}
        self._num_docs = 0

    def fit(self, texts: Iterable[str]) -> "TfidfVectorizer":
        """Record document frequencies over ``texts``."""
        for text in texts:
            self._num_docs += 1
            for token in set(analyze(text)):
                self._doc_freq[token] = self._doc_freq.get(token, 0) + 1
        return self
