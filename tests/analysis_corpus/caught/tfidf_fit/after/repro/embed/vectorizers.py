"""``TfidfVectorizer.fit`` as 0c78fb2 fixed it: sorted tokens give
``_doc_freq`` one insertion order."""

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
            for token in sorted(set(analyze(text))):
                self._doc_freq[token] = self._doc_freq.get(token, 0) + 1
        return self
