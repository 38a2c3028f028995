"""``InvertedIndex.seal`` as ``src/repro/index/inverted.py`` held it at
865d6ff (and again at b2db647): two searchers can both find the
index unsealed and compile it twice, one publishing over the other
(IPE001)."""


class InvertedIndex:
    def __init__(self) -> None:
        self._postings = {}
        self._sealed = None

    def seal(self) -> "InvertedIndex":
        if self._sealed is not None:
            return self
        self._sealed = {
            token: sorted(entry.items())
            for token, entry in self._postings.items()
        }
        return self

    def search(self, query: str, k: int = 10):
        self.seal()
        return self._sealed.get(query, [])[:k]
