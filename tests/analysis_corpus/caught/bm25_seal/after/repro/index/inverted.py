"""``InvertedIndex.seal`` as 47a8d39 fixed it: double-checked locking,
so one searcher compiles and the others wait for it."""

import threading


class InvertedIndex:
    def __init__(self) -> None:
        self._postings = {}
        self._sealed = None
        self._seal_lock = threading.Lock()

    def seal(self) -> "InvertedIndex":
        if self._sealed is not None:
            return self
        with self._seal_lock:
            if self._sealed is None:
                self._sealed = {
                    token: sorted(entry.items())
                    for token, entry in self._postings.items()
                }
        return self

    def search(self, query: str, k: int = 10):
        self.seal()
        return self._sealed.get(query, [])[:k]
