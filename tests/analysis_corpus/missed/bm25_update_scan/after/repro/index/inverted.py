"""``InvertedIndex.remove`` as it is now: the caller hands over the
document's analysed tokens, and no scan of the postings is left."""

import numpy as np


class InvertedIndex:
    def __init__(self, base) -> None:
        self._base = base
        self._df = {}
        self._dead = []

    def remove(self, instance_id: str, tokens) -> None:
        base = self._base
        position = int(np.searchsorted(base.by_ordinal, instance_id))
        self._dead.append(position)
        distinct = set(tokens)
        for token in distinct:
            self._df[token] -= 1

    def add(self, instance_id: str, payload: str) -> None:
        for token in payload.split():
            self._df[token] = self._df.get(token, 0) + 1
