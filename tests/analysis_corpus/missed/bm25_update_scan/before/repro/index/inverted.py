"""``InvertedIndex.update`` and ``remove`` as
``src/repro/index/inverted.py`` held them at 7024d44: ``update``
removes without the old tokens, so each update of a document the base
carries scans every base posting (``doc_idx == position``).  No rule
fires."""

import numpy as np


class InvertedIndex:
    def __init__(self, base) -> None:
        self._base = base
        self._df = {}
        self._dead = []

    def remove(self, instance_id: str, tokens=None) -> None:
        base = self._base
        position = int(np.searchsorted(base.by_ordinal, instance_id))
        self._dead.append(position)
        if tokens is not None:
            distinct = set(tokens)
        else:
            rows = np.searchsorted(
                base.tok_start, np.flatnonzero(base.doc_idx == position),
                side="right",
            ) - 1
            distinct = [base.tokens[row] for row in rows.tolist()]
        for token in distinct:
            self._df[token] -= 1

    def add(self, instance_id: str, payload: str) -> None:
        for token in payload.split():
            self._df[token] = self._df.get(token, 0) + 1

    def update(self, instance_id: str, payload: str) -> None:
        self.remove(instance_id)
        self.add(instance_id, payload)
