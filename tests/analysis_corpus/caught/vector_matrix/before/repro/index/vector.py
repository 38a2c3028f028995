"""``FlatVectorIndex._get_matrix`` as ``src/repro/index/vector.py``
held it at b2db647: two searchers can both stack the matrix, and one
reads it half published (IPE001)."""

import numpy as np


class FlatVectorIndex:
    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._rows = []
        self._matrix = None

    def _get_matrix(self):
        if self._matrix is None:
            self._matrix = (
                np.vstack(self._rows)
                if self._rows
                else np.zeros((0, self.dim), dtype=np.float64)
            )
        return self._matrix

    def search(self, vector, k: int = 10):
        scores = self._get_matrix() @ vector
        return np.argsort(-scores)[:k]
