"""``FlatVectorIndex._get_matrix`` as 47a8d39 fixed it: double-checked
locking around the stack."""

import threading

import numpy as np


class FlatVectorIndex:
    def __init__(self, dim: int) -> None:
        self.dim = dim
        self._rows = []
        self._matrix = None
        self._matrix_lock = threading.Lock()

    def _get_matrix(self):
        matrix = self._matrix
        if matrix is None:
            with self._matrix_lock:
                matrix = self._matrix
                if matrix is None:
                    matrix = (
                        np.vstack(self._rows)
                        if self._rows
                        else np.zeros((0, self.dim), dtype=np.float64)
                    )
                    self._matrix = matrix
        return matrix

    def search(self, vector, k: int = 10):
        scores = self._get_matrix() @ vector
        return np.argsort(-scores)[:k]
