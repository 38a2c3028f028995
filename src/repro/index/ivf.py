"""IVF-Flat approximate vector index (Faiss IndexIVFFlat equivalent).

Vectors are partitioned into ``nlist`` cells by k-means; a query scans
only the ``nprobe`` nearest cells.  Recall/latency trades off exactly as
in Faiss: higher nprobe → higher recall, slower search.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.index.base import SearchHit
from repro.index.vector import VectorIndex, top_hits


def _kmeans(
    data: np.ndarray, n_clusters: int, seed: int, n_iter: int = 12
) -> np.ndarray:
    """Plain Lloyd's k-means returning centroids; deterministic by seed."""
    rng = np.random.default_rng(seed)
    n = data.shape[0]
    n_clusters = min(n_clusters, n)
    choice = rng.choice(n, size=n_clusters, replace=False)
    centroids = data[choice].copy()
    for _ in range(n_iter):
        # assign
        distances = (
            np.einsum("ij,ij->i", data, data)[:, None]
            - 2 * data @ centroids.T
            + np.einsum("ij,ij->i", centroids, centroids)[None, :]
        )
        assignment = distances.argmin(axis=1)
        # update
        new_centroids = centroids.copy()
        for c in range(n_clusters):
            members = data[assignment == c]
            if len(members):
                new_centroids[c] = members.mean(axis=0)
        if np.allclose(new_centroids, centroids):
            break
        centroids = new_centroids
    return centroids


class IVFFlatIndex(VectorIndex):
    """Inverted-file vector index with flat storage inside each cell.

    The index trains lazily on first search (or explicitly via
    :meth:`train`), so vectors can be streamed in before clustering.
    """

    def __init__(
        self,
        dim: int,
        nlist: int = 16,
        nprobe: int = 2,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        seed: int = 13,
        name: str = "ivf",
    ) -> None:
        super().__init__(dim, encoder=encoder, metric=metric, name=name)
        if nlist <= 0:
            raise ValueError(f"nlist must be positive, got {nlist}")
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        self.nlist = nlist
        self.nprobe = nprobe
        self.seed = seed
        self._rows: List[np.ndarray] = []
        self._centroids: Optional[np.ndarray] = None
        #: cell -> its row indices, ascending
        self._cells: Dict[int, np.ndarray] = {}
        #: the stacked rows and their L2 norms as of the last training;
        #: a search gathers its probed rows from them
        self._data: Optional[np.ndarray] = None
        self._norms: Optional[np.ndarray] = None

    def _store(self, block: np.ndarray) -> None:
        self._rows.extend(block)
        self._centroids = None  # retrain on next search
        self._cells = {}
        self._data = self._norms = None

    def train(self) -> None:
        """Cluster the stored vectors into cells."""
        if not self._rows:
            return
        data = np.vstack(self._rows)
        self._data = data
        self._norms = np.linalg.norm(data, axis=1)
        self._centroids = _kmeans(data, self.nlist, self.seed)
        distances = (
            np.einsum("ij,ij->i", data, data)[:, None]
            - 2 * data @ self._centroids.T
            + np.einsum("ij,ij->i", self._centroids, self._centroids)[None, :]
        )
        assignment = distances.argmin(axis=1)
        self._cells = {
            int(cell): np.nonzero(assignment == cell)[0]
            for cell in np.unique(assignment)
        }

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def search_vector(self, vector: np.ndarray, k: int = 10) -> List[SearchHit]:
        vector = self._check_vector(vector)
        if not self._rows or k <= 0:
            return []
        if not self.is_trained:
            self.train()
        assert self._centroids is not None
        centroid_dist = np.linalg.norm(self._centroids - vector, axis=1)
        probe_cells = np.argsort(centroid_dist)[: self.nprobe].tolist()
        probed = [
            self._cells[cell] for cell in probe_cells if cell in self._cells
        ]
        if not probed:
            return []
        candidate_rows = np.concatenate(probed)
        scores = self._scores_against(
            self._data[candidate_rows], vector, self._norms[candidate_rows]
        )
        return top_hits(
            scores, *self._ordinals(), k, self.name,
            rows=candidate_rows,
        )
