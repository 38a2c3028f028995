"""Exact (flat) vector index — the semantic-based index baseline.

``FlatVectorIndex`` is the pgvector/Faiss ``IndexFlat`` equivalent:
brute-force cosine or L2 search over a dense matrix.  It also defines the
``VectorIndex`` interface the approximate indexes implement.
"""

from __future__ import annotations

import abc
import threading
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import SearchHit, SearchIndex


def top_hits(
    scores: np.ndarray,
    ids: Sequence[str],
    k: int,
    index_name: str,
    rows: Optional[Sequence[int]] = None,
) -> List[SearchHit]:
    """The ``k`` best of ``scores`` as hits, ordered by ``(-score, id)``.

    ``scores[i]`` belongs to ``ids[i]``, or to ``ids[rows[i]]`` when the
    scores cover a subset of the index.  One ``np.partition`` (the
    selection behind ``argpartition``) finds the k-th best score;
    everything tied with it stays in the running, so the id order
    decides across the boundary exactly as a full sort would (the
    ``_rank_matrix`` rule of :mod:`repro.index.inverted`).
    """
    count = scores.shape[0]
    if k <= 0 or count == 0:
        return []
    if k < count:
        kth = np.partition(scores, count - k)[count - k]
        positions = np.nonzero(scores >= kth)[0]
        scores = scores[positions]
        positions = positions.tolist()
    else:
        positions = range(count)
    if rows is not None:
        positions = [rows[i] for i in positions]
    ranked = sorted(zip((-scores).tolist(), [ids[i] for i in positions]))
    return [
        SearchHit(score=-negated, instance_id=instance_id, index_name=index_name)
        for negated, instance_id in ranked[:k]
    ]


class VectorIndex(SearchIndex):
    """Index over dense vectors; string queries go through an encoder."""

    def __init__(
        self,
        dim: int,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        name: str = "vector",
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if metric not in ("cosine", "l2"):
            raise ValueError(f"metric must be 'cosine' or 'l2', got {metric!r}")
        self.dim = dim
        self.metric = metric
        self.name = name
        self._encoder = encoder
        self._ids: List[str] = []
        self._id_set: set = set()

    # -- encoding -------------------------------------------------------
    def encode(self, text: str) -> np.ndarray:
        """Encode a string query with the configured encoder."""
        if self._encoder is None:
            raise RuntimeError(
                f"{type(self).__name__} has no encoder; use add_vector/"
                "search_vector or construct with encoder="
            )
        return np.asarray(self._encoder(text), dtype=np.float64)

    def _check_vector(self, vector: np.ndarray) -> np.ndarray:
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape != (self.dim,):
            raise ValueError(
                f"expected vector of dim {self.dim}, got shape {vector.shape}"
            )
        return vector

    # -- SearchIndex interface -----------------------------------------
    def add(self, instance_id: str, payload: str) -> None:
        self.add_vector(instance_id, self.encode(payload))

    def search(self, query: str, k: int = 10) -> List[SearchHit]:
        return self.search_vector(self.encode(query), k)

    def remove(self, instance_id: str) -> None:
        """Evict one stored vector (KeyError when absent).

        The flat backend supports this exactly; approximate backends
        may override or refuse."""
        self.remove_vector(instance_id)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._id_set

    # -- vector interface ----------------------------------------------
    def add_vector(self, instance_id: str, vector: np.ndarray) -> None:
        if instance_id in self._id_set:
            raise ValueError(f"duplicate instance id: {instance_id}")
        vector = self._check_vector(vector)
        self._id_set.add(instance_id)
        self._ids.append(instance_id)
        self._store(instance_id, vector)

    def remove_vector(self, instance_id: str) -> None:
        """Backend-specific eviction; exact backends implement it."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support removal"
        )

    @abc.abstractmethod
    def _store(self, instance_id: str, vector: np.ndarray) -> None:
        """Backend-specific insertion."""

    @abc.abstractmethod
    def search_vector(self, vector: np.ndarray, k: int = 10) -> List[SearchHit]:
        """Top-k nearest stored vectors."""

    # -- scoring helpers -------------------------------------------------
    def _scores_against(
        self,
        matrix: np.ndarray,
        vector: np.ndarray,
        row_norms: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Similarity scores of ``vector`` against rows of ``matrix``
        (``row_norms``: the rows' L2 norms, when the caller keeps them)."""
        if self.metric == "cosine":
            if row_norms is None:
                row_norms = np.linalg.norm(matrix, axis=1)
            norms = row_norms * (np.linalg.norm(vector) or 1.0)
            norms[norms == 0] = 1.0
            return (matrix @ vector) / norms
        # l2: negate distance so that larger is better
        diff = matrix - vector
        return -np.sqrt(np.einsum("ij,ij->i", diff, diff))


class FlatVectorIndex(VectorIndex):
    """Brute-force exact nearest-neighbour search (Faiss IndexFlat)."""

    def __init__(
        self,
        dim: int,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        name: str = "flat",
    ) -> None:
        super().__init__(dim, encoder=encoder, metric=metric, name=name)
        self._rows: List[np.ndarray] = []
        self._matrix: Optional[np.ndarray] = None
        #: L2 norm of every row of ``_matrix``, computed on the first
        #: cosine search after a stacking and dropped with the matrix
        self._norms: Optional[np.ndarray] = None
        # serializes the lazy vstack in _get_matrix(): vector shards
        # are searched from a thread pool, and two searchers hitting
        # an invalidated cache must not build (and publish) twice
        self._matrix_lock = threading.Lock()
        #: True for an index memmap-attached from a persisted snapshot
        #: (read-only: the matrix is a shared on-disk artifact)
        self._attached = False

    @property
    def is_attached(self) -> bool:
        """True for a read-only memmap attachment of a persisted matrix."""
        return self._attached

    def _forbid_attached_mutation(self, action: str) -> None:
        if self._attached:
            from repro.verify.base import VerificationError

            raise VerificationError(
                f"cannot {action} on a memmap-attached vector index "
                f"({self.name!r}): attached snapshots are read-only"
            )

    def add_vector(self, instance_id: str, vector: np.ndarray) -> None:
        self._forbid_attached_mutation("add")
        super().add_vector(instance_id, vector)

    def _store(self, instance_id: str, vector: np.ndarray) -> None:
        self._rows.append(vector)
        self._invalidate()

    def remove_vector(self, instance_id: str) -> None:
        """Evict one vector and its id (KeyError when absent).

        O(n) — the flat index is a dense list; fine for the live-
        mutation rates the indexer sees (bulk churn goes through a
        rebuild)."""
        self._forbid_attached_mutation("remove")
        try:
            index = self._ids.index(instance_id)
        except ValueError:
            raise KeyError(
                f"no vector with id {instance_id!r} in {self.name!r}"
            ) from None
        del self._ids[index]
        del self._rows[index]
        self._id_set.discard(instance_id)
        self._invalidate()

    def _invalidate(self) -> None:
        with self._matrix_lock:
            self._matrix = None
            self._norms = None

    def _get_matrix(self) -> np.ndarray:
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
                    _sanitizer.note_write(
                        self, "_matrix", lock=self._matrix_lock
                    )
        return matrix

    def _get_norms(self) -> Optional[np.ndarray]:
        """Row norms of the stacked matrix (cosine only), computed once
        per stacking — an attached snapshot's on its first search."""
        if self.metric != "cosine":
            return None
        norms = self._norms
        if norms is None:
            matrix = self._get_matrix()
            with self._matrix_lock:
                norms = self._norms
                if norms is None:
                    norms = np.linalg.norm(matrix, axis=1)
                    self._norms = norms
                    _sanitizer.note_write(
                        self, "_norms", lock=self._matrix_lock
                    )
        return norms

    def _search_vectors(
        self, vectors: Sequence[np.ndarray], k: int
    ) -> List[List[SearchHit]]:
        """Top-k of every query vector against one reading of the
        matrix and its norms."""
        matrix = self._get_matrix()
        if matrix.shape[0] == 0 or k <= 0:
            return [[] for _ in vectors]
        norms = self._get_norms()
        return [
            top_hits(
                self._scores_against(matrix, vector, norms),
                self._ids, k, self.name,
            )
            for vector in vectors
        ]

    def search_vector(self, vector: np.ndarray, k: int = 10) -> List[SearchHit]:
        return self._search_vectors([self._check_vector(vector)], k)[0]

    def search_batch(
        self, queries: List[str], k: int = 10
    ) -> List[List[SearchHit]]:
        """Encode every query, then score them against one reading of
        the matrix and its norms; hit-for-hit the per-query loop."""
        return self._search_vectors(
            [self._check_vector(self.encode(query)) for query in queries], k
        )

    def vector_of(self, instance_id: str) -> np.ndarray:
        """Stored vector of an instance (for tests and rerankers)."""
        index = self._ids.index(instance_id)
        # attached indexes have no per-row list; read the (memmapped)
        # matrix instead — same values either way
        if self._rows:
            return self._rows[index]
        return np.asarray(self._get_matrix()[index])
