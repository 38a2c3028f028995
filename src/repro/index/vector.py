"""Exact (flat) vector index — the semantic-based index baseline.

``FlatVectorIndex`` is the pgvector/Faiss ``IndexFlat`` equivalent:
brute-force cosine or L2 search over every stored vector.  It also
defines the ``VectorIndex`` interface the approximate indexes implement.
"""

from __future__ import annotations

import abc
import mmap
import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import sanitizer as _sanitizer
from repro.index.base import Ranking, SearchHit, SearchIndex, hits_of


def top_ranked(
    scores: np.ndarray,
    ids: Sequence[str],
    k: int,
    rows: Optional[Sequence[int]] = None,
) -> Ranking:
    """The ``k`` best of ``scores`` as columns, ordered by ``(-score, id)``.

    ``scores[i]`` belongs to ``ids[i]``, or to ``ids[rows[i]]`` when the
    scores cover a subset of the index.  One ``np.partition`` (the
    selection behind ``argpartition``) finds the k-th best score;
    everything tied with it stays in the running, so the id order
    decides across the boundary exactly as a full sort would (the
    ``_rank_matrix`` rule of :mod:`repro.index.inverted`).
    """
    count = scores.shape[0]
    if k <= 0 or count == 0:
        return [], []
    if k < count:
        kth = np.partition(scores, count - k)[count - k]
        positions = np.nonzero(scores >= kth)[0]
        scores = scores[positions]
        positions = positions.tolist()
    else:
        positions = range(count)
    if rows is not None:
        positions = [rows[i] for i in positions]
    ranked = sorted(zip((-scores).tolist(), [ids[i] for i in positions]))[:k]
    return [i for _, i in ranked], [-negated for negated, _ in ranked]


def top_hits(
    scores: np.ndarray,
    ids: Sequence[str],
    k: int,
    index_name: str,
    rows: Optional[Sequence[int]] = None,
) -> List[SearchHit]:
    """:func:`top_ranked`, materialized as hits."""
    return hits_of([top_ranked(scores, ids, k, rows)], index_name)[0]


#: rows a flat index stages before one block copy into its table
_STAGE_ROWS = 256


def _grown(array: np.ndarray, count: int, capacity: int) -> np.ndarray:
    """``array`` regrown to ``capacity`` along its last axis, on anonymous
    pages (numpy's own big blocks ask for huge pages and come in whole)."""
    shape = array.shape[:-1] + (capacity,)
    pages = mmap.mmap(-1, 8 * int(np.prod(shape)), access=mmap.ACCESS_COPY)
    grown = np.frombuffer(pages, dtype=np.float64).reshape(shape)
    grown[..., :count] = array[..., :count]
    return grown


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
        # l2: negate distance so that larger is better (row-major
        # whatever ``matrix`` views: the sum rounds the same everywhere)
        diff = np.subtract(matrix, vector, order="C")
        return -np.sqrt(np.einsum("ij,ij->i", diff, diff))


class FlatVectorIndex(VectorIndex):
    """Brute-force exact nearest-neighbour search (Faiss IndexFlat).

    Every vector is held once, in a column-major table (``dim x
    capacity``, doubling) with the row norms beside it: hashed
    embeddings are sparse, so a cosine query reads only the columns of
    its non-zero buckets, and a row's score is a function of that row
    and the query alone — the same bits from ``search``, a batch or a
    shard, on any BLAS build.
    """

    def __init__(
        self,
        dim: int,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        name: str = "flat",
    ) -> None:
        super().__init__(dim, encoder=encoder, metric=metric, name=name)
        #: ``_columns[b, i]``, ``i < _count``: bucket ``b`` of ``_ids[i]``
        self._columns = np.zeros((dim, 0), dtype=np.float64)
        #: L2 norm of every row
        self._row_norms = np.zeros(0, dtype=np.float64)
        self._count = 0
        #: the ``_staged`` vectors of ``_ids[_count:]``; the first read
        #: after a write moves them into the table
        self._stage = np.zeros((_STAGE_ROWS, dim), dtype=np.float64)
        self._staged = 0
        # guards table and stage: shards are searched from a thread pool,
        # and two first searches after a write must not both flush
        self._matrix_lock = threading.Lock()

    def _store(self, instance_id: str, vector: np.ndarray) -> None:
        if self._staged == _STAGE_ROWS:
            self._flush()
        with self._matrix_lock:
            self._stage[self._staged] = vector
            self._staged += 1
            _sanitizer.note_write(self, "_staged")

    def _flush(self) -> None:
        """Move the staged rows into the table: one transposed block copy
        and the block's norms."""
        with self._matrix_lock:
            block = self._stage[: self._staged]
            count, end = self._count, self._count + self._staged
            if end > self._columns.shape[1]:
                capacity = max(2 * self._columns.shape[1], _STAGE_ROWS)
                self._columns = _grown(self._columns, count, capacity)
                self._row_norms = _grown(self._row_norms, count, capacity)
            self._columns[:, count:end] = block.T
            self._row_norms[count:end] = np.linalg.norm(block, axis=1)
            self._count, self._staged = end, 0
            _sanitizer.note_write(self, "_staged")

    def remove_vector(self, instance_id: str) -> None:
        """Evict one vector and its id (KeyError when absent).

        O(n) — the table closes the gap; fine for the live-mutation
        rates the indexer sees (bulk churn goes through a rebuild)."""
        index = self._position(instance_id)
        del self._ids[index]
        self._id_set.discard(instance_id)
        self._flush()
        with self._matrix_lock:
            count = self._count = self._count - 1
            for table in (self._columns, self._row_norms):
                table[..., index:count] = table[..., index + 1:count + 1]
            _sanitizer.note_write(self, "_count")

    def _position(self, instance_id: str) -> int:
        if instance_id not in self._id_set:
            raise KeyError(f"no vector with id {instance_id!r} in {self.name!r}")
        return self._ids.index(instance_id)

    def _table(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(dim, n)`` columns and ``n`` row norms, the first read after
        a write flushing the stage."""
        if self._staged:
            self._flush()
        return self._columns[:, :self._count], self._row_norms[:self._count]

    def _get_matrix(self) -> np.ndarray:
        """The stored vectors as an ``(n, dim)`` view of the table."""
        return self._table()[0].T

    def _scores(
        self, columns: np.ndarray, row_norms: np.ndarray, vector: np.ndarray
    ) -> np.ndarray:
        """Cosine as the sum over the query's non-zero buckets in bucket
        order (plain multiply-adds, no BLAS); L2 on the row view."""
        if self.metric != "cosine":
            return self._scores_against(columns.T, vector)
        dots = np.zeros(columns.shape[1], dtype=np.float64)
        for bucket in np.flatnonzero(vector).tolist():
            dots += vector[bucket] * columns[bucket]
        norms = row_norms * (np.linalg.norm(vector) or 1.0)
        norms[norms == 0] = 1.0
        return dots / norms

    def rank_vectors(
        self, vectors: Sequence[np.ndarray], k: int
    ) -> List[Ranking]:
        """Top-k of every query vector against one reading of the table
        (also what a vector shard ranks a prepared batch with)."""
        vectors = [self._check_vector(vector) for vector in vectors]
        columns, row_norms = self._table()
        if columns.shape[1] == 0 or k <= 0:
            return [([], []) for _ in vectors]
        return [
            top_ranked(
                self._scores(columns, row_norms, vector), self._ids, k
            )
            for vector in vectors
        ]

    def search_vector(self, vector: np.ndarray, k: int = 10) -> List[SearchHit]:
        return hits_of(self.rank_vectors([vector], k), self.name)[0]

    def rank_batch(self, queries: List[str], k: int = 10) -> List[Ranking]:
        """Encode every query, then rank them against one reading of
        the table; id-for-id and bit-for-bit the per-query loop."""
        return self.rank_vectors([self.encode(query) for query in queries], k)

    def search_batch(
        self, queries: List[str], k: int = 10
    ) -> List[List[SearchHit]]:
        return hits_of(self.rank_batch(queries, k), self.name)

    def vector_of(self, instance_id: str) -> np.ndarray:
        """Stored vector of an instance (for tests and rerankers)."""
        return np.array(self._table()[0][:, self._position(instance_id)])
