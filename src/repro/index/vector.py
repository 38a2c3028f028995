"""Exact (flat) vector index — the semantic-based index baseline.

``FlatVectorIndex`` is the pgvector/Faiss ``IndexFlat`` equivalent:
brute-force cosine or L2 search over every stored vector.  It also
defines the ``VectorIndex`` interface the approximate indexes implement.
"""

from __future__ import annotations

import abc
import bisect
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.index.base import (
    Ranking, SearchHit, SearchIndex, hits_of, ordinals_of, select_ranked,
)


def top_ranked(
    scores: np.ndarray,
    ordinal: np.ndarray,
    by_ordinal: np.ndarray,
    k: int,
    rows: Optional[Sequence[int]] = None,
) -> Ranking:
    """The ``k`` best of ``scores`` as columns, ordered by ``(-score, id)``.

    ``scores[i]`` belongs to the index's ``i``-th id, or to its
    ``rows[i]``-th when the scores cover a subset of the index;
    ``ordinal`` and ``by_ordinal`` are
    :func:`~repro.index.base.ordinals_of` its id list.  One
    ``np.partition`` (the selection behind ``argpartition``) finds the
    k-th best score; everything tied with it stays in the running, so
    the id order decides across the boundary exactly as a full sort
    would, in the ordering every index shares
    (:func:`~repro.index.base.select_ranked`).
    """
    count = scores.shape[0]
    if k <= 0 or count == 0:
        return [], []
    if k < count:
        kth = np.partition(scores, count - k)[count - k]
        positions = np.nonzero(scores >= kth)[0]
        scores = scores[positions]
    else:
        positions = np.arange(count)
    if rows is not None:
        positions = np.asarray(rows, dtype=np.int64)[positions]
    return select_ranked(ordinal, by_ordinal, scores, positions, k)


def top_hits(
    scores: np.ndarray,
    ordinal: np.ndarray,
    by_ordinal: np.ndarray,
    k: int,
    index_name: str,
    rows: Optional[Sequence[int]] = None,
) -> List[SearchHit]:
    """:func:`top_ranked`, materialized as hits."""
    return hits_of(
        [top_ranked(scores, ordinal, by_ordinal, k, rows)], index_name
    )[0]


#: rows a flat index stages before one block moves into its buckets
_STAGE_ROWS = 256


def _span_of(rows: np.ndarray, row: int) -> Tuple[int, int]:
    """Where ``row`` sits in a bucket's ascending ``rows``: ``(at, at +
    1)`` when held, ``(at, at)`` at its insertion point when not (a
    bisect over the array's buffer: no numpy call per bucket)."""
    held = memoryview(rows)
    at = bisect.bisect_left(held, row)
    return at, at + (at < len(held) and held[at] == row)


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
        #: :func:`ordinals_of` the id list: built by the first read of
        #: one generation of it, dropped by every write to it
        self._ordinal: Optional[Tuple[np.ndarray, np.ndarray]] = None

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
        if not np.isfinite(vector).all():
            # a NaN score would escape top_ranked's partition cut
            raise ValueError("expected a finite vector, got NaN or infinity")
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
        """:meth:`add_vectors` of one row."""
        self.add_vectors(
            [instance_id], np.asarray(vector, dtype=np.float64).reshape(1, -1)
        )

    def add_vectors(self, instance_ids: Sequence[str], block: np.ndarray) -> None:
        """Store ``block[i]`` under ``instance_ids[i]``, all or none: the
        whole block is checked — its shape, its finiteness, its ids
        against each other and against the stored ones — before a row
        of it is stored."""
        ids = list(instance_ids)
        block = np.asarray(block, dtype=np.float64)
        if block.shape != (len(ids), self.dim):
            raise ValueError(
                f"expected {len(ids)} vector(s) of dim {self.dim}, "
                f"got shape {block.shape}"
            )
        if not np.isfinite(block).all():
            # a NaN score would escape top_ranked's partition cut
            raise ValueError("expected finite vectors, got NaN or infinity")
        if len(set(ids)) < len(ids) or not self._id_set.isdisjoint(ids):
            seen: set = set()
            for instance_id in ids:
                if instance_id in self._id_set or instance_id in seen:
                    raise ValueError(f"duplicate instance id: {instance_id}")
                seen.add(instance_id)
        self._id_set.update(ids)
        self._ids.extend(ids)
        self._ordinal = None
        self._store(block)

    def remove_vector(self, instance_id: str) -> None:
        """Backend-specific eviction; exact backends implement it."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support removal"
        )

    def _ordinals(self) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`ordinals_of` the current id list, built once per
        generation of it (derived data: a write drops it)."""
        if self._ordinal is None:
            self._ordinal = ordinals_of(self._ids)
        return self._ordinal

    @abc.abstractmethod
    def _store(self, block: np.ndarray) -> None:
        """Backend-specific insertion of a checked ``(n, dim)`` block,
        the rows of the last ``n`` ids."""

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

    Every vector is held once, as its non-zeros: for each of the ``dim``
    buckets, the rows with a non-zero value there (``int32``, ascending)
    and those values, with the row norms beside them.  Hashed embeddings
    are sparse, so a cosine reads only the entries of its query's
    non-zero buckets, and a row's score is a function of that row and
    the query alone — the same bits from ``search`` or a batch, on any
    BLAS build.
    """

    def __init__(
        self,
        dim: int,
        encoder: Optional[Callable[[str], np.ndarray]] = None,
        metric: str = "cosine",
        name: str = "flat",
    ) -> None:
        super().__init__(dim, encoder=encoder, metric=metric, name=name)
        #: ``_rows[b]``: the rows non-zero in bucket ``b``, ascending;
        #: ``_values[b]``: their values there
        self._rows: List[np.ndarray] = [np.zeros(0, dtype=np.int32)] * dim
        self._values: List[np.ndarray] = [np.zeros(0)] * dim
        #: L2 norm of every row
        self._row_norms = np.zeros(0)
        #: rows moved out of the stage: into the buckets, or into
        #: ``_blocks``, ``(norms, sizes, rows, values)`` of one staged
        #: block each (see :meth:`_unstage`), which the next read joins
        #: into the buckets
        self._count = 0
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        #: the ``_staged`` vectors of ``_ids[_count:]``
        self._stage = np.zeros((_STAGE_ROWS, dim), dtype=np.float64)
        self._staged = 0

    def _store(self, block: np.ndarray) -> None:
        done = 0
        while done < len(block):
            if self._staged == _STAGE_ROWS:
                self._unstage()
            at = self._staged
            take = min(_STAGE_ROWS - at, len(block) - done)
            self._stage[at:at + take] = block[done:done + take]
            self._staged = at + take
            done += take

    def _unstage(self) -> None:
        """Move the staged rows into ``_blocks``: the block's norms, how
        many non-zeros each bucket holds, and the non-zeros' rows and
        values in bucket order."""
        block = self._stage[: self._staged]
        buckets, rows = np.nonzero(block.T)
        self._blocks.append((
            np.linalg.norm(block, axis=1),
            np.bincount(buckets, minlength=self.dim),
            (rows + self._count).astype(np.int32),
            block.T[buckets, rows],
        ))
        self._count += self._staged
        self._staged = 0

    def _table(self) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
        """The buckets' rows and values and the row norms, the first read
        after a write moving the stage and the blocks into them."""
        if self._staged:
            self._unstage()
        if self._blocks:
            norms, sizes, rows, values = zip(*self._blocks)
            held = np.array([len(bucket) for bucket in self._rows])
            totals = held + np.sum(sizes, axis=0)
            bounds = np.concatenate(([0], np.cumsum(totals))).tolist()
            all_rows = np.empty(bounds[-1], dtype=np.int32)
            all_values = np.empty(bounds[-1])
            # each bucket: its rows as they are, then every block's, in
            # block order, so that its rows stay ascending
            for start, bucket_rows, bucket_values in zip(
                bounds, self._rows, self._values
            ):
                all_rows[start:start + len(bucket_rows)] = bucket_rows
                all_values[start:start + len(bucket_values)] = bucket_values
            fill = np.array(bounds[:-1]) + held
            for size, block_rows, block_values in zip(sizes, rows, values):
                # a block's non-zeros are in bucket order: the i-th of
                # its bucket ``b`` goes to ``fill[b] + i``
                at = np.repeat(fill - (np.cumsum(size) - size), size)
                at += np.arange(len(block_rows))
                all_rows[at] = block_rows
                all_values[at] = block_values
                fill += size
            self._rows = [
                all_rows[a:b] for a, b in zip(bounds, bounds[1:])
            ]
            self._values = [
                all_values[a:b] for a, b in zip(bounds, bounds[1:])
            ]
            self._row_norms = np.concatenate((self._row_norms,) + norms)
            self._blocks = []
        return self._rows, self._values, self._row_norms

    def remove_vector(self, instance_id: str) -> None:
        """Evict one vector and its id (KeyError when absent).

        O(non-zeros) — every bucket drops the row and renumbers the rows
        after it; fine for the live-mutation rates the indexer sees (bulk
        churn goes through a rebuild)."""
        index = self._position(instance_id)
        del self._ids[index]
        self._id_set.discard(instance_id)
        self._ordinal = None
        all_rows, all_values, row_norms = self._table()
        for b, (rows, values) in enumerate(zip(all_rows, all_values)):
            at, end = _span_of(rows, index)
            all_rows[b] = np.concatenate((rows[:at], rows[end:] - 1))
            all_values[b] = np.concatenate((values[:at], values[end:]))
        self._row_norms = np.delete(row_norms, index)
        self._count -= 1

    def _position(self, instance_id: str) -> int:
        if instance_id not in self._id_set:
            raise KeyError(f"no vector with id {instance_id!r} in {self.name!r}")
        return self._ids.index(instance_id)

    def _get_matrix(self) -> np.ndarray:
        """The stored vectors as a row-major ``(n, dim)`` array."""
        rows, values, row_norms = self._table()
        matrix = np.zeros((len(row_norms), self.dim))
        for bucket, (bucket_rows, bucket_values) in enumerate(zip(rows, values)):
            matrix[bucket_rows, bucket] = bucket_values
        return matrix

    @staticmethod
    def _cosines(
        rows: List[np.ndarray],
        values: List[np.ndarray],
        row_norms: np.ndarray,
        vector: np.ndarray,
    ) -> np.ndarray:
        """Cosine as one ``bincount`` over the entries of the query's
        non-zero buckets, in bucket order: each row sums the products the
        dense ``dots += q[b] * column[b]`` loop adds, in the same order,
        less exact zeros (plain multiply-adds, no BLAS)."""
        buckets = np.flatnonzero(vector).tolist()
        if buckets:
            dots = np.bincount(
                np.concatenate([rows[b] for b in buckets]),
                weights=np.concatenate([vector[b] * values[b] for b in buckets]),
                minlength=len(row_norms),
            )
        else:
            dots = np.zeros(len(row_norms))
        norms = row_norms * (np.linalg.norm(vector) or 1.0)
        norms[norms == 0] = 1.0
        return dots / norms

    def rank_vectors(
        self, vectors: Sequence[np.ndarray], k: int
    ) -> List[Ranking]:
        """Top-k of every query vector against one reading of the
        table."""
        vectors = [self._check_vector(vector) for vector in vectors]
        rows, values, row_norms = self._table()
        if len(row_norms) == 0 or k <= 0:
            return [([], []) for _ in vectors]
        if self.metric == "cosine":
            scores = (
                self._cosines(rows, values, row_norms, vector)
                for vector in vectors
            )
        else:
            matrix = self._get_matrix()
            scores = (self._scores_against(matrix, vector) for vector in vectors)
        ordinal, by_ordinal = self._ordinals()
        return [
            top_ranked(row_scores, ordinal, by_ordinal, k)
            for row_scores in scores
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
        """Stored vector of an instance (for tests and rerankers), read
        from its entries in the buckets."""
        position = self._position(instance_id)
        vector = np.zeros(self.dim)
        for bucket, (rows, values) in enumerate(zip(*self._table()[:2])):
            at, end = _span_of(rows, position)
            if end > at:
                vector[bucket] = values[at]
        return vector
